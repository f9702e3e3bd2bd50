import math
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panqa import raster, spectral
from panqa.errors import DegeneracyError, InputError
from panqa.glcm3 import quantize_gray_levels
from panqa.raster import MultibandImage, RasterFile, load_image, save_image
from panqa.resample import upsample
from panqa.spectral import (centre, ergas, inverse_pcc_cost, mdb_cost, pcc,
                            q4, q_index, qnr, sam_mean, summary_stats)
from blocks import collect
from test_fusion import pan_image
from test_layout import traced_peak

# the default strip budget, and one small enough that every strip is a
# single block row (or pixel row)
BUDGETS = (raster.STRIP_BYTES, 1)


def at_budgets(fn, *args, **kwargs):
    """fn's result at each strip budget of BUDGETS."""
    results = []
    for budget in BUDGETS:
        with mock.patch.object(raster, "STRIP_BYTES", budget):
            results.append(fn(*args, **kwargs))
    return results


def image_of(samples):
    """The image of a (height, width, bands) array."""
    return MultibandImage(np.moveaxis(samples, 2, 0))


EVEN_PERMS = [p for p in permutations(range(4))
              if sum(1 for i in range(4) for j in range(i)
                     if p[j] > p[i]) % 2 == 0]


def stats(band, gl=32):
    """summary_stats of band with its gray-level map at gl levels."""
    return summary_stats(*centre(band), quantize_gray_levels(band, gl))


class TestSummaryStats:
    def test_constant_band(self):
        s = stats(np.full((4, 4), 2.0))
        assert (s.std, s.skewness, s.kurtosis, s.entropy_bits) == (0, 0, 0, 0)
        assert s.mean == 2.0

    def test_constant_band_entropy_is_positive_zero(self):
        e = stats(np.full((4, 4), 2.0)).entropy_bits
        assert math.copysign(1.0, e) == 1.0

    def test_equiprobable_entropy(self):
        # exactly one sample per bin of a 32-bin histogram -> 5 bits
        band = np.linspace(0.0, 1.0, 32)
        s = stats(band, gl=32)
        assert s.entropy_bits == pytest.approx(5.0, abs=1e-12)

    def test_entropy_counts_the_gray_level_map(self):
        # a 32-bin histogram of [0, 1] puts 0.5, its edge 16, in bin 16,
        # so it gives each sample its own bin (2 bits); 0.5 exceeds only
        # 15 thresholds k/32, level 15 with 0.49, three levels (1.5 bits)
        band = np.array([0.0, 0.49, 0.5, 1.0])
        assert np.count_nonzero(np.histogram(band, 32, (0.0, 1.0))[0]) == 4
        levels = quantize_gray_levels(band, 32)
        assert levels.tolist() == [0, 15, 15, 31]
        assert summary_stats(*centre(band), levels).entropy_bits == 1.5

    def test_levels_shape_checked(self):
        with pytest.raises(InputError, match="levels"):
            summary_stats(*centre(np.ones(4)), np.zeros(3, dtype=np.int64))
        with pytest.raises(InputError, match="empty band"):
            centre(np.ones(0))
        with pytest.raises(InputError, match="empty band"):
            summary_stats(np.ones(0), 1.0, np.zeros(0, dtype=np.int64))

    def test_two_point_moments(self):
        s = stats(np.array([0.0, 0.0, 1.0, 1.0]))
        assert s.mean == 0.5
        assert s.std == 0.5
        assert s.skewness == 0.0
        assert s.kurtosis == 1.0

    def test_entropy_bounds(self, rng):
        for _ in range(20):
            s = stats(rng.random(100), gl=32)
            assert 0.0 <= s.entropy_bits <= 5.0


def power_moments(x):
    """Skewness and kurtosis through np.power, the direct formulas."""
    c = x - x.mean()
    std = math.sqrt(np.mean(c**2))
    return np.mean(c**3) / std**3, np.mean(c**4) / std**4


# calibrated 16-bit samples; at most 256 of them bound the kurtosis by 256
@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 16), st.integers(1, 16)),
              elements=st.integers(0, 65535).map(lambda dn: dn / 65535)))
def test_moments_match_power_reference(band):
    s = stats(band)
    if s.std == 0.0:
        assert (s.skewness, s.kurtosis) == (0.0, 0.0)
        return
    skew, kurt = power_moments(band.ravel())
    assert abs(s.skewness - skew) <= 1e-12
    assert abs(s.kurtosis - kurt) <= 1e-12


class TestMdb:
    def test_identical(self):
        assert mdb_cost([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert mdb_cost([1.0, 3.0], [2.0, 5.0]) == pytest.approx(1.5)

    def test_symmetric(self, rng):
        a, b = rng.random(5), rng.random(5)
        assert mdb_cost(a, b) == mdb_cost(b, a)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            mdb_cost([1.0], [1.0, 2.0])


def pcc_of(x, y):
    """pcc of two bands with their own summary_stats."""
    return pcc(x, centre(y)[0], stats(x), stats(y))


class TestPcc:
    def test_self(self, rng):
        x = rng.random(50)
        assert pcc_of(x, x) == pytest.approx(1.0)

    def test_affine_insensitive(self, rng):
        x = rng.random(50)
        assert pcc_of(x, 3.0 * x + 2.0) == pytest.approx(1.0)

    def test_anticorrelation(self):
        assert pcc_of(np.array([1.0, 2, 3]),
                      np.array([3.0, 2, 1])) == pytest.approx(-1.0)

    def test_constant_raises(self):
        with pytest.raises(DegeneracyError, match="zero variance"):
            pcc_of(np.ones(4), np.arange(4.0))

    def test_inverse_cost_zero_on_identity(self, random_image):
        img = random_image()
        pccs = [pcc_of(img.band(b), img.band(b)) for b in range(img.bands)]
        assert inverse_pcc_cost(pccs) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_cost_is_the_mean_of_one_minus_pcc(self):
        # (0 + 0.5 + 2) / 3, every term exact in binary
        assert inverse_pcc_cost([1.0, 0.5, -1.0]) == 2.5 / 3


def deviations(x):
    """(z, scale) for the centred samples of x: z is them and scale 1
    where their largest magnitude lies inside (2**-200, 2**200), else z is
    them divided by that magnitude, the scale; (None, 0) where all samples
    are equal."""
    centered = x.ravel() - x.mean()
    if np.ptp(centered) == 0.0:
        return None, 0.0
    scale = np.max(np.abs(centered))
    if 2.0**-200 < scale < 2.0**200:
        return centered, 1.0
    return centered / scale, scale


def reference_std(x):
    """Population std: the scale times the root of the mean squared
    deviation of deviations(); 0 where all samples are equal."""
    z, scale = deviations(x)
    if scale == 0.0:
        return 0.0
    return float(scale * math.sqrt(np.mean(z**2)))


def raw_pcc(x, y):
    """Pearson correlation from the raw bands alone: both means and
    standard deviations computed here. Where either std lies outside
    the unscaled window, each centred band is divided by its std before
    the product."""
    x, y = x.ravel(), y.ravel()
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = reference_std(x), reference_std(y)
    if sx == 0.0 or sy == 0.0:
        raise DegeneracyError("zero variance")
    lo, hi = spectral._UNSCALED
    if not (lo < sx < hi and lo < sy < hi):
        return float(np.mean(xc / sx * (yc / sy)))
    return float(np.mean(xc * yc) / (sx * sy))


def chained_moments(x):
    """Skewness and kurtosis from fresh chained products of deviations(),
    each product a new array; 0 where all samples are equal."""
    z, scale = deviations(x)
    if scale == 0.0:
        return 0.0, 0.0
    sq = z * z
    std = math.sqrt(np.mean(sq))
    return (float(np.mean(sq * z) / std**3), float(np.mean(sq * sq) / std**4))


# samples outside [0, 1] too; a shape of 1 sample or a one-value fill makes
# a constant band
bands = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(*[arrays(
        np.float64, shape,
        elements=st.one_of(st.just(0.5), st.floats(-4.0, 4.0)))] * 2))


def same(a, b) -> bool:
    """a == b, where NaN equals NaN: both formulas give NaN alike when the
    product of two tiny standard deviations underflows."""
    return np.array_equal(a, b, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(pair=bands)
# y's std, 4e-68, lies below the unscaled window
@example(pair=(np.array([[0.0, 0.5, 0.5]]),
               np.array([[0.0, 8.97284071e-68, 8.97284071e-68]])))
def test_pcc_matches_raw_band_reference(pair):
    x, y = pair
    with np.errstate(all="ignore"):
        try:
            want = raw_pcc(x, y)
        except DegeneracyError:
            with pytest.raises(DegeneracyError, match="zero variance"):
                pcc_of(x, y)
            return
        assert same(pcc_of(x, y), want)


@pytest.mark.parametrize("constant", ["a", "b", "both"])
def test_pcc_zero_variance_either_side(rng, constant):
    # constants whose mean is exact, so the centred band is all zero, and
    # 0.3, whose mean of 30 samples rounds: its samples are still all equal
    for a, b in ((0.25, -1.5), (0.3, 0.3)):
        x, y = rng.uniform(-1.0, 2.0, (2, 6, 5))
        if constant in ("a", "both"):
            x = np.full_like(x, a)
        if constant in ("b", "both"):
            y = np.full_like(y, b)
        with pytest.raises(DegeneracyError, match="zero variance"):
            raw_pcc(x, y)
        with pytest.raises(DegeneracyError, match="zero variance"):
            pcc_of(x, y)


def test_pcc_shape_mismatch_names_both_shapes(rng):
    x, y = rng.random((4, 6)), rng.random((4, 5))
    with pytest.raises(InputError) as exc:
        pcc_of(x, y)
    assert "(4, 6)" in str(exc.value) and "(4, 5)" in str(exc.value)


def tiny(*samples):
    band = np.array([samples])
    return band, band


def skewed(d):
    """[d, -d/2, -d/2]: mean 0, and d its largest deviation."""
    return np.array([d, -d / 2, -d / 2])


# largest deviations just inside, at and just past each edge of the
# window (2**-200, 2**200) in which summary_stats does not scale them
EDGES = [np.nextafter(2.0**200, 0.0), 2.0**200,
         np.nextafter(2.0**200, np.inf), np.nextafter(2.0**-200, 1.0),
         2.0**-200, np.nextafter(2.0**-200, 0.0)]


def scaled_to(d, k):
    """A double c whose product with 10.0**k is d exactly: d / 10.0**k or
    one of its neighbours."""
    c = d / 10.0**k
    return next(v for v in (c, np.nextafter(c, 0.0), np.nextafter(c, 2 * c))
                if v * 10.0**k == d)


@settings(max_examples=150, deadline=None)
@given(pair=bands)
# std**4 below the normal doubles; subnormal deviations; every square
# underflowing; all six samples equal, their mean rounding
@example(pair=tiny(4.18573233e-86, 0.0))
@example(pair=tiny(3e-78, 0.0, -1e-78))
@example(pair=tiny(5e-324, 0.0, 0.0))
@example(pair=tiny(*[1.04819143] * 6))
@example(pair=tiny(*skewed(EDGES[0])))
@example(pair=tiny(*skewed(EDGES[1])))
@example(pair=tiny(*skewed(EDGES[2])))
@example(pair=tiny(*skewed(EDGES[3])))
@example(pair=tiny(*skewed(EDGES[4])))
@example(pair=tiny(*skewed(EDGES[5])))
@example(pair=tiny(*skewed(1e300)))
@example(pair=tiny(1e-300, 3e-300, -2e-300))
def test_moments_match_chained_reference(pair):
    band = pair[0]
    with np.errstate(all="ignore"):
        s = stats(band)
        want = chained_moments(band)
    x = band.ravel()
    assert s.mean == x.mean()
    assert s.std == reference_std(x)
    assert same([s.skewness, s.kurtosis], want)


def no_levels(band):
    return np.zeros(np.shape(band), dtype=np.uint8)


def test_moments_where_std_underflows():
    # std**4 underflows to 0: the kurtosis was NaN, with a RuntimeWarning
    band = np.array([[4.18573233e-86, 0.0]])
    s = summary_stats(*centre(band), no_levels(band))
    assert (s.skewness, s.kurtosis) == (0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(band=arrays(np.float64, st.integers(2, 40),
                   elements=st.floats(-1.0, 1.0)),
       k=st.integers(-300, 300))
@example(band=np.linspace(-1.0, 1.0, 50) ** 3, k=-200)
# a band well inside the unscaled window whose scaled copy's largest
# deviation lies at one of its edges, or just inside or past it
@example(band=skewed(scaled_to(EDGES[0], 60)), k=60)
@example(band=skewed(scaled_to(EDGES[1], 60)), k=60)
@example(band=skewed(scaled_to(EDGES[2], 60)), k=60)
@example(band=skewed(scaled_to(EDGES[3], -60)), k=-60)
@example(band=skewed(scaled_to(EDGES[4], -60)), k=-60)
@example(band=skewed(scaled_to(EDGES[5], -60)), k=-60)
@example(band=skewed(1.0), k=300)
@example(band=skewed(1.0), k=-300)
def test_moments_are_scale_free(band, k):
    # from deviations whose squares underflow (k below about -160) to
    # squares that overflow (k above about 150)
    assume(np.ptp(band) >= 0.1)
    want = summary_stats(*centre(band), no_levels(band))
    got = summary_stats(*centre(band * 10.0**k), no_levels(band))
    assert got.std == pytest.approx(want.std * 10.0**k, rel=1e-12)
    assert math.isfinite(got.skewness) and math.isfinite(got.kurtosis)
    assert got.skewness == pytest.approx(want.skewness, rel=1e-9, abs=1e-12)
    assert got.kurtosis == pytest.approx(want.kurtosis, rel=1e-9)
    # a band and its scaled copy correlate fully, where the scaled band's
    # std was 0 ("zero variance") or inf
    assert pcc(band, centre(band * 10.0**k)[0], want,
               got) == pytest.approx(1.0, rel=1e-12)
    # and a scaled band with itself, where the product of its deviations
    # under- or overflowed
    assert pcc(band * 10.0**k, centre(band * 10.0**k)[0], got,
               got) == pytest.approx(1.0, rel=1e-12)


def test_pcc_of_a_pair_at_extreme_scales(rng):
    # a band x 1e-170 against another x 1e160: each is divided by its own
    # std before the product, and the PCC is that of the unscaled pair
    x = rng.random((20, 30))
    y = x + rng.normal(0.0, 0.5, x.shape)

    def pcc_at(sx, sy):
        (cx, mx), (cy, my) = centre(x * sx), centre(y * sy)
        return pcc(x * sx, cy, summary_stats(cx, mx, no_levels(x)),
                   summary_stats(cy, my, no_levels(y)))

    want = pcc_at(1.0, 1.0)
    assert 0.1 < want < 0.9
    assert pcc_at(1e-170, 1e160) == pytest.approx(want, abs=1e-15)
    assert pcc_at(1e160, 1e-170) == pytest.approx(want, abs=1e-15)


def earlier_summary_stats(band, levels):
    """summary_stats as it was when it took the band itself and centred
    it anew, its cube written over the scaled copy of deviations()."""
    x = np.asarray(band, dtype=np.float64).ravel()
    counts = np.bincount(np.ravel(levels))
    p = counts[counts > 0] / x.size
    entropy = float(0.0 - (p * np.log2(p)).sum())
    mean = x.mean()
    z, scale = deviations(x)
    if scale == 0.0:
        return spectral.SummaryStats(float(mean), 0.0, 0.0, 0.0, entropy)
    z = z.copy()
    sq = z * z
    std = math.sqrt(np.mean(sq))
    skew = np.mean(np.multiply(sq, z, out=z)) / std**3
    kurt = np.mean(np.multiply(sq, sq, out=sq)) / std**4
    return spectral.SummaryStats(float(mean), float(scale * std),
                                 float(skew), float(kurt), entropy)


def earlier_pcc(band_a, band_b, stats_a, stats_b):
    """pcc as it was when it took both bands and centred each anew."""
    x, y = band_a.ravel(), band_b.ravel()
    if stats_a.std == 0.0 or stats_b.std == 0.0:
        raise DegeneracyError("zero variance")
    xc = x - stats_a.mean
    xc *= y - stats_b.mean
    return float(np.mean(xc) / (stats_a.std * stats_b.std))


def bits(values):
    """The float64 bit patterns of values, for a bit-for-bit comparison."""
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


# 1e-160: squared deviations underflow; 1e150: std**4 overflows. Both lie
# outside the unscaled window
MAGNITUDES = st.sampled_from((1.0, 1e-160, 1e150))


@settings(max_examples=200, deadline=None)
@given(pair=bands, scales=st.tuples(MAGNITUDES, MAGNITUDES))
# constant bands: an exact mean, and 0.3, whose mean rounds
@example(pair=(np.full((3, 5), 0.25), np.full((3, 5), 0.3)),
         scales=(1.0, 1.0))
@example(pair=(np.full((3, 5), 0.3), np.linspace(0.0, 1.0, 15).reshape(3, 5)),
         scales=(1e150, 1e-160))
# only std**4 overflows: std too comes from the scaled deviations
@example(pair=(np.array([[1.0, 0.5, 0.5]]), np.array([[1.0, 0.5, 0.5]])),
         scales=(1e150, 1.0))
def test_shared_centred_samples_match_earlier_formulas(pair, scales):
    # inside the unscaled window pcc is the earlier formula bit for bit;
    # outside it, each centred band is divided by its std before the
    # product, which the earlier formula under- or overflowed
    x, y = (band * scale for band, scale in zip(pair, scales))
    with np.errstate(all="ignore"):
        levels = [quantize_gray_levels(band, 32) for band in (x, y)]
        want = [earlier_summary_stats(band, lv)
                for band, lv in zip((x, y), levels)]
        (cx, mx), (cy, my) = centre(x), centre(y)
        got = [summary_stats(cx, mx, levels[0]),
               summary_stats(cy, my, levels[1])]
        assert bits(got) == bits(want)
        # the moments only read the centred samples, which pcc reads next
        assert bits(cy) == bits(y - y.mean())
        try:
            want_pcc = earlier_pcc(x, y, *want)
        except DegeneracyError:
            with pytest.raises(DegeneracyError, match="zero variance"):
                pcc(x, cy, *got)
            return
        sx, sy = got[0].std, got[1].std
        if all(spectral._UNSCALED[0] < s < spectral._UNSCALED[1]
               for s in (sx, sy)):
            assert bits(pcc(x, cy, *got)) == bits(want_pcc)
        else:
            scaled = np.mean((x - got[0].mean) / sx * (cy / sy))
            assert bits(pcc(x, cy, *got)) == bits(scaled)


class TestSam:
    def test_identical(self, random_image):
        img = random_image()
        assert sam_mean(img, img) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal(self):
        a = image_of(np.array([[[1.0, 0.0]]]))
        b = image_of(np.array([[[0.0, 1.0]]]))
        assert sam_mean(a, b) == pytest.approx(90.0)

    def test_45_degrees(self):
        a = image_of(np.array([[[1.0, 1.0]]]))
        b = image_of(np.array([[[1.0, 0.0]]]))
        assert sam_mean(a, b) == pytest.approx(45.0)

    def test_scale_invariance(self, random_image):
        a, b = random_image(), random_image()
        base = sam_mean(a, b)
        scaled = sam_mean(a, MultibandImage(7.3 * b.planes))
        assert scaled == base

    def test_zero_pixels_excluded(self):
        a = image_of(np.array([[[1.0, 1.0], [0.0, 0.0]]]))
        b = image_of(np.array([[[1.0, 0.0], [1.0, 1.0]]]))
        assert sam_mean(a, b) == pytest.approx(45.0)


class TestErgas:
    def test_identity(self, random_image):
        img = random_image()
        assert ergas(img, img, 4) == 0.0

    def test_hand_value(self):
        ref = image_of(np.full((4, 4, 1), 100.0))
        test = image_of(np.full((4, 4, 1), 110.0))
        assert ergas(ref, test, 4) == pytest.approx(2.5)

    def test_residual_linearity(self, random_image):
        ref = random_image()
        resid = np.moveaxis(0.01 * np.random.default_rng(3).standard_normal(
            (16, 16, 4)), 2, 0)
        e1 = ergas(ref, MultibandImage(ref.planes + resid), 4)
        e2 = ergas(ref, MultibandImage(ref.planes + 3.0 * resid), 4)
        assert e2 == pytest.approx(3.0 * e1, rel=1e-9)

    def test_zero_mean_band(self):
        ref = image_of(np.array([[[-1.0], [1.0]]]))
        with pytest.raises(DegeneracyError, match="zero reference mean"):
            ergas(ref, ref, 4)


class TestQIndex:
    def test_identical(self, rng):
        x = rng.random((8, 8))
        assert q_index(x, x) == pytest.approx(1.0)

    def test_luminance_term_hand_value(self, rng):
        # equal variances, means 1 and 2 -> Q = 2*1*2/(1+4) * 1 = 0.8
        x = rng.random((8, 8))
        x = (x - x.mean()) + 1.0
        y = x + 1.0
        assert q_index(x, y) == pytest.approx(0.8, rel=1e-12)

    def test_symmetric(self, rng):
        x, y = rng.random((16, 16)), rng.random((16, 16))
        assert q_index(x, y) == pytest.approx(q_index(y, x), abs=1e-15)

    def test_degenerate_blocks(self):
        flat = np.ones((8, 8))
        assert q_index(flat, flat) == 1.0
        assert q_index(flat, 2 * flat) == 0.0

    def test_too_small(self):
        with pytest.raises(InputError, match="smaller than one"):
            q_index(np.ones((4, 4)), np.ones((4, 4)), 8)


class TestQ4:
    def test_identical(self, random_image):
        img = random_image(16, 16, 4)
        assert q4(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_random_pairs(self, rng):
        for _ in range(200):
            a = image_of(rng.random((8, 8, 4)))
            b = image_of(rng.random((8, 8, 4)))
            v = q4(a, b)
            assert 0.0 <= v <= 1.0

    def test_scaling_decreases(self, rng):
        a = image_of(rng.random((8, 8, 4)) + 0.5)
        b = MultibandImage(a.planes
                           + np.moveaxis(0.05 * rng.random((8, 8, 4)), 2, 0))
        assert q4(a, MultibandImage(2.0 * b.planes)) < q4(a, b)

    def test_even_band_permutation_invariance(self, rng):
        a = image_of(rng.random((16, 16, 4)))
        b = MultibandImage(a.planes
                           + np.moveaxis(0.1 * rng.random((16, 16, 4)), 2, 0))
        base = q4(a, b)
        for perm in EVEN_PERMS:
            pa = MultibandImage(a.planes[list(perm)])
            pb = MultibandImage(b.planes[list(perm)])
            assert abs(q4(pa, pb) - base) < 1e-9

    def test_band_count_checked(self, random_image):
        with pytest.raises(InputError):
            q4(random_image(8, 8, 3), random_image(8, 8, 3))


class TestQnr:
    def block_constant_pair(self, rng, bl=2, ratio=4):
        # piecewise-constant low-resolution images on the BL grid make the
        # replicated high-resolution blocks degenerate in exactly the same
        # pattern, so both distortions vanish
        ms = image_of(np.repeat(np.repeat(
            rng.random((4, 4, 4)), bl, axis=0), bl, axis=1))
        pan_l = np.repeat(np.repeat(rng.random((4, 4)), bl, axis=0),
                          bl, axis=1)
        fused = collect(upsample(ms, ratio, "nearest"))
        pan_h = np.repeat(np.repeat(pan_l, ratio, axis=0), ratio, axis=1)
        return ms, fused, pan_image(pan_h), pan_image(pan_l)

    def test_zero_distortion_construction(self, rng):
        ms, fused, pan_h, pan_l = self.block_constant_pair(rng)
        value, d_lambda, d_s = qnr(ms, fused, pan_h, pan_l,
                                   block_size=2)
        assert d_s == pytest.approx(0.0, abs=1e-9)
        assert d_lambda == pytest.approx(0.0, abs=1e-9)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_block_constant_pair_matches_reference(self, rng):
        ms, fused, pan_h, pan_l = self.block_constant_pair(rng)
        assert (qnr(ms, fused, pan_h, pan_l, block_size=2)
                == qnr_reference(ms, fused, pan_h.band(0), pan_l.band(0), 2))

    def test_bounds_random(self, rng):
        ms = image_of(rng.random((16, 16, 3)))
        fused = image_of(rng.random((32, 32, 3)))
        pan_h = pan_image(rng.random((32, 32)))
        pan_l = pan_image(rng.random((16, 16)))
        value, d_lambda, d_s = qnr(ms, fused, pan_h, pan_l)
        assert 0.0 <= d_lambda <= 1.0
        assert 0.0 <= d_s <= 1.0
        assert 0.0 <= value <= 1.0

    def test_shape_mismatch(self, rng):
        ms = image_of(rng.random((8, 8, 3)))
        fused = image_of(rng.random((16, 16, 3)))
        with pytest.raises(InputError):
            qnr(ms, fused, pan_image(rng.random((8, 8))),
                pan_image(rng.random((8, 8))))
        with pytest.raises(InputError, match="exactly one band"):
            qnr(ms, fused, image_of(rng.random((16, 16, 2))),
                pan_image(rng.random((8, 8))))

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_files_score_as_loaded_images(self, tmp_path, rng, budget):
        # every image read from disk a strip at a time, as panqa qnr reads
        # them, or loaded: the same floats. A constant corner in every
        # band makes the band pairs' blocks there degenerate, so they
        # compare the samples read
        ms, fused = rng.random((8, 8, 4)), rng.random((32, 32, 4))
        ms[:2, :2], fused[:4, :4] = 0.5, 0.25
        save_image(image_of(ms), tmp_path / "ms")
        save_image(image_of(fused), tmp_path / "f")
        save_image(pan_image(rng.random((32, 32))), tmp_path / "pan_h")
        save_image(pan_image(rng.random((8, 8))), tmp_path / "pan_l")
        names = ("ms", "f", "pan_h", "pan_l")
        with mock.patch.object(raster, "STRIP_BYTES", budget):
            want = qnr(*(load_image(tmp_path / n) for n in names), 2)
            assert qnr(load_image(tmp_path / "ms"), RasterFile(tmp_path / "f"),
                       *(load_image(tmp_path / n) for n in names[2:]),
                       2) == want
            assert qnr(*(RasterFile(tmp_path / n) for n in names),
                       2) == want


def block_view(plane, bl):
    h, w = plane.shape
    nby, nbx = h // bl, w // bl
    v = plane[:nby * bl, :nbx * bl].reshape(nby, bl, nbx, bl)
    return v.transpose(0, 2, 1, 3).reshape(nby, nbx, bl * bl)


def q_index_reference(band_a, band_b, bl):
    """Q from scratch for each pair, as one q_index call computed it before
    block moments were shared, with the numerator's means multiplied
    first, as the one symmetric Q map does."""
    x = block_view(np.asarray(band_a, dtype=np.float64), bl)
    y = block_view(np.asarray(band_b, dtype=np.float64), bl)
    mx = x.mean(axis=2)
    my = y.mean(axis=2)
    vx = np.mean((x - mx[:, :, None])**2, axis=2)
    vy = np.mean((y - my[:, :, None])**2, axis=2)
    cov = np.mean((x - mx[:, :, None]) * (y - my[:, :, None]), axis=2)
    denom = (vx + vy) * (mx**2 + my**2)
    good = denom > 0
    q = np.where(good, np.divide(4.0 * cov * (mx * my), denom,
                                 out=np.zeros_like(denom), where=good), 0.0)
    identical = np.all(x == y, axis=2)
    q = np.where(good, q, np.where(identical, 1.0, 0.0))
    return float(q.mean())


def qnr_reference(ms, fused, pan_h, pan_l, bl):
    """The QNR double loop over independent Q evaluations."""
    nb = ms.bands
    acc = 0.0
    for i in range(nb):
        for j in range(nb):
            if i != j:
                d = (q_index_reference(ms.band(i), ms.band(j), bl)
                     - q_index_reference(fused.band(i), fused.band(j), bl))
                acc += abs(d)
    d_lambda = min(acc / (nb * (nb - 1)), 1.0)
    acc = 0.0
    for b in range(nb):
        d = (q_index_reference(fused.band(b), pan_h, bl)
             - q_index_reference(ms.band(b), pan_l, bl))
        acc += abs(d)
    d_s = min(acc / nb, 1.0)
    return (1.0 - d_lambda) * (1.0 - d_s), d_lambda, d_s


def random_planes(seed, shape, levels):
    """Uniform samples, or a few levels so that blocks are often constant
    or equal across bands."""
    r = np.random.default_rng(seed)
    if levels:
        return r.integers(0, levels, shape) / levels
    return r.random(shape)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bands=st.integers(2, 4),
       low=st.tuples(st.integers(2, 11), st.integers(2, 11)),
       ratio=st.integers(1, 4), bl=st.integers(2, 5),
       levels=st.sampled_from([0, 2, 3]))
def test_qnr_matches_pairwise_q_reference(seed, bands, low, ratio, bl,
                                          levels):
    h, w = max(low[0], bl), max(low[1], bl)
    ms = image_of(random_planes(seed, (h, w, bands), levels))
    fused = image_of(random_planes(seed + 1,
                                         (h * ratio, w * ratio, bands),
                                         levels))
    pan_h = random_planes(seed + 2, (h * ratio, w * ratio), levels)
    pan_l = random_planes(seed + 3, (h, w), levels)
    want = qnr_reference(ms, fused, pan_h, pan_l, bl)
    assert (at_budgets(qnr, ms, fused, pan_image(pan_h), pan_image(pan_l),
                       block_size=bl)
            == [want] * len(BUDGETS))
    want = q_index_reference(fused.band(0), fused.band(1), bl)
    assert (at_budgets(q_index, fused.band(0), fused.band(1), bl)
            == [want] * len(BUDGETS))


def q4_reference_map(img_a, img_b, bl):
    """Per-block Q4 with every block moment computed in place."""
    za = [block_view(img_a.band(c), bl) for c in range(4)]
    zb = [block_view(img_b.band(c), bl) for c in range(4)]
    ma = [z.mean(axis=2) for z in za]
    mb = [z.mean(axis=2) for z in zb]
    da = [z - m[:, :, None] for z, m in zip(za, ma)]
    db = [z - m[:, :, None] for z, m in zip(zb, mb)]
    a0, a1, a2, a3 = da
    b0, b1, b2, b3 = db[0], -db[1], -db[2], -db[3]
    prod = (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)
    cov_mod = np.sqrt(sum(p.mean(axis=2)**2 for p in prod))
    va = sum(np.mean(d**2, axis=2) for d in da)
    vb = sum(np.mean(d**2, axis=2) for d in db)
    na2 = sum(m**2 for m in ma)
    nb2 = sum(m**2 for m in mb)
    denom = (va + vb) * (na2 + nb2)
    good = denom > 0
    q = np.where(good,
                 np.divide(4.0 * cov_mod * np.sqrt(na2 * nb2), denom,
                           out=np.zeros_like(denom), where=good), 0.0)
    identical = np.all([np.all(a == b, axis=2) for a, b in zip(za, zb)],
                       axis=0)
    return np.where(good, q, np.where(identical, 1.0, 0.0))


def q4_reference(img_a, img_b, bl):
    """Q4, the mean of the per-block reference map."""
    return float(q4_reference_map(img_a, img_b, bl).mean())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(2, 17), st.integers(2, 17)),
       bl=st.integers(2, 5), levels=st.sampled_from([0, 2, 3]),
       shared_bands=st.integers(0, 4))
def test_q4_matches_reference(seed, shape, bl, levels, shared_bands):
    h, w = max(shape[0], bl), max(shape[1], bl)
    a = random_planes(seed, (h, w, 4), levels)
    b = random_planes(seed + 1, (h, w, 4), levels)
    # equal leading bands give identical blocks where the rest are flat
    b[:, :, :shared_bands] = a[:, :, :shared_bands]
    img_a, img_b = image_of(a), image_of(b)
    assert (at_budgets(q4, img_a, img_b, bl)
            == [q4_reference(img_a, img_b, bl)] * len(BUDGETS))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(2, 17), st.integers(2, 17)),
       bl=st.integers(2, 5), levels=st.sampled_from([0, 2, 3]))
def test_q4_blocks_match_reference(seed, shape, bl, levels):
    # per block, where a term summed out of order shows far more often
    # than in the mean over all blocks
    h, w = max(shape[0], bl), max(shape[1], bl)
    img_a = image_of(random_planes(seed, (h, w, 4), levels))
    img_b = image_of(random_planes(seed + 1, (h, w, 4), levels))
    # one strip at the default budget: the map covers the whole image
    rows = next(spectral._strips([img_a, img_b], h // bl * bl, bl))
    mom = [spectral._block_moments(r, bl) for r in rows]
    assert np.array_equal(spectral._q4_map(mom[:4], mom[4:]),
                          q4_reference_map(img_a, img_b, bl))


@pytest.mark.parametrize("width", [8, 20])
def test_q_index_leaves_writeable_planes_alone(rng, width):
    # at width == block size the block view is the plane itself, so the
    # moments must centre a copy; wider planes centre their block copy
    a, b = rng.random((16, width)), rng.random((16, width))
    a_before, b_before = a.copy(), b.copy()
    want = q_index_reference(a_before, b_before, 8)
    assert q_index(a, b, 8) == want
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def test_block_size_below_two_refused(random_image):
    img = random_image(8, 8, 4)
    for call in (lambda: q4(img, img, block_size=1),
                 lambda: q_index(img.band(0), img.band(0), 1)):
        with pytest.raises(InputError, match="block_size must be >= 2"):
            call()


def strip_planes(seed, shape, levels, flat_cols, shared):
    """Two arrays of random_planes whose first flat_cols columns are
    constant: the same constant in both when shared, so that Q scores
    those blocks, in every strip, by its identical-blocks fallback."""
    a = random_planes(seed, shape, levels)
    b = random_planes(seed + 1, shape, levels)
    a[:, :flat_cols] = 0.5
    b[:, :flat_cols] = 0.5 if shared else 0.25
    return a, b


strip_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    # block rows of several strips, and heights and widths that leave a
    # partial edge block
    shape=st.tuples(st.integers(2, 29), st.integers(2, 23)),
    bl=st.integers(2, 5), levels=st.sampled_from([0, 2, 3]),
    flat_cols=st.integers(0, 6), shared=st.booleans())


@settings(max_examples=40, deadline=None)
@given(**strip_cases)
def test_q_index_and_q4_match_across_strip_budgets(seed, shape, bl, levels,
                                                   flat_cols, shared):
    h, w = max(shape[0], bl), max(shape[1], bl)
    a, b = strip_planes(seed, (h, w, 4), levels, flat_cols, shared)
    img_a, img_b = image_of(a), image_of(b)
    one, per_row = at_budgets(q4, img_a, img_b, bl)
    assert one == per_row
    one, per_row = at_budgets(q_index, a[:, :, 0], b[:, :, 0], bl)
    assert one == per_row


@settings(max_examples=40, deadline=None)
@given(**strip_cases, same=st.booleans())
def test_q_index_is_symmetric(seed, shape, bl, levels, flat_cols, shared,
                              same):
    # bit for bit, at every budget, on degenerate blocks (the flat
    # columns, identical when shared) and on identical planes
    h, w = max(shape[0], bl), max(shape[1], bl)
    a, b = strip_planes(seed, (h, w), levels, flat_cols, shared)
    if same:
        b = a.copy()
    assert (bits(at_budgets(q_index, a, b, bl))
            == bits(at_budgets(q_index, b, a, bl)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_q_index_refuses_non_finite(rng, bad):
    a, b = rng.random((16, 16)), rng.random((16, 16))
    a[5, 3] = bad
    for pair in ((a, b), (b, a)):
        with pytest.raises(InputError, match="non-finite samples"):
            q_index(*pair, 8)


@settings(max_examples=40, deadline=None)
@given(**strip_cases, ratio=st.integers(1, 3), bands=st.integers(2, 4))
def test_qnr_matches_across_strip_budgets(seed, shape, bl, levels,
                                          flat_cols, shared, ratio, bands):
    h, w = max(shape[0], bl), max(shape[1], bl)
    ms, pan_l = strip_planes(seed, (h, w, bands), levels, flat_cols, shared)
    fused, pan_h = strip_planes(seed + 2, (h * ratio, w * ratio, bands),
                                levels, flat_cols * ratio, shared)
    one, per_row = at_budgets(qnr, image_of(ms), image_of(fused),
                              pan_image(pan_h[:, :, 0]),
                              pan_image(pan_l[:, :, 0]), block_size=bl)
    assert one == per_row


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(1, 19), st.integers(1, 13)),
       bands=st.integers(1, 4), levels=st.sampled_from([0, 2, 3]),
       zero_from=st.integers(1, 19))
def test_sam_matches_across_strip_budgets(seed, shape, bands, levels,
                                          zero_from):
    # zero spectral vectors only in rows past the first: a later strip
    # once every strip is one pixel row
    a = random_planes(seed, shape + (bands,), levels)
    b = random_planes(seed + 1, shape + (bands,), levels)
    a[zero_from:, ::2] = 0.0
    b[zero_from:, 1::3] = 0.0
    a[0, 0] = b[0, 0] = 1.0
    one, per_row = at_budgets(sam_mean, image_of(a), image_of(b))
    assert one == per_row


def sam_reference(img_a, img_b):
    """Mean SAM in degrees from the per-pixel formula on the (h, w, bands)
    views, over the pixels whose spectral vectors are both nonzero."""
    a, b = (np.moveaxis(img.planes, 0, 2) for img in (img_a, img_b))
    dot = np.sum(a * b, axis=2)
    na = np.linalg.norm(a, axis=2)
    nb = np.linalg.norm(b, axis=2)
    ok = (na > 0) & (nb > 0)
    cosv = np.clip(dot[ok] / (na[ok] * nb[ok]), -1.0, 1.0)
    return float(np.degrees(np.arccos(cosv)).mean())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(1, 19), st.integers(1, 13)),
       bands=st.integers(1, 4), levels=st.sampled_from([0, 2, 3]),
       zero_from=st.integers(1, 19), scale=st.integers(-6, 6))
def test_sam_matches_pixel_reference(seed, shape, bands, levels, zero_from,
                                     scale):
    # samples in [-0.2, 1.2], band 0 scaled by 10**scale so that the band
    # order of the sums shows; zero spectral vectors only past the first
    # row, so in later strips once every strip is one pixel row
    a = 1.4 * random_planes(seed, shape + (bands,), levels) - 0.2
    b = 1.4 * random_planes(seed + 1, shape + (bands,), levels) - 0.2
    a[:, :, 0] *= 10.0**scale
    a[zero_from:, ::2] = 0.0
    b[zero_from:, 1::3] = 0.0
    a[0, 0] = b[0, 0] = 1.0
    img_a, img_b = image_of(a), image_of(b)
    assert (at_budgets(sam_mean, img_a, img_b)
            == [sam_reference(img_a, img_b)] * len(BUDGETS))


@pytest.mark.parametrize("budget", BUDGETS)
def test_sam_all_zero_refused_at_every_budget(budget):
    a = np.ones((5, 3, 2))
    a[2:] = 0.0
    b = np.ones((5, 3, 2))
    b[:2] = 0.0
    with mock.patch.object(raster, "STRIP_BYTES", budget):
        with pytest.raises(DegeneracyError, match="zero spectral vector"):
            sam_mean(image_of(a), image_of(b))


MiB = 1 << 20


@pytest.mark.parametrize("metric", [q4, sam_mean])
def test_classic_metric_footprint(rng, metric):
    # one 512x512 4-band pair is 16 MiB; the metric holds a strip of each
    # and its per-block or per-pixel maps, not whole-image copies
    a = image_of(rng.random((512, 512, 4)))
    b = image_of(rng.random((512, 512, 4)))
    _, peak = traced_peak(metric, a, b)
    assert peak < 10 * MiB


def test_summary_stats_footprint(rng):
    # beside the centred band, which it only reads, one band-sized
    # temporary: the squares, their squares, the cubes. The levels' intp
    # copy for the entropy counts is freed before it is made. The band
    # and its centred copy in one call held 2.0 planes
    band = rng.random((256, 256))
    levels = quantize_gray_levels(band, 32)
    centred, mean = centre(band)
    _, peak = traced_peak(summary_stats, centred, mean, levels)
    assert peak < 1.1 * band.nbytes, peak / band.nbytes
    # pcc holds one temporary too: the other band centred, then the product
    stats = summary_stats(centred, mean, levels)
    _, peak = traced_peak(pcc, band, centred, stats, stats)
    assert peak < 1.1 * band.nbytes, peak / band.nbytes


@pytest.mark.parametrize("scale", [1e150, 1e-160, 1e300])
def test_scaled_moments_footprint(rng, scale):
    # where the powers of the deviations under- or overflow, beside the
    # centred band two temporaries: the scaled deviations, then their
    # cubes, and their squares, then their fourth powers. The absolute
    # deviations, a third, held 3.0 planes; the moments are the same bits
    band = rng.random((256, 256)) * scale
    levels = quantize_gray_levels(band, 32)
    centred, mean = centre(band)
    got, peak = traced_peak(summary_stats, centred, mean, levels)
    assert peak < 2.1 * band.nbytes, peak / band.nbytes
    assert bits(got) == bits(earlier_summary_stats(band, levels))


class RowLog(raster.Image):
    """A size x size image of zeros that logs the row ranges read."""

    def __init__(self, bands, size, seen):
        self.shape, self.seen = (bands, size, size), seen

    def rows(self, b, start, stop):
        self.seen.append((start, stop))
        return np.zeros((stop - start, self.width))


@pytest.mark.parametrize("planes, size, rows", [
    (5, 1024, 48),   # qnr: 4 bands and the pan, at the fused scale
    (5, 256, 200),   # and at the MS scale
    (8, 512, 64),    # q4 and SAM of two 4-band 512^2 images
])
def test_moment_strip_heights(planes, size, rows):
    # the strips the benchmark's qnr and eval run; qnr's heights set its
    # peak RSS through glibc's heap layout, so they stay as they are
    seen = []
    images = [RowLog(4, size, seen), RowLog(planes - 4, size, seen)]
    for _ in spectral._strips(images, size, 8):
        pass
    starts = sorted(set(seen))
    assert all(stop - start == rows for start, stop in starts[:-1])
    assert 0 < starts[-1][1] - starts[-1][0] <= rows
    assert len(seen) == planes * len(starts)


def test_qnr_footprint(rng):
    # a 1024x1024 fused image is 32 MiB: stay within half of one
    ms = image_of(rng.random((256, 256, 4)))
    fused = image_of(rng.random((1024, 1024, 4)))
    _, peak = traced_peak(qnr, ms, fused, pan_image(rng.random((1024, 1024))),
                          pan_image(rng.random((256, 256))))
    assert peak < 16 * MiB
