import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panqa.errors import DegeneracyError, InputError
from panqa.raster import MultibandImage
from panqa.resample import upsample
from panqa.spectral import (BlockSpec, ergas, inverse_pcc_cost, mdb_cost,
                            pcc, q4, q_index, qnr, sam_mean, summary_stats)

EVEN_PERMS = [p for p in permutations(range(4))
              if sum(1 for i in range(4) for j in range(i)
                     if p[j] > p[i]) % 2 == 0]


class TestSummaryStats:
    def test_constant_band(self):
        s = summary_stats(np.full((4, 4), 2.0))
        assert (s.std, s.skewness, s.kurtosis, s.entropy_bits) == (0, 0, 0, 0)
        assert s.mean == 2.0

    def test_equiprobable_entropy(self):
        # exactly one sample per bin of a 32-bin histogram -> 5 bits
        band = np.linspace(0.0, 1.0, 32)
        s = summary_stats(band, gl=32)
        assert s.entropy_bits == pytest.approx(5.0, abs=1e-12)

    def test_two_point_moments(self):
        s = summary_stats(np.array([0.0, 0.0, 1.0, 1.0]))
        assert s.mean == 0.5
        assert s.std == 0.5
        assert s.skewness == 0.0
        assert s.kurtosis == 1.0

    def test_entropy_bounds(self, rng):
        for _ in range(20):
            s = summary_stats(rng.random(100), gl=32)
            assert 0.0 <= s.entropy_bits <= 5.0

    def test_gl_too_small(self):
        with pytest.raises(InputError):
            summary_stats(np.ones(4), gl=1)


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
    s = summary_stats(band)
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


class TestPcc:
    def test_self(self, rng):
        x = rng.random(50)
        assert pcc(x, x) == pytest.approx(1.0)

    def test_affine_insensitive(self, rng):
        x = rng.random(50)
        assert pcc(x, 3.0 * x + 2.0) == pytest.approx(1.0)

    def test_anticorrelation(self):
        assert pcc(np.array([1.0, 2, 3]),
                   np.array([3.0, 2, 1])) == pytest.approx(-1.0)

    def test_constant_raises(self):
        with pytest.raises(DegeneracyError, match="zero variance"):
            pcc(np.ones(4), np.arange(4.0))

    def test_inverse_cost_zero_on_identity(self, random_image):
        img = random_image()
        assert inverse_pcc_cost(img, img) == pytest.approx(0.0, abs=1e-12)


class TestSam:
    def test_identical(self, random_image):
        img = random_image()
        mean_deg, amap = sam_mean(img, img)
        assert mean_deg == pytest.approx(0.0, abs=1e-6)
        assert amap.shape == (16, 16)

    def test_orthogonal(self):
        a = MultibandImage(np.array([[[1.0, 0.0]]]))
        b = MultibandImage(np.array([[[0.0, 1.0]]]))
        assert sam_mean(a, b)[0] == pytest.approx(90.0)

    def test_45_degrees(self):
        a = MultibandImage(np.array([[[1.0, 1.0]]]))
        b = MultibandImage(np.array([[[1.0, 0.0]]]))
        assert sam_mean(a, b)[0] == pytest.approx(45.0)

    def test_scale_invariance(self, random_image):
        a, b = random_image(), random_image()
        base = sam_mean(a, b)[0]
        scaled = sam_mean(a, MultibandImage(7.3 * b.samples))[0]
        assert scaled == base

    def test_zero_pixels_excluded(self):
        a = MultibandImage(np.array([[[1.0, 1.0], [0.0, 0.0]]]))
        b = MultibandImage(np.array([[[1.0, 0.0], [1.0, 1.0]]]))
        mean_deg, amap = sam_mean(a, b)
        assert np.isnan(amap[0, 1])
        assert mean_deg == pytest.approx(45.0)


class TestErgas:
    def test_identity(self, random_image):
        img = random_image()
        assert ergas(img, img, 4) == 0.0

    def test_hand_value(self):
        ref = MultibandImage(np.full((4, 4, 1), 100.0))
        test = MultibandImage(np.full((4, 4, 1), 110.0))
        assert ergas(ref, test, 4) == pytest.approx(2.5)

    def test_residual_linearity(self, random_image):
        ref = random_image()
        resid = 0.01 * np.random.default_rng(3).standard_normal(
            ref.samples.shape)
        e1 = ergas(ref, MultibandImage(ref.samples + resid), 4)
        e2 = ergas(ref, MultibandImage(ref.samples + 3.0 * resid), 4)
        assert e2 == pytest.approx(3.0 * e1, rel=1e-9)

    def test_zero_mean_band(self):
        ref = MultibandImage(np.array([[[-1.0], [1.0]]]))
        with pytest.raises(DegeneracyError, match="zero reference mean"):
            ergas(ref, ref, 4)

    def test_factor_override(self, random_image):
        ref, test = random_image(), random_image()
        assert (ergas(ref, test, 4, factor=0.5)
                == pytest.approx(2.0 * ergas(ref, test, 4), rel=1e-12))


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
            q_index(np.ones((4, 4)), np.ones((4, 4)), BlockSpec(8))


class TestQ4:
    def test_identical(self, random_image):
        img = random_image(16, 16, 4)
        assert q4(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_random_pairs(self, rng):
        for _ in range(200):
            a = MultibandImage(rng.random((8, 8, 4)))
            b = MultibandImage(rng.random((8, 8, 4)))
            v = q4(a, b)
            assert 0.0 <= v <= 1.0

    def test_scaling_decreases(self, rng):
        a = MultibandImage(rng.random((8, 8, 4)) + 0.5)
        b = MultibandImage(a.samples + 0.05 * rng.random((8, 8, 4)))
        assert q4(a, MultibandImage(2.0 * b.samples)) < q4(a, b)

    def test_even_band_permutation_invariance(self, rng):
        a = MultibandImage(rng.random((16, 16, 4)))
        b = MultibandImage(a.samples + 0.1 * rng.random((16, 16, 4)))
        base = q4(a, b)
        for perm in EVEN_PERMS:
            pa = MultibandImage(a.samples[:, :, list(perm)])
            pb = MultibandImage(b.samples[:, :, list(perm)])
            assert abs(q4(pa, pb) - base) < 1e-9

    def test_band_count_checked(self, random_image):
        with pytest.raises(InputError):
            q4(random_image(8, 8, 3), random_image(8, 8, 3))


class TestQnr:
    def block_constant_pair(self, rng, bl=2, ratio=4):
        # piecewise-constant low-resolution images on the BL grid make the
        # replicated high-resolution blocks degenerate in exactly the same
        # pattern, so both distortions vanish
        ms = MultibandImage(np.repeat(np.repeat(
            rng.random((4, 4, 4)), bl, axis=0), bl, axis=1))
        pan_l = np.repeat(np.repeat(rng.random((4, 4)), bl, axis=0),
                          bl, axis=1)
        fused = upsample(ms, ratio, "nearest")
        pan_h = np.repeat(np.repeat(pan_l, ratio, axis=0), ratio, axis=1)
        return ms, fused, pan_h, pan_l

    def test_zero_distortion_construction(self, rng):
        ms, fused, pan_h, pan_l = self.block_constant_pair(rng)
        value, d_lambda, d_s = qnr(ms, fused, pan_h, pan_l,
                                   blocks=BlockSpec(2))
        assert d_s == pytest.approx(0.0, abs=1e-9)
        assert d_lambda == pytest.approx(0.0, abs=1e-9)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_bounds_random(self, rng):
        ms = MultibandImage(rng.random((16, 16, 3)))
        fused = MultibandImage(rng.random((32, 32, 3)))
        pan_h = rng.random((32, 32))
        pan_l = rng.random((16, 16))
        value, d_lambda, d_s = qnr(ms, fused, pan_h, pan_l)
        assert 0.0 <= d_lambda <= 1.0
        assert 0.0 <= d_s <= 1.0
        assert 0.0 <= value <= 1.0

    def test_shape_mismatch(self, rng):
        ms = MultibandImage(rng.random((8, 8, 3)))
        fused = MultibandImage(rng.random((16, 16, 3)))
        with pytest.raises(InputError):
            qnr(ms, fused, rng.random((8, 8)), rng.random((8, 8)))
