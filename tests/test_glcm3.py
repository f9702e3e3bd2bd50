from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panqa import raster
from panqa.errors import DegeneracyError, InputError
from panqa.glcm3 import (Glcm3, glcm3_features, quantize_gray_levels,
                         tims_glcm)
from panqa.spectral import centre, summary_stats


def oracle_counts(labels, radii, gl):
    """Naive triple enumeration, independent of the accumulator.

    Walks every valid center; for each radius collects the full square
    ring, forms unordered antipodal position pairs via a set, and counts
    (center level, low level, high level) triples.
    """
    h, w = labels.shape
    rmax = max(radii)
    counts = np.zeros((gl, gl, gl), dtype=np.int64)
    for cy in range(rmax, h - rmax):
        for cx in range(rmax, w - rmax):
            center = labels[cy, cx]
            for r in radii:
                ring = {(dy, dx)
                        for dy in range(-r, r + 1)
                        for dx in range(-r, r + 1)
                        if max(abs(dy), abs(dx)) == r}
                pairs = {frozenset([p, (-p[0], -p[1])]) for p in ring}
                for pair in pairs:
                    p, q = sorted(pair)
                    g1 = labels[cy + p[0], cx + p[1]]
                    g2 = labels[cy + q[0], cx + q[1]]
                    lo, hi = min(g1, g2), max(g1, g2)
                    counts[center, lo, hi] += 1
    return counts


@st.composite
def label_planes(draw):
    """(labels, radii, gl): strictly increasing radii, a plane with at
    least one valid center, gl in [2, 48]."""
    radii = tuple(sorted(draw(st.sets(st.integers(1, 4), min_size=1,
                                      max_size=3))))
    gl = draw(st.integers(2, 48))
    side = 2 * radii[-1] + 1
    shape = (draw(st.integers(side, side + 6)),
             draw(st.integers(side, side + 6)))
    labels = draw(arrays(np.int64, shape, elements=st.integers(0, gl - 1)))
    return labels, radii, gl


class TestQuantize:
    def test_constant(self):
        # a constant band bins by its value on the fixed scale, not to 0
        for value, level in ((5.0, 31), (0.3, 9), (0.0, 0), (-2.0, 0)):
            assert np.array_equal(
                quantize_gray_levels(np.full((3, 3), value), 32),
                np.full((3, 3), level, dtype=np.uint8))

    def test_top_clamp(self):
        band = np.array([[0.0, 1.0]])
        assert quantize_gray_levels(band, 32)[0, 1] == 31

    def test_hand_binning(self):
        # a sample on a threshold k/4 has not exceeded it
        band = np.array([[0.0, 0.25, 0.26, 0.5, 0.75, 0.76, 1.0]])
        assert (quantize_gray_levels(band, 4).ravel().tolist()
                == [0, 0, 1, 1, 2, 3, 3])

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (4, 0)])
    def test_empty_band(self, shape):
        # an input error, not an IndexError from an empty strip list
        with pytest.raises(InputError, match="empty band"):
            quantize_gray_levels(np.empty(shape), 32)

    def test_gl_too_small(self):
        with pytest.raises(InputError, match=r"gl must be in \[2, 256\]"):
            quantize_gray_levels(np.ones((2, 2)), 1)

    @pytest.mark.parametrize("gl", [257, 300, 70000])
    def test_gl_out_of_range(self, gl):
        # a uint8 map holds at most 256 levels; refused before binning,
        # with the message tims_glcm and EvalOptions give
        with pytest.raises(InputError, match=r"gl must be in \[2, 256\]"):
            quantize_gray_levels(np.ones((2, 2)), gl)

    @pytest.mark.parametrize("gl, dtype", [(2, np.uint8), (256, np.uint8),
                                           (257, np.uint16)])
    def test_narrowest_type(self, gl, dtype):
        band = np.array([[0.0, 0.3], [0.7, 1.0]])
        if dtype != np.uint8:
            # a gl whose levels need a wider map than uint8 is refused
            with pytest.raises(InputError, match=r"gl must be in \[2, 256\]"):
                quantize_gray_levels(band, gl)
            return
        levels = quantize_gray_levels(band, gl)
        assert levels.dtype == dtype
        # the top sample is clamped to gl - 1 before narrowing, not wrapped
        assert levels[1, 1] == gl - 1
        assert quantize_gray_levels(np.ones((2, 2)), gl).dtype == dtype

    @pytest.mark.parametrize("gl", [2, 32, 64, 256, 257])
    def test_narrow_map_counts_as_int64(self, rng, gl):
        band = rng.random((24, 24))
        if gl > 256:  # no narrow map beyond uint8: refused before binning
            with pytest.raises(InputError, match=r"gl must be in \[2, 256\]"):
                quantize_gray_levels(band, gl)
            return
        levels = quantize_gray_levels(band, gl)
        wide = levels.astype(np.int64)
        assert (summary_stats(*centre(band), levels)
                == summary_stats(*centre(band), wide))
        if gl <= 64:  # the (gl, gl, gl) table is 134 MB at gl 256
            assert np.array_equal(tims_glcm(levels, gl=gl).counts,
                                  tims_glcm(wide, gl=gl).counts)


def whole_plane_levels(band, gl):
    """The binning formula through one band-sized float plane:
    clip(ceil(gl * x) - 1, 0, gl - 1)."""
    levels = np.ceil(gl * np.asarray(band, dtype=np.float64)) - 1
    return np.clip(levels, 0, gl - 1).astype(np.uint8)


@settings(max_examples=150, deadline=None)
@given(band=arrays(np.float64, st.tuples(st.integers(1, 30),
                                         st.integers(1, 30)),
                   elements=st.one_of(st.just(0.5), st.floats(-0.5, 1.5),
                                      st.floats(-1e6, 1e6))),
       gl=st.integers(2, 256), strip=st.integers(2, 64))
# the strip quantize_gray_levels uses, over two and a bit strips
@example(band=np.random.default_rng(0).random((181, 363)), gl=256,
         strip=raster.STRIP_BYTES // 8)
def test_strip_binning_equals_whole_plane(band, gl, strip):
    # sizes that are not a multiple of the strip: a part strip at the end
    assume(band.size % strip)
    with mock.patch.object(raster, "STRIP_BYTES", 8 * strip):
        got = quantize_gray_levels(band, gl)
    assert got.dtype == np.uint8
    assert np.array_equal(got, whole_plane_levels(band, gl))


def thresholds_exceeded(x, n):
    """How many of the thresholds k/n, k = 1 .. n-1, each sample exceeds,
    compared as n * x > k."""
    return np.sum(n * x[:, None] > np.arange(1, n), axis=1)


@pytest.mark.parametrize("n", [2, 4, 5, 7, 31, 32, 256])
@settings(max_examples=40, deadline=None)
@given(drawn=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=64))
def test_levels_count_thresholds_exceeded(n, drawn):
    # every threshold k/n and the floats either side of it, as well
    k = np.arange(1, n) / n
    x = np.concatenate([drawn, k, np.nextafter(k, -1.0),
                        np.nextafter(k, 2.0)])
    levels = quantize_gray_levels(x, n)
    assert np.array_equal(levels, thresholds_exceeded(x, n))
    if n & (n - 1) == 0:
        # n * x and k/n are exact for a power of two: x > k/n itself
        assert np.array_equal(levels, np.sum(x[:, None] > k, axis=1))


class TestTimsGlcm:
    def test_constant_plane(self):
        labels = np.zeros((7, 7), dtype=np.int64)
        m = tims_glcm(labels, (1, 2, 3), gl=4)
        assert m.counts[0, 0, 0] == m.total_tuples
        contrast, energy, lne = glcm3_features(m)
        assert (contrast, energy, lne) == (0.0, 1.0, 0.0)

    def test_tuple_count(self):
        labels = np.arange(49).reshape(7, 7) % 5
        m = tims_glcm(labels, (1, 2, 3), gl=5)
        # one valid center, 4r pairs per radius
        assert m.total_tuples == 1 * (4 + 8 + 12)

    def test_matches_oracle(self, rng):
        radii = (1, 2, 3)
        for trial in range(10):
            gl = (4, 8)[trial % 2]
            labels = rng.integers(0, gl, size=(16, 16))
            m = tims_glcm(labels, radii, gl=gl)
            want = oracle_counts(labels, radii, gl)
            assert np.array_equal(m.counts, want)

    # gl 40 is the largest whose flat triple index fits uint16; 41 is not
    @settings(max_examples=60, deadline=None)
    @given(case=label_planes())
    @example(case=(np.full((7, 7), 39), (1, 2, 3), 40))
    @example(case=(np.full((7, 8), 40), (1, 2, 3), 41))
    def test_matches_oracle_property(self, case):
        labels, radii, gl = case
        m = tims_glcm(labels, radii, gl=gl)
        assert np.array_equal(m.counts, oracle_counts(labels, radii, gl))

    @settings(max_examples=40, deadline=None)
    @given(case=label_planes(), planes=st.sampled_from([0, 1, 2, 3]))
    @example(case=(np.full((7, 8), 40), (1, 2, 3), 41), planes=2)
    @example(case=(np.full((7, 8), 40), (1, 2, 3), 41), planes=1)
    def test_keys_in_work_planes_count_the_same(self, case, planes):
        # each key plane is formed in the work planes' bytes, after the
        # last one laid there, where it fits, else in an array of its own:
        # first the intp plane that np.bincount counts (the flat keys
        # themselves above gl 40), then the flat keys, the centre term
        # and the map times gl. The counts are the same
        labels, radii, gl = case
        work = np.empty((planes, *labels.shape))
        work.view(np.uint8).fill(255)
        m = tims_glcm(labels, radii, gl=gl, work=work)
        assert np.array_equal(m.counts, oracle_counts(labels, radii, gl))
        h, w = labels.shape
        side = 2 * radii[-1]
        centers = (h - side) * (w - side)
        key = np.uint16 if gl**3 <= 65536 else np.intp
        layout = [(key, centers), (key, centers), (key, h * w)]
        if key is np.uint16:
            layout.insert(0, (np.intp, centers))
        at = 0
        for dtype, size in layout:
            if at + size * np.dtype(dtype).itemsize <= work.nbytes:
                laid = np.ndarray(size, dtype, buffer=work, offset=at)
                # every key is below gl**3, so none is all ones
                assert (laid != np.invert(dtype(0))).all()
                at += laid.nbytes
        assert (work.view(np.uint8).ravel()[at:] == 255).all()

    def test_normalization(self, rng):
        labels = rng.integers(0, 8, size=(12, 12))
        m = tims_glcm(labels, (1, 2), gl=8)
        assert m.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        d, r, c = np.nonzero(m.counts)
        assert np.all(r <= c)

    def test_rotation_isotropy(self, rng):
        labels = rng.integers(0, 8, size=(15, 15))
        base = glcm3_features(tims_glcm(labels, gl=8))
        rot = glcm3_features(tims_glcm(np.rot90(labels), gl=8))
        for a, b in zip(base, rot):
            assert a == pytest.approx(b, rel=1e-9)

    def test_too_small(self):
        with pytest.raises(InputError, match="too small"):
            tims_glcm(np.zeros((4, 4), dtype=np.int64), (1, 2, 3),
                      gl=4)
        with pytest.raises(InputError, match="labels must be a 2-D plane"):
            tims_glcm(np.zeros((2, 7, 7), dtype=np.int64), gl=4)
        for value in (-1, 4):
            labels = np.zeros((7, 7), dtype=np.int64)
            labels[3, 3] = value
            with pytest.raises(InputError, match=r"labels outside \[0, gl\)"):
                tims_glcm(labels, gl=4)

    @pytest.mark.parametrize("labels", [
        np.full((7, 7), 2.7),         # would count as level 2
        np.full((7, 7), np.nan),      # passes the [0, gl) check
        np.zeros((7, 7), dtype=np.float32),
        np.zeros((7, 7), dtype=complex),
    ])
    def test_non_integer_labels_refused(self, labels):
        with pytest.raises(InputError, match="labels must be bool or "
                                             "integer"):
            tims_glcm(labels, gl=4)

    def test_bool_labels_count_as_levels_0_and_1(self):
        labels = np.arange(49).reshape(7, 7) % 2
        assert np.array_equal(tims_glcm(labels.astype(bool), gl=4).counts,
                              oracle_counts(labels, (1, 2, 3), 4))

    def test_bad_radii(self):
        labels = np.zeros((7, 7), dtype=np.int64)
        for radii in ((2, 1), (0, 1), ()):
            with pytest.raises(InputError, match="strictly increasing"):
                tims_glcm(labels, radii, gl=4)

    @pytest.mark.parametrize("gl", [1, 257, 70000])
    def test_gl_out_of_range(self, gl):
        # refused before the (gl, gl, gl) count table is allocated
        labels = np.zeros((7, 7), dtype=np.int64)
        with pytest.raises(InputError, match=r"gl must be in \[2, 256\]"):
            tims_glcm(labels, gl=gl)


class TestFeatures:
    def test_single_offdiagonal_cell(self):
        counts = np.zeros((4, 4, 4), dtype=np.int64)
        counts[2, 1, 3] = 5
        contrast, energy, lne = glcm3_features(Glcm3(gl=4, counts=counts))
        assert contrast == pytest.approx(6.0)   # 1 + 4 + 1
        assert energy == pytest.approx(1.0)
        assert lne == pytest.approx(14.0)       # 4 + 1 + 9

    def test_two_cell_energy(self):
        counts = np.zeros((4, 4, 4), dtype=np.int64)
        counts[0, 0, 0] = 3
        counts[1, 1, 1] = 3
        _, energy, _ = glcm3_features(Glcm3(gl=4, counts=counts))
        assert energy == pytest.approx(0.5)

    def test_feature_bounds(self, rng):
        gl = 8
        labels = rng.integers(0, gl, size=(16, 16))
        contrast, energy, lne = glcm3_features(tims_glcm(labels, gl=gl))
        assert contrast >= 0
        assert 0 < energy <= 1
        assert 0 <= lne <= 3 * (gl - 1)**2

    def test_empty_matrix_rejected(self):
        with pytest.raises(DegeneracyError):
            Glcm3(gl=4, counts=np.zeros((4, 4, 4), dtype=np.int64))
        with pytest.raises(InputError, match=r"counts must be \(gl, gl, gl\)"):
            Glcm3(gl=4, counts=np.ones((4, 4, 3), dtype=np.int64))
        counts = np.zeros((4, 4, 4), dtype=np.int64)
        counts[0, 2, 1] = 1   # row 2 > col 1
        with pytest.raises(InputError, match="lower-triangular"):
            Glcm3(gl=4, counts=counts)


class TestCost:
    def test_matches_oracle_features(self, rng):
        for band in (rng.random((16, 16)), rng.random((16, 16))):
            counts = oracle_counts(quantize_gray_levels(band, 4), (1, 2, 3),
                                   4)
            p = counts / counts.sum()
            d, r, c = np.indices(p.shape, sparse=True)
            want = (
                float(np.sum(((d - r)**2 + (r - c)**2 + (d - c)**2) * p)),
                float(np.sum(p**2)),
                float(np.sum((d**2 + r**2 + c**2) * p)))
            levels = quantize_gray_levels(band, 4)
            assert glcm3_features(tims_glcm(levels, gl=4)) == want
