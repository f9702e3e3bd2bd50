import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panqa.errors import DegeneracyError, InputError
from panqa.glcm3 import (Glcm3, RingSpec, band_texture, glcm3_features,
                         quantize_gray_levels, tims_glcm)


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
        assert np.array_equal(quantize_gray_levels(np.full((3, 3), 5.0), 32),
                              np.zeros((3, 3), dtype=np.int64))

    def test_top_clamp(self):
        band = np.array([[0.0, 1.0]])
        assert quantize_gray_levels(band, 32)[0, 1] == 31

    def test_hand_binning(self):
        band = np.array([[0.0, 0.5, 1.0]])
        assert quantize_gray_levels(band, 4).ravel().tolist() == [0, 2, 3]

    def test_gl_too_small(self):
        with pytest.raises(InputError):
            quantize_gray_levels(np.ones((2, 2)), 1)


class TestTimsGlcm:
    def test_constant_plane(self):
        labels = np.zeros((7, 7), dtype=np.int64)
        m = tims_glcm(labels, RingSpec((1, 2, 3)), gl=4)
        assert m.counts[0, 0, 0] == m.total_tuples
        contrast, energy, lne = glcm3_features(m)
        assert (contrast, energy, lne) == (0.0, 1.0, 0.0)

    def test_tuple_count(self):
        labels = np.arange(49).reshape(7, 7) % 5
        m = tims_glcm(labels, RingSpec((1, 2, 3)), gl=5)
        # one valid center, 4r pairs per radius
        assert m.total_tuples == 1 * (4 + 8 + 12)

    def test_matches_oracle(self, rng):
        radii = (1, 2, 3)
        for trial in range(10):
            gl = (4, 8)[trial % 2]
            labels = rng.integers(0, gl, size=(16, 16))
            m = tims_glcm(labels, RingSpec(radii), gl=gl)
            want = oracle_counts(labels, radii, gl)
            assert np.array_equal(m.counts, want)

    # gl 40 is the largest whose flat triple index fits uint16; 41 is not
    @settings(max_examples=60, deadline=None)
    @given(case=label_planes())
    @example(case=(np.full((7, 7), 39), (1, 2, 3), 40))
    @example(case=(np.full((7, 8), 40), (1, 2, 3), 41))
    def test_matches_oracle_property(self, case):
        labels, radii, gl = case
        m = tims_glcm(labels, RingSpec(radii), gl=gl)
        assert np.array_equal(m.counts, oracle_counts(labels, radii, gl))

    def test_normalization(self, rng):
        labels = rng.integers(0, 8, size=(12, 12))
        m = tims_glcm(labels, RingSpec((1, 2)), gl=8)
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
            tims_glcm(np.zeros((4, 4), dtype=np.int64), RingSpec((1, 2, 3)))

    def test_bad_radii(self):
        with pytest.raises(InputError):
            RingSpec((2, 1))
        with pytest.raises(InputError):
            RingSpec((0, 1))
        assert RingSpec((1, 2, 3)).window_size == 7


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
            assert band_texture(band, gl=4) == want
