import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panqa.errors import InputError
from panqa.glcm3 import quantize_gray_levels
from panqa.raster import MultibandImage
from panqa.quantizer import (LEVELS, LabelMapStack, SpectralCoder,
                             binary_contour_cost, cross_aura,
                             post_classification_change_count,
                             quantize_spectral)
from panqa.synth import synth_scene


def image(values):
    """Broadcast a (H, W) plane of reflectances to a 3-band image."""
    plane = np.asarray(values, dtype=np.float64)
    return MultibandImage(np.repeat(plane[None], 3, axis=0))


def drawn_image(rng, shape):
    """The image of a (height, width, bands) draw of rng.random."""
    return MultibandImage(np.moveaxis(rng.random(shape), 2, 0))


def digit_stack_codes(img):
    """(fine, intermediate, coarse) through a (bands, h, w) stack of
    per-band digits, each counting the thresholds 0.25, 0.5 and 0.75 its
    sample exceeds: fine is the base-4 code of the digits d, intermediate
    the base-2 code of the merged digits d // 2, and coarse 1 where more
    than half the bands have d // 2 = 1."""
    digits = np.zeros(img.shape, dtype=np.int64)
    for t in (0.25, 0.5, 0.75):
        digits += img.planes > t
    fine = np.zeros(digits.shape[1:], dtype=np.int64)
    intermediate = np.zeros(digits.shape[1:], dtype=np.int64)
    for d in digits:
        fine = fine * 4 + d
        intermediate = intermediate * 2 + d // 2
    return fine, intermediate, 2 * np.sum(digits // 2, axis=0) > img.bands


def every_digit(bands):
    """An image whose pixels take every combination of the per-band
    digits 0..3 once, at samples 0.1, 0.3, 0.6 and 0.9."""
    grid = np.meshgrid(*[[0.1, 0.3, 0.6, 0.9]] * bands, indexing="ij")
    return MultibandImage(np.stack(grid).reshape(bands, 2**bands, -1))


# samples outside [0, 1], exactly on a threshold, and constant bands
@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9),
                                    st.integers(1, 8)),
              elements=st.one_of(st.sampled_from([0.25, 0.5, 0.75]),
                                 st.floats(-2.0, 3.0))))
def test_fine_code_matches_digit_stack(samples):
    img = MultibandImage(np.moveaxis(samples, 2, 0))
    stack = quantize_spectral(img)
    assert stack.bands == img.bands
    assert stack.fine.dtype == (np.uint8 if img.bands <= 4 else np.uint16)
    for name, want in zip(LEVELS, digit_stack_codes(img)):
        assert np.array_equal(stack.level(name), want)
    assert stack.intermediate.dtype == stack.coarse.dtype == np.uint8


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 9),
                                    st.integers(1, 9)),
              elements=st.floats(-0.5, 1.5)))
def test_fine_digit_is_gray_level_at_four(planes):
    # each band's base-4 digit of the fine code, most significant first
    img = MultibandImage(planes)
    fine = quantize_spectral(img).fine.astype(np.int64)
    for b in range(img.bands):
        digit = fine // 4**(img.bands - 1 - b) % 4
        assert np.array_equal(digit, quantize_gray_levels(img.band(b), 4))


def test_outlier_moves_no_other_pixel():
    # one pixel at 1.6 in every band: the fixed scale bins every other
    # pixel as before, where a min-max scale re-bins them all
    img = synth_scene(0, 64, 64)[0]
    bright = img.planes.copy()
    bright[:, 17, 40] = 1.6
    others = np.ones((64, 64), dtype=bool)
    others[17, 40] = False
    got, want = (quantize_spectral(MultibandImage(p)) for p in (bright,
                                                                img.planes))
    for name in LEVELS:
        assert np.array_equal(got.level(name)[others],
                              want.level(name)[others])
    for b in range(img.bands):
        assert np.array_equal(quantize_gray_levels(bright[b], 32)[others],
                              quantize_gray_levels(img.band(b), 32)[others])


class TestQuantize:
    def test_deterministic(self, rng):
        img = drawn_image(rng, (8, 8, 4))
        a, b = quantize_spectral(img), quantize_spectral(img)
        assert np.array_equal(a.fine, b.fine)
        assert np.array_equal(a.intermediate, b.intermediate)
        assert np.array_equal(a.coarse, b.coarse)

    def test_level_counts(self):
        # every digit combination takes the whole code book of its level
        for bands in range(1, 9):
            stack = quantize_spectral(every_digit(bands))
            for name, size in zip(LEVELS, (4**bands, 2**bands, 2)):
                assert np.array_equal(np.unique(stack.level(name)),
                                      np.arange(size))

    def test_constant_single_label(self):
        stack = quantize_spectral(image(np.full((5, 5), 0.3)))
        for name in ("fine", "intermediate", "coarse"):
            assert np.unique(stack.level(name)).size == 1

    def test_hand_codes(self):
        # per-band digits at 0.1/0.3/0.6/0.9 are 0/1/2/3
        stack = quantize_spectral(image(np.array([[0.1, 0.3], [0.6, 0.9]])))
        assert stack.fine.ravel().tolist() == [0, 21, 42, 63]
        assert stack.intermediate.ravel().tolist() == [0, 0, 7, 7]
        assert stack.coarse.ravel().tolist() == [0, 0, 1, 1]

    def test_merge_tables_consistent(self):
        # the levels nest: a fine base-4 digit d merges to d // 2 of a
        # base-2 code, and coarse is the majority of those merged digits;
        # the 256 pixels take every combination of four bands' digits,
        # so every fine code is checked
        stack = quantize_spectral(every_digit(4))
        fine = stack.fine.astype(int)
        assert sorted(fine.ravel().tolist()) == list(range(256))
        merged = [fine // 4**(3 - b) % 4 // 2 for b in range(4)]
        want = sum(m * 2**(3 - b) for b, m in enumerate(merged))
        assert np.array_equal(stack.intermediate, want)
        assert np.array_equal(stack.coarse, sum(merged) > 2)

    def test_every_band_coded(self, rng):
        # a change in the last of five bands alone changes the fine code
        planes = np.moveaxis(rng.random((6, 6, 5)), 2, 0)
        moved = planes.copy()
        moved[4] = 1.0 - moved[4]
        a, b = (quantize_spectral(MultibandImage(p)) for p in (planes, moved))
        changed = (planes[4] > 0.5) != (moved[4] > 0.5)
        assert np.array_equal(a.intermediate != b.intermediate, changed)
        assert np.any(a.fine != b.fine)

    def test_band_order_relabels(self, rng):
        # permuted bands relabel each level one to one; coarse is the same
        planes = np.moveaxis(rng.random((8, 8, 4)), 2, 0)
        a = quantize_spectral(MultibandImage(planes))
        b = quantize_spectral(MultibandImage(planes[[2, 0, 3, 1]]))
        for name in LEVELS:
            pairs = np.unique(np.stack([a.level(name).ravel(),
                                        b.level(name).ravel()]), axis=1)
            assert pairs.shape[1] == np.unique(a.level(name)).size
            assert pairs.shape[1] == np.unique(b.level(name)).size
        assert np.array_equal(a.coarse, b.coarse)

    def test_band_count_checked(self, rng):
        assert quantize_spectral(drawn_image(rng, (4, 4, 8))).bands == 8
        with pytest.raises(InputError, match="not 9"):
            quantize_spectral(drawn_image(rng, (4, 4, 9)))

    def test_overshoot_codes_as_clipped(self, rng):
        samples = rng.uniform(-1.0, 2.0, (8, 8, 3))
        samples[0, 0] = [-1e6, 1e6, 0.0]
        samples[0, 1] = [1.0, 2.0, -0.5]
        img = MultibandImage(np.moveaxis(samples, 2, 0))
        clipped = MultibandImage(np.moveaxis(np.clip(samples, 0.0, 1.0), 2, 0))
        got, want = quantize_spectral(img), quantize_spectral(clipped)
        for level in LEVELS:
            assert np.array_equal(got.level(level), want.level(level))


class TestChangeCount:
    def test_zero_on_identity(self, rng):
        stack = quantize_spectral(drawn_image(rng, (6, 6, 3)))
        assert post_classification_change_count(stack.coarse,
                                                stack.coarse) == 0

    def test_counts_flipped_pixels(self):
        a = image(np.full((4, 4), 0.1))
        b_vals = np.full((4, 4), 0.1)
        b_vals[1, 1] = 0.9
        b_vals[2, 3] = 0.9
        sa, sb = quantize_spectral(a), quantize_spectral(image(b_vals))
        assert post_classification_change_count(sa.coarse, sb.coarse) == 2
        assert post_classification_change_count(sa.fine, sb.fine) == 2

    def test_level_sensitivity(self):
        # 0.1 vs 0.3 differ at fine but share intermediate/coarse labels
        a = image(np.full((3, 3), 0.1))
        b = image(np.full((3, 3), 0.3))
        sa, sb = quantize_spectral(a), quantize_spectral(b)
        assert post_classification_change_count(sa.fine, sb.fine) == 9
        assert post_classification_change_count(sa.coarse, sb.coarse) == 0

    def test_dimension_mismatch(self, rng):
        sa = quantize_spectral(drawn_image(rng, (4, 4, 3)))
        sb = quantize_spectral(drawn_image(rng, (5, 4, 3)))
        with pytest.raises(InputError) as exc:
            post_classification_change_count(sa.coarse, sb.coarse)
        assert "(4, 4)" in str(exc.value) and "(5, 4)" in str(exc.value)

    def test_stacks_refused(self, rng):
        # the planes of one level, not whole stacks, which would compare
        # as two objects
        stack = quantize_spectral(drawn_image(rng, (4, 4, 3)))
        with pytest.raises(InputError, match="2-D"):
            post_classification_change_count(stack, stack)


def test_label_planes_of_two_shapes_refused():
    fine = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(InputError) as exc:
        LabelMapStack(fine, fine, np.zeros((4, 5), dtype=np.uint8), 3)
    assert "(4, 4)" in str(exc.value) and "(4, 5)" in str(exc.value)


class TestCrossAura:
    def test_constant_is_zero(self):
        plane, mean = cross_aura(quantize_spectral(image(np.full((5, 5),
                                                                 0.4))))
        assert np.array_equal(plane, np.zeros((5, 5), dtype=np.int64))
        assert mean == 0.0

    def test_single_interior_pixel(self):
        vals = np.full((5, 5), 0.1)
        vals[2, 2] = 0.9
        plane, mean = cross_aura(quantize_spectral(image(vals)))
        # the odd pixel differs at all three levels from all 8 neighbors
        assert plane[2, 2] == 24
        for dy, dx in [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1),
                       (1, -1), (1, 0), (1, 1)]:
            assert plane[2 + dy, 2 + dx] == 3
        assert plane.sum() == 24 + 8 * 3
        assert mean == pytest.approx(plane.sum() / 25)

    def test_checkerboard_interior(self):
        yy, xx = np.indices((6, 6))
        vals = np.where((yy + xx) % 2 == 0, 0.1, 0.9)
        plane, _ = cross_aura(quantize_spectral(image(vals)))
        # interior pixels: 4 orthogonal neighbors differ, diagonals match
        assert np.array_equal(plane[1:-1, 1:-1],
                              np.full((4, 4), 12, dtype=np.int64))

    def test_bounds(self, rng):
        plane, mean = cross_aura(
            quantize_spectral(drawn_image(rng, (8, 8, 3))))
        assert plane.min() >= 0 and plane.max() <= 24
        assert 0.0 <= mean <= 24.0

    def test_too_small(self):
        with pytest.raises(InputError, match="3x3"):
            cross_aura(quantize_spectral(image(np.full((2, 2), 0.4))))


@settings(max_examples=60, deadline=None)
@given(arrays(np.uint16, st.tuples(st.integers(3, 8), st.integers(3, 8)),
              elements=st.integers(0, 2)))
def test_aura_counts_each_differing_neighbour(labels):
    # a per-pixel count over the existing 8-neighbours, as the reference
    h, w = labels.shape
    want = np.zeros((h, w), dtype=np.int64)
    for y, x in np.ndindex(h, w):
        for dy, dx in np.ndindex(3, 3):
            ny, nx = y + dy - 1, x + dx - 1
            if (dy, dx) != (1, 1) and 0 <= ny < h and 0 <= nx < w:
                want[y, x] += labels[y, x] != labels[ny, nx]
    plane, mean = cross_aura(LabelMapStack(labels, labels, labels, 1))
    assert np.array_equal(plane, 3 * want)
    assert mean == pytest.approx(3 * want.mean())


class TestBinaryContour:
    def test_zero_on_identity(self, rng):
        stack = quantize_spectral(drawn_image(rng, (6, 6, 3)))
        plane = cross_aura(stack)[0]
        assert binary_contour_cost(plane, plane) == 0.0

    def test_full_disagreement(self):
        yy, xx = np.indices((6, 6))
        checker = np.where((yy + xx) % 2 == 0, 0.1, 0.9)
        sa = cross_aura(quantize_spectral(image(np.full((6, 6), 0.1))))[0]
        sb = cross_aura(quantize_spectral(image(checker)))[0]
        assert binary_contour_cost(sa, sb) == 1.0

    def test_symmetric_and_bounded(self, rng):
        sa = cross_aura(quantize_spectral(
            drawn_image(rng, (8, 8, 3))))[0]
        sb = cross_aura(quantize_spectral(
            drawn_image(rng, (8, 8, 3))))[0]
        cost = binary_contour_cost(sa, sb)
        assert cost == binary_contour_cost(sb, sa)
        assert 0.0 <= cost <= 1.0

    def test_relabeling_invariance(self):
        # swapping the two populated labels leaves the contour unchanged
        yy, xx = np.indices((6, 6))
        checker = np.where((yy + xx) % 2 == 0, 0.1, 0.9)
        swapped = np.where((yy + xx) % 2 == 0, 0.9, 0.1)
        sa = cross_aura(quantize_spectral(image(checker)))[0]
        sb = cross_aura(quantize_spectral(image(swapped)))[0]
        assert binary_contour_cost(sa, sb) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError) as exc:
            binary_contour_cost(np.zeros((4, 4)), np.zeros((3, 4)))
        assert "(4, 4)" in str(exc.value) and "(3, 4)" in str(exc.value)


def test_coder_refuses_empty_band():
    coder = SpectralCoder(2, 0, 5)
    with pytest.raises(InputError, match="empty band"):
        coder.add(np.empty((0, 5)))
