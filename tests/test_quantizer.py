import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panqa.errors import InputError
from panqa.raster import MultibandImage
from panqa.quantizer import (_CODE_BOOK_SIZES, LEVELS, LabelMapStack,
                             binary_contour_cost,
                             cross_aura,
                             post_classification_change_count,
                             quantize_spectral)


def image(values):
    """Broadcast a (H, W) plane of reflectances to a 3-band image."""
    plane = np.asarray(values, dtype=np.float64)
    return MultibandImage(np.repeat(plane[None], 3, axis=0))


def drawn_image(rng, shape):
    """The image of a (height, width, bands) draw of rng.random."""
    return MultibandImage(np.moveaxis(rng.random(shape), 2, 0))


def digit_stack_codes(img):
    """(fine, intermediate, coarse) through a (3, h, w) stack of per-band
    digits, each counting the thresholds its sample exceeds: fine is the
    base-4 code of the digits d, intermediate the base-2 code of the
    merged digits d // 2, and coarse the first band's merged digit."""
    digits = np.zeros((3, img.height, img.width), dtype=np.uint8)
    for t in (0.25, 0.5, 0.75):
        digits += img.planes[:3] > t
    fine = np.zeros(digits.shape[1:], dtype=np.uint8)
    intermediate = np.zeros(digits.shape[1:], dtype=np.uint8)
    for d in digits:
        fine = fine * 4 + d
        intermediate = intermediate * 2 + d // 2
    return fine, intermediate, digits[0] // 2


# samples outside [0, 1], exactly on a threshold, and constant bands
@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9),
                                    st.integers(3, 5)),
              elements=st.one_of(st.sampled_from([0.25, 0.5, 0.75]),
                                 st.floats(-2.0, 3.0))))
def test_fine_code_matches_digit_stack(samples):
    img = MultibandImage(np.moveaxis(samples, 2, 0))
    stack = quantize_spectral(img)
    for name, want in zip(LEVELS, digit_stack_codes(img)):
        assert stack.level(name).dtype == np.uint8
        assert np.array_equal(stack.level(name), want)


class TestQuantize:
    def test_deterministic(self, rng):
        img = drawn_image(rng, (8, 8, 4))
        a, b = quantize_spectral(img), quantize_spectral(img)
        assert np.array_equal(a.fine, b.fine)
        assert np.array_equal(a.intermediate, b.intermediate)
        assert np.array_equal(a.coarse, b.coarse)

    def test_level_counts(self, rng):
        stack = quantize_spectral(drawn_image(rng, (4, 4, 3)))
        assert _CODE_BOOK_SIZES == (64, 8, 2)
        assert stack.fine.max() < 64
        assert stack.intermediate.max() < 8
        assert stack.coarse.max() < 2

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
        # base-2 code, and coarse keeps the leading (first-band) bit;
        # samples at 0.1/0.3/0.6/0.9 give digits 0/1/2/3, and the 64
        # pixels take every combination, so every fine code is checked
        grid = np.meshgrid(*[[0.1, 0.3, 0.6, 0.9]] * 3, indexing="ij")
        stack = quantize_spectral(MultibandImage(
            np.stack(grid).reshape(3, 8, 8)))
        fine = stack.fine.astype(int)
        assert sorted(fine.ravel().tolist()) == list(range(64))
        digits = (fine // 16, fine // 4 % 4, fine % 4)
        want = sum(d // 2 * 2**(2 - b) for b, d in enumerate(digits))
        assert np.array_equal(stack.intermediate, want)
        assert np.array_equal(stack.coarse, stack.intermediate >> 2)
        assert np.array_equal(stack.coarse, digits[0] // 2)

    def test_only_first_three_bands_used(self, rng):
        base = np.moveaxis(rng.random((6, 6, 3)), 2, 0)
        extra = np.concatenate([base,
                                np.moveaxis(rng.random((6, 6, 2)), 2, 0)])
        assert np.array_equal(quantize_spectral(MultibandImage(base)).fine,
                              quantize_spectral(MultibandImage(extra)).fine)

    def test_band_count_checked(self, rng):
        with pytest.raises(InputError):
            quantize_spectral(drawn_image(rng, (4, 4, 2)))

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
        LabelMapStack(fine, fine, np.zeros((4, 5), dtype=np.uint8))
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
