import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panqa.errors import InputError
from panqa.raster import MultibandImage
from panqa.resample import (MtfKernel, box_kernel, degrade, identity_kernel,
                            mirror_filter, mtf_gaussian_kernel, upsample)


def mirror(n, i):
    if n == 1:
        return 0
    period = 2 * (n - 1)
    i = abs(i) % period
    return period - i if i >= n else i


def reference_degrade(plane, ratio, kernel):
    """Brute-force separable correlation + decimation oracle."""
    taps, a = kernel.taps, kernel.anchor
    h, w = plane.shape
    tmp = np.zeros_like(plane)
    for y in range(h):
        for x in range(w):
            tmp[y, x] = sum(taps[t] * plane[mirror(h, y + t - a), x]
                            for t in range(taps.size))
    out = np.zeros_like(plane)
    for y in range(h):
        for x in range(w):
            out[y, x] = sum(taps[t] * tmp[y, mirror(w, x + t - a)]
                            for t in range(taps.size))
    phase = (ratio - 1) // 2
    return out[phase::ratio, phase::ratio]


def test_kernel_dc_gain():
    k = mtf_gaussian_kernel(4, 0.3)
    assert abs(k.taps.sum() - 1.0) <= 1e-12
    assert np.array_equal(k.taps, k.taps[::-1])


def test_kernel_sigma_value():
    # hand evaluation of the sigma formula for ratio 4, gain 0.3
    sigma = np.sqrt(-np.log(0.3) / (2 * np.pi**2 * (1 / 8)**2))
    assert sigma == pytest.approx(1.976, abs=1e-3)
    k = mtf_gaussian_kernel(4, 0.3)
    # taps follow exp(-n^2 / 2 sigma^2) up to normalization
    ratio01 = k.taps[k.anchor + 1] / k.taps[k.anchor]
    assert ratio01 == pytest.approx(np.exp(-1 / (2 * sigma**2)), rel=1e-12)


def test_kernel_transfer_at_nyquist():
    for ratio, gain in [(2, 0.5), (4, 0.3), (4, 0.15), (8, 0.25)]:
        k = mtf_gaussian_kernel(ratio, gain)
        assert k.transfer(1 / (2 * ratio)) == pytest.approx(gain, rel=0.02)


def test_kernel_invalid_gain():
    with pytest.raises(InputError):
        mtf_gaussian_kernel(4, 1.0)
    with pytest.raises(InputError):
        mtf_gaussian_kernel(4, 0.0)
    with pytest.raises(InputError):
        MtfKernel(taps=np.array([0.5, 0.6]), ratio=2, mtf_gain=0.5)


def test_degrade_constant_preserved():
    img = MultibandImage(np.full((8, 8, 2), 3.25))
    out = degrade(img, 4, mtf_gaussian_kernel(4, 0.3))
    assert out.samples.shape == (2, 2, 2)
    assert np.allclose(out.samples, 3.25, atol=1e-12)


def test_degrade_identity():
    img = MultibandImage(np.arange(16, dtype=np.float64).reshape(4, 4, 1))
    out = degrade(img, 1, identity_kernel())
    assert np.array_equal(out.samples, img.samples)


def test_degrade_non_divisible():
    img = MultibandImage(np.zeros((6, 8, 1)))
    with pytest.raises(InputError, match="divisible"):
        degrade(img, 4)


def test_degrade_matches_bruteforce_oracle(rng):
    plane = rng.random((12, 8))
    k = mtf_gaussian_kernel(4, 0.3)
    img = MultibandImage(plane[:, :, None])
    got = degrade(img, 4, k).samples[:, :, 0]
    want = reference_degrade(plane, 4, k)
    assert np.allclose(got, want, atol=1e-12)


def test_degrade_commutes_with_band_selection(random_image):
    img = random_image(8, 8, 3)
    k = mtf_gaussian_kernel(2, 0.3)
    whole = degrade(img, 2, k)
    for b in range(3):
        single = degrade(MultibandImage(img.band(b).copy()), 2, k)
        assert np.array_equal(whole.band(b), single.band(0))


def test_degrade_mean_near_constant(rng):
    # constant plus a tiny perturbation: relative mean shift stays small
    plane = 1.0 + 1e-7 * rng.standard_normal((16, 16))
    img = MultibandImage(plane[:, :, None])
    out = degrade(img, 4, mtf_gaussian_kernel(4, 0.3))
    assert abs(out.samples.mean() - plane.mean()) / plane.mean() < 1e-6


@pytest.mark.parametrize("ratio", [2, 4])
def test_consistency_nearest_box_roundtrip_exact(rng, ratio):
    img = MultibandImage(rng.random((6, 6, 2)))
    up = upsample(img, ratio, "nearest")
    back = degrade(up, ratio, box_kernel(ratio))
    assert np.array_equal(back.samples, img.samples)


def test_consistency_roundtrip_ratio3(rng):
    img = MultibandImage(rng.random((5, 4, 1)))
    back = degrade(upsample(img, 3, "nearest"), 3, box_kernel(3))
    assert np.allclose(back.samples, img.samples, atol=1e-12)


def test_upsample_nearest_blocks():
    img = MultibandImage(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
    out = upsample(img, 2, "nearest").samples[:, :, 0]
    want = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
                    dtype=np.float64)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("method", ["nearest", "bilinear", "bicubic"])
def test_upsample_ratio1_identity(random_image, method):
    img = random_image(5, 7, 2)
    out = upsample(img, 1, method)
    assert np.array_equal(out.samples, img.samples)


@pytest.mark.parametrize("method", ["bilinear", "bicubic"])
def test_upsample_constant_preserved(method):
    img = MultibandImage(np.full((4, 4, 1), 0.7))
    out = upsample(img, 4, method)
    assert out.samples.shape == (16, 16, 1)
    assert np.allclose(out.samples, 0.7, atol=1e-12)


def test_upsample_unknown_method(random_image):
    with pytest.raises(InputError, match="unknown method"):
        upsample(random_image(), 2, "lanczos")


def test_upsample_shapes(random_image):
    img = random_image(3, 5, 2)
    for method in ("nearest", "bilinear", "bicubic"):
        out = upsample(img, 3, method)
        assert out.samples.shape == (9, 15, 2)


def padded_filter(plane, taps, step):
    """Separable correlation on an np.pad(mode="reflect") border."""
    anchor = (len(taps) - 1) // 2
    out = plane
    for axis in (0, 1):
        n = out.shape[axis]
        width = [(0, 0), (0, 0)]
        width[axis] = (anchor * step, (len(taps) - 1 - anchor) * step)
        padded = np.pad(out, width, mode="reflect")
        out = sum(w * np.take(padded, np.arange(n) + t * step, axis=axis)
                  for t, w in enumerate(taps))
    return out


@settings(max_examples=80, deadline=None)
@given(plane=st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
           lambda shape: arrays(np.float64, shape,
                                elements=st.floats(-1e3, 1e3))),
       taps=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7),
       step=st.sampled_from([1, 2, 4]))
@example(plane=np.arange(6.0)[None, :], taps=[1.0, 4.0, 6.0, 4.0, 1.0],
         step=4)
@example(plane=np.arange(5.0)[:, None], taps=[0.5, 0.5], step=2)
def test_mirror_filter_matches_reflect_pad(plane, taps, step):
    got = mirror_filter(plane, np.array(taps), step)
    want = padded_filter(plane, np.array(taps), step)
    assert got.shape == plane.shape
    assert np.allclose(got, want, rtol=0, atol=1e-12)
