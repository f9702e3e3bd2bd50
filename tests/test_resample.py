import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocks import collect
from panqa.errors import InputError
from panqa.raster import MultibandImage, RasterFile, load_image, save_image
from panqa.resample import (degrade, filter_blocks, mtf_gaussian_kernel,
                            separable, upsample)
from test_layout import padded_filter


def mirror(n, i):
    if n == 1:
        return 0
    period = 2 * (n - 1)
    i = abs(i) % period
    return period - i if i >= n else i


def reference_degrade(plane, ratio, taps):
    """Brute-force separable correlation + decimation oracle."""
    a = (taps.size - 1) // 2
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
    assert abs(k.sum() - 1.0) <= 1e-12
    assert np.array_equal(k, k[::-1])


def test_kernel_sigma_value():
    # hand evaluation of the sigma formula for ratio 4, gain 0.3
    sigma = np.sqrt(-np.log(0.3) / (2 * np.pi**2 * (1 / 8)**2))
    assert sigma == pytest.approx(1.976, abs=1e-3)
    k = mtf_gaussian_kernel(4, 0.3)
    # taps follow exp(-n^2 / 2 sigma^2) up to normalization
    anchor = (k.size - 1) // 2
    ratio01 = k[anchor + 1] / k[anchor]
    assert ratio01 == pytest.approx(np.exp(-1 / (2 * sigma**2)), rel=1e-12)


def transfer(taps, freq):
    """Discrete-time transfer magnitude at freq (cycles per sample),
    evaluated about the anchor tap (len-1)//2."""
    n = np.arange(taps.size) - (taps.size - 1) // 2
    return abs(np.sum(taps * np.exp(-2j * np.pi * freq * n)))


def test_kernel_transfer_at_nyquist():
    for ratio, gain in [(2, 0.5), (4, 0.3), (4, 0.15), (8, 0.25)]:
        k = mtf_gaussian_kernel(ratio, gain)
        assert transfer(k, 1 / (2 * ratio)) == pytest.approx(gain, rel=0.02)


def test_kernel_ratio_one_is_no_filter():
    assert np.array_equal(mtf_gaussian_kernel(1, 0.3), np.ones(1))
    with pytest.raises(InputError, match="mtf_gain"):
        mtf_gaussian_kernel(1, 1.0)
    with pytest.raises(InputError, match="ratio must be >= 1"):
        mtf_gaussian_kernel(0, 0.3)


def test_kernel_invalid_gain():
    with pytest.raises(InputError):
        mtf_gaussian_kernel(4, 1.0)
    with pytest.raises(InputError):
        mtf_gaussian_kernel(4, 0.0)
    img = MultibandImage(np.zeros((1, 4, 4)))
    with pytest.raises(InputError, match=r"taps must sum to 1 \(unit DC"):
        degrade(img, 2, np.array([0.5, 0.6]))
    for bad in (np.ones((1, 1)), np.empty(0)):
        with pytest.raises(InputError, match="non-empty 1-D"):
            degrade(img, 2, bad)


def test_degrade_constant_preserved():
    img = MultibandImage(np.full((2, 8, 8), 3.25))
    out = degrade(img, 4, mtf_gaussian_kernel(4, 0.3))
    assert out.planes.shape == (2, 2, 2)
    assert np.allclose(out.planes, 3.25, atol=1e-12)


def test_degrade_identity():
    img = MultibandImage(np.arange(16, dtype=np.float64).reshape(1, 4, 4))
    out = degrade(img, 1)
    assert np.array_equal(out.planes, img.planes)


def test_degrade_non_divisible():
    img = MultibandImage(np.zeros((1, 6, 8)))
    with pytest.raises(InputError, match="divisible"):
        degrade(img, 4)


def test_degrade_matches_bruteforce_oracle(rng):
    plane = rng.random((12, 8))
    k = mtf_gaussian_kernel(4, 0.3)
    img = MultibandImage(plane[None])
    got = degrade(img, 4, k).band(0)
    want = reference_degrade(plane, 4, k)
    assert np.allclose(got, want, atol=1e-12)


def test_degrade_commutes_with_band_selection(random_image):
    img = random_image(8, 8, 3)
    k = mtf_gaussian_kernel(2, 0.3)
    whole = degrade(img, 2, k)
    for b in range(3):
        single = degrade(MultibandImage(img.band(b)[None]), 2, k)
        assert np.array_equal(whole.band(b), single.band(0))


@pytest.mark.parametrize("sample_type, gain", [("f32", None),
                                               ("u16", [1e-4, 2e-4, 5e-5])])
def test_degrade_of_raster_file_equals_loaded(tmp_path, rng, sample_type,
                                              gain):
    # read from disk one band at a time, as `panqa degrade` does, the
    # output and its saved bytes are those of the loaded image's
    img = MultibandImage(rng.uniform(0.0, 1.0, (3, 24, 32)),
                         band_names=["b", "g", "r"])
    save_image(img, tmp_path / "ms", sample_type, gain=gain)
    for ratio in (1, 2, 4):
        taps = mtf_gaussian_kernel(ratio, 0.3)
        saved = []
        for name, src in (("file", RasterFile(tmp_path / "ms")),
                          ("loaded", load_image(tmp_path / "ms"))):
            out = degrade(src, ratio, taps)
            assert out.band_names == ["b", "g", "r"]
            save_image(out, tmp_path / name)
            saved.append([(tmp_path / f"{name}{ext}").read_bytes()
                          for ext in (".json", ".raw")])
        assert saved[0] == saved[1]


@pytest.mark.parametrize("method", ["nearest", "bilinear", "bicubic"])
@pytest.mark.parametrize("sample_type, gain", [("f32", None),
                                               ("u16", [1e-4, 2e-4, 5e-5])])
def test_upsample_of_raster_file_equals_loaded(tmp_path, rng, method,
                                               sample_type, gain):
    # read from disk one band at a time, as `panqa fuse` has it read, the
    # output is that of the loaded image, byte for byte
    img = MultibandImage(rng.uniform(0.0, 1.0, (3, 7, 9)),
                         band_names=["b", "g", "r"])
    save_image(img, tmp_path / "ms", sample_type, gain=gain)
    for ratio in (1, 2, 3, 4):
        got = collect(upsample(RasterFile(tmp_path / "ms"), ratio, method))
        want = collect(upsample(load_image(tmp_path / "ms"), ratio,
                                method))
        assert got.planes.tobytes() == want.planes.tobytes()


def test_degrade_mean_near_constant(rng):
    # constant plus a tiny perturbation: relative mean shift stays small
    plane = 1.0 + 1e-7 * rng.standard_normal((16, 16))
    img = MultibandImage(plane[None])
    out = degrade(img, 4, mtf_gaussian_kernel(4, 0.3))
    assert abs(out.planes.mean() - plane.mean()) / plane.mean() < 1e-6


@pytest.mark.parametrize("ratio", [2, 4])
def test_consistency_nearest_box_roundtrip_exact(rng, ratio):
    img = MultibandImage(np.moveaxis(rng.random((6, 6, 2)), 2, 0))
    up = collect(upsample(img, ratio, "nearest"))
    back = degrade(up, ratio, np.full(ratio, 1 / ratio))
    assert np.array_equal(back.planes, img.planes)


def test_consistency_roundtrip_ratio3(rng):
    img = MultibandImage(rng.random((1, 5, 4)))
    back = degrade(collect(upsample(img, 3, "nearest")), 3,
                   np.full(3, 1 / 3))
    assert np.allclose(back.planes, img.planes, atol=1e-12)


def test_upsample_nearest_blocks():
    img = MultibandImage(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    out = collect(upsample(img, 2, "nearest")).band(0)
    want = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
                    dtype=np.float64)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("method", ["nearest", "bilinear", "bicubic"])
def test_upsample_ratio1_identity(random_image, method):
    img = random_image(5, 7, 2)
    out = collect(upsample(img, 1, method))
    assert np.array_equal(out.planes, img.planes)


@pytest.mark.parametrize("method", ["bilinear", "bicubic"])
def test_upsample_constant_preserved(method):
    img = MultibandImage(np.full((1, 4, 4), 0.7))
    out = collect(upsample(img, 4, method))
    assert out.planes.shape == (1, 16, 16)
    assert np.allclose(out.planes, 0.7, atol=1e-12)


def test_upsample_unknown_method(random_image):
    with pytest.raises(InputError, match="unknown method"):
        collect(upsample(random_image(), 2, "lanczos"))


def test_upsample_shapes(random_image):
    img = random_image(3, 5, 2)
    for method in ("nearest", "bilinear", "bicubic"):
        out = collect(upsample(img, 3, method))
        assert out.planes.shape == (2, 9, 15)


def dilated(taps, step):
    """taps step samples apart, zeros between them (the anchor of an
    even number of taps so moves by step // 2 samples)."""
    out = np.zeros((len(taps) - 1) * step + 1)
    out[::step] = taps
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
# a plane of one sample: every tap reads it, and the weights may cancel
@example(plane=np.ones((1, 1)), taps=[1.0, -1.0], step=1)
def test_mirror_filter_matches_reflect_pad(plane, taps, step):
    # the mirror filter, banded blocks of dilated taps, on planes that
    # the pad (up to 6 * step samples) often exceeds; any taps, unit sum
    # or not. The blocks add the weights of taps that mirror onto one
    # sample before they multiply it, and BLAS sums in its own order, so
    # each output is held within 16 eps of the sum of its terms' absolute
    # values, S; 5,000 random draws differed by at most 2.2 eps * S
    taps = dilated(taps, step)
    h, w = plane.shape
    got = collect(separable(MultibandImage(plane[None]),
                            filter_blocks(h, taps), filter_blocks(w, taps)))
    want = padded_filter(plane, taps)
    terms = padded_filter(np.abs(plane), np.abs(taps))
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    assert got.planes.shape == (1, h, w)
    assert np.all(np.abs(got.band(0) - want) <= 16 * eps * terms + tiny)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), ratio=st.integers(1, 5), bands=st.integers(1, 3),
       band_sequential=st.booleans(), gaussian=st.booleans(),
       gain=st.floats(0.05, 0.95))
def test_degrade_equals_filter_then_decimate(data, ratio, bands,
                                             band_sequential, gaussian, gain):
    # planes from ratio x ratio up, interleaved or band-sequential samples
    h = ratio * data.draw(st.integers(1, 4), label="block rows")
    w = ratio * data.draw(st.integers(1, 4), label="block cols")
    shape = (bands, h, w) if band_sequential else (h, w, bands)
    samples = data.draw(arrays(np.float64, shape,
                               elements=st.floats(-1e3, 1e3)))
    planes = samples if band_sequential else np.moveaxis(samples, 2, 0)
    # the Gaussian needs ratio >= 2; box kernels of even ratio have even
    # length
    taps = (mtf_gaussian_kernel(ratio, gain) if gaussian and ratio > 1
            else np.full(ratio, 1 / ratio))
    img = MultibandImage(planes)
    got = degrade(img, ratio, taps)
    phase = (ratio - 1) // 2
    assert got.planes.shape == (bands, h // ratio, w // ratio)
    for b in range(bands):
        full = padded_filter(img.band(b), taps)
        # the positive unit-sum taps keep each pass's sums within a few
        # ulps of the largest sample, in any order: 4,000 draws differed
        # by at most 3.4e-13 with samples up to 1e3
        assert np.allclose(got.band(b), full[phase::ratio, phase::ratio],
                           rtol=0, atol=1e-12)
