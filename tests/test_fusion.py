from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocks import collect
from panqa import raster
from panqa.errors import DegeneracyError, InputError
from panqa.fusion import (_B3, FusionConfig, _mean_std, _smooth_rows,
                          pansharpen, pansharpen_atwt, pansharpen_cn,
                          pansharpen_pca)
from panqa.raster import MultibandImage, load_image
from panqa.resample import mirror_filter, upsample
from panqa.spectral import sam_mean


FUSERS = {"pca": pansharpen_pca, "cn": pansharpen_cn, "atwt": pansharpen_atwt}


def pan_image(plane):
    """A pan plane as the one-band image the fusers take."""
    return MultibandImage(plane[None])


def make_pair(rng, h=8, w=8, bands=4, ratio=2):
    ms = MultibandImage(np.moveaxis(rng.uniform(0.1, 0.9, (h, w, bands)),
                                    2, 0))
    pan = rng.uniform(0.1, 0.9, (h * ratio, w * ratio))
    return ms, pan


def first_pc(up):
    x = up.planes.reshape(up.bands, -1).T
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, bias=True)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evecs = evecs[:, order]
    evecs *= np.where(evecs.sum(axis=0) < 0, -1.0, 1.0)
    return ((x - mean) @ evecs)[:, 0].reshape(up.height, up.width)


def test_pca_identical_component_substitution(rng):
    ms, _ = make_pair(rng)
    cfg = FusionConfig(method="pca", resampler="bilinear")
    up = collect(upsample(ms, 2, "bilinear"))
    pan = first_pc(up)
    fused = collect(pansharpen_pca(ms, pan_image(pan), cfg))
    assert np.allclose(fused.planes, up.planes, atol=1e-9)


def test_pca_shape_and_mean_preservation(rng):
    ms, pan = make_pair(rng, ratio=4)
    cfg = FusionConfig(method="pca", resampler="bicubic")
    fused = collect(pansharpen_pca(ms, pan_image(pan), cfg))
    assert fused.planes.shape == (4, 32, 32)
    up = collect(upsample(ms, 4, "bicubic"))
    for b in range(4):
        ref = up.band(b).mean()
        assert abs(fused.band(b).mean() - ref) / abs(ref) < 1e-6


def test_pca_rank_deficient(rng):
    ms = MultibandImage(np.full((3, 4, 4), 0.5))
    pan = rng.random((8, 8))
    with pytest.raises(DegeneracyError, match="rank-deficient"):
        collect(pansharpen_pca(ms, pan_image(pan),
                               FusionConfig(method="pca")))


def test_cn_identity_when_pan_equals_intensity(rng):
    ms, _ = make_pair(rng)
    cfg = FusionConfig(method="cn", resampler="bilinear")
    up = collect(upsample(ms, 2, "bilinear"))
    pan = up.planes.mean(axis=0)
    fused = collect(pansharpen_cn(ms, pan_image(pan), cfg))
    assert np.allclose(fused.planes, up.planes, atol=1e-12)


def test_cn_preserves_band_ratios(rng):
    ms, pan = make_pair(rng)
    cfg = FusionConfig(method="cn", resampler="bilinear")
    fused = collect(pansharpen_cn(ms, pan_image(pan), cfg))
    up = collect(upsample(ms, 2, "bilinear"))
    r_up = up.band(0) / up.band(1)
    r_fused = fused.band(0) / fused.band(1)
    assert np.allclose(r_fused, r_up, atol=1e-9)


def test_cn_zero_sam_against_upsampled(rng):
    ms, pan = make_pair(rng)
    cfg = FusionConfig(method="cn", resampler="bicubic")
    fused = collect(pansharpen_cn(ms, pan_image(pan), cfg))
    up = collect(upsample(ms, 2, "bicubic"))
    # negative matched-pan pixels flip the spectral vector; keep the check
    # on pixels with a positive scale factor
    intensity = up.planes.mean(axis=0)
    matched = ((pan - pan.mean()) * intensity.std() / pan.std()
               + intensity.mean())
    pos = matched > 0
    masked_up = MultibandImage(np.where(pos, up.planes, 1.0))
    masked_fused = MultibandImage(np.where(pos, fused.planes, 1.0))
    mean_deg = sam_mean(masked_up, masked_fused)
    assert mean_deg < 1e-6


def test_atwt_constant_pan_is_identity(rng):
    ms, _ = make_pair(rng)
    cfg = FusionConfig(method="atwt", resampler="nearest", wavelet_levels=2)
    pan = np.full((16, 16), 0.4)
    fused = collect(pansharpen_atwt(ms, pan_image(pan), cfg))
    up = collect(upsample(ms, 2, "nearest"))
    assert np.allclose(fused.planes, up.planes, atol=1e-12)


def test_atwt_same_detail_all_bands(rng):
    ms, pan = make_pair(rng)
    cfg = FusionConfig(method="atwt", resampler="bilinear", wavelet_levels=2)
    fused = collect(pansharpen_atwt(ms, pan_image(pan), cfg))
    up = collect(upsample(ms, 2, "bilinear"))
    delta = fused.planes - up.planes
    for b in range(1, 4):
        assert np.allclose(delta[b], delta[0], atol=1e-12)


def test_all_fusers_deterministic_and_shaped(tmp_path, rng):
    ms, pan = make_pair(rng)
    ms.band_names = ["b", "g", "r", "n"]
    for method in ("pca", "cn", "atwt"):
        cfg = FusionConfig(method=method)
        meta = pansharpen(ms, pan_image(pan), cfg, tmp_path / "a")
        pansharpen(ms, pan_image(pan), cfg, tmp_path / "b")
        a, b = load_image(tmp_path / "a"), load_image(tmp_path / "b")
        assert a.planes.shape == (4, 16, 16)
        assert a.band_names == ["b", "g", "r", "n"]
        assert np.array_equal(a.planes, b.planes)
        # the file holds the blocks the fuser yields, as f32
        want = collect(FUSERS[method](ms, pan_image(pan), cfg)).planes
        assert np.array_equal(a.planes, want.astype(np.float32))
        assert meta["n_free_parameters"] >= 1
        assert meta["wall_seconds"] >= 0


@pytest.mark.parametrize("method", ["pca", "cn", "atwt"])
def test_band_permutation_equivariance(rng, method):
    ms, pan = make_pair(rng)
    cfg = FusionConfig(method=method)
    base = collect(FUSERS[method](ms, pan_image(pan), cfg))
    for perm in list(permutations(range(4)))[:6]:
        permuted = MultibandImage(ms.planes[list(perm)])
        out = collect(FUSERS[method](permuted, pan_image(pan), cfg))
        assert np.allclose(out.planes, base.planes[list(perm)], atol=1e-6)


def test_config_validation():
    with pytest.raises(InputError):
        FusionConfig(method="gram-schmidt")
    with pytest.raises(InputError):
        FusionConfig(method="atwt", wavelet_levels=0)


def test_atwt_levels_capped(rng):
    ms, pan = make_pair(rng, ratio=2)
    cfg = FusionConfig(method="atwt", wavelet_levels=5)
    with pytest.raises(InputError, match="wavelet_levels"):
        collect(pansharpen_atwt(ms, pan_image(pan), cfg))


def whole_plane_smooth(pan, levels):
    """The a-trous smooth plane of a whole pan plane."""
    for level in range(levels):
        pan = mirror_filter(pan, _B3, 2**level)
    return pan


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 80),
       width=st.integers(1, 9), levels=st.integers(1, 4),
       budget=st.integers(1, 2048), data=st.data())
def test_smooth_rows_equal_whole_plane(seed, height, width, levels, budget,
                                       data):
    # any rows [start, stop), from heights below the 2 * (2**levels - 1)
    # halo rows on either side up to 80, with mirror_filter's strips of
    # one row and up
    pan = np.random.default_rng(seed).random((height, width))
    start = data.draw(st.integers(0, height - 1), label="start")
    stop = data.draw(st.integers(start + 1, height), label="stop")
    want = whole_plane_smooth(pan, levels)[start:stop]
    with mock.patch.object(raster, "STRIP_BYTES", budget):
        got = _smooth_rows(pan_image(pan), start, stop, levels)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 20),
       w=st.integers(1, 3), levels=st.integers(1, 4),
       budget=st.integers(1, 1024))
def test_atwt_windows_equal_whole_plane(seed, h, w, levels, budget):
    # ratio 4 allows 4 levels; injection strips and their windows of one
    # pan row and up
    ms, pan = make_pair(np.random.default_rng(seed), h, w, 2, 4)
    cfg = FusionConfig(method="atwt", resampler="bilinear",
                       wavelet_levels=levels)
    want = collect(upsample(ms, 4, "bilinear")).planes
    want += pan - whole_plane_smooth(pan, levels)
    with mock.patch.object(raster, "STRIP_BYTES", budget):
        got = collect(pansharpen_atwt(ms, pan_image(pan), cfg))
    assert got.planes.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 41),
       w=st.integers(1, 41), exponent=st.integers(-150, 150),
       constant=st.booleans())
def test_mean_std_in_place_equals_ndarray(seed, h, w, exponent, constant):
    # sizes of 1x1, not multiples of 8, and past numpy's 128-sample
    # pairwise-sum block; magnitudes 1e-150 to 1e150
    rng = np.random.default_rng(seed)
    plane = rng.normal(rng.normal(), 1.0, (h, w)) * 10.0**exponent
    if constant:
        plane[...] = plane[0, 0]
    want = plane.mean(), plane.std()
    assert _mean_std(plane) == want
