from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocks import collect
from panqa import resample
from panqa.errors import DegeneracyError, InputError
from panqa.fusion import (FusionConfig, _moments, pansharpen,
                          pansharpen_atwt, pansharpen_cn, pansharpen_pca)
from panqa.raster import MultibandImage, load_image
from panqa.resample import upsample
from panqa.spectral import sam_mean
from test_layout import stacked_cn, stacked_pca, whole_plane_smooth


FUSERS = {"pca": pansharpen_pca, "cn": pansharpen_cn, "atwt": pansharpen_atwt}
STACKED = {"pca": stacked_pca, "cn": stacked_cn}


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 40),
       w=st.integers(1, 3), levels=st.integers(1, 4))
def test_atwt_windows_equal_whole_plane(seed, h, w, levels):
    # ratio 4 allows 4 levels; pans of 4 to 160 rows, one to three blocks
    # of 64, smoothed a block at a time against the whole-plane cascade
    # of per-tap sums. 2,000 seeded draws differed by at most 4.4e-16 on
    # samples of at most 0.9 + 0.8
    ms, pan = make_pair(np.random.default_rng(seed), h, w, 2, 4)
    cfg = FusionConfig(method="atwt", resampler="bilinear",
                       wavelet_levels=levels)
    want = collect(upsample(ms, 4, "bilinear")).planes
    want += pan - whole_plane_smooth(pan, levels)
    got = collect(pansharpen_atwt(ms, pan_image(pan), cfg))
    np.testing.assert_allclose(got.planes, want, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
       n=st.integers(1, 300), cuts=st.lists(st.integers(1, 299), max_size=6),
       exponent=st.integers(-100, 100), constant=st.booleans())
def test_moments_equal_numpy(seed, k, n, cuts, exponent, constant):
    # k planes of n samples cut into blocks at random columns, unit sds
    # about means drawn with sd 3, scaled by 1e-100 to 1e100; 20,000 draws
    # differed from numpy by at most 7.6e-16 s (means) and 2.6e-16 s^2
    # (covariances), s the largest sample's magnitude
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.normal(0.0, 3.0, (k, 1)), 1.0, (k, n))
    if constant:
        x[0] = x[0, 0]
    x *= 10.0**exponent
    edges = sorted({0, n, *(c for c in cuts if c < n)})
    mean, cov = _moments((x[:, a:b] for a, b in zip(edges, edges[1:])), n)
    s = np.abs(x).max()
    np.testing.assert_allclose(mean, x.mean(axis=1), rtol=0, atol=1e-13 * s)
    np.testing.assert_allclose(cov, np.cov(x, bias=True).reshape(k, k),
                               rtol=0, atol=1e-13 * s * s)


@pytest.mark.parametrize("method", ["pca", "cn"])
def test_constant_pan_maps_to_target_mean(rng, method):
    # 14,400 samples of 0.3, whose ndarray mean is 0.29999999999999993 and
    # std 5.6e-17, read in blocks of 7 rows: the pan must count as
    # constant and map to the target's mean (the intensity's, PC1's 0), as
    # the whole-plane references map it, with no warning (warnings are
    # errors in the tests)
    ms, _ = make_pair(rng, h=30, w=30, ratio=4)
    pan = np.full((120, 120), 0.3)
    cfg = FusionConfig(method=method)
    with mock.patch.object(resample, "BLOCK_ROWS", 7):
        fused = collect(FUSERS[method](ms, pan_image(pan), cfg)).planes
    assert np.isfinite(fused).all()
    want = STACKED[method](ms, pan, cfg)
    np.testing.assert_allclose(fused, np.moveaxis(want, 2, 0), rtol=0,
                               atol=1e-12)
