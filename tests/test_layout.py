"""The band-sequential image layout, from load to save.

Producers fill one (bands, height, width) buffer, or, as upsample() and
the fusers do, one buffer of a block of rows that save_rows() writes as
it comes. The hypothesis tests hold every result equal, bit for bit, to
reference copies of the earlier code that stacked per-band results and
copied whole images, but for the fusers: PCA's and CN's stats come from
block sums, not whole planes, PCA's injection form rounds differently
from the projection round trip kept here, and ATWT smooths with one
banded matrix, not a cascade of per-tap sums, so they are held within
1e-9, 1e-12 and 1e-12. The tracemalloc tests bound how many image-sized
buffers each step holds at once.
"""

import collections
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panqa import raster
from panqa.cli import main
from panqa.errors import InputError
from panqa.fusion import (_B3, FusionConfig, pansharpen_atwt, pansharpen_cn,
                          pansharpen_pca)
from panqa.glcm3 import quantize_gray_levels, tims_glcm
from panqa.pipeline import Candidate, EvalOptions, RunManifest, run_manifest
from panqa.raster import MultibandImage, load_image, save_image
from panqa.resample import BLOCK_ROWS, _mirror_indices, upsample
from panqa.spectral import centre, summary_stats
from panqa.synth import synth_scene
from blocks import collect
from test_raster import encode_by_formula


def interp_matrix(n_in, ratio, method):
    """The dense (n_in*ratio, n_in) interpolation matrix of one axis,
    mirror padded, as upsample() built it before its banded blocks."""
    x = (np.arange(n_in * ratio) + 0.5) / ratio - 0.5
    mat = np.zeros((n_in * ratio, n_in))
    i0 = np.floor(x).astype(int)
    frac = x - i0
    if method == "nearest":   # output sample i repeats source i // ratio
        i0, offsets, weights = np.arange(n_in * ratio) // ratio, (0,), (1.0,)
    elif method == "bilinear":
        offsets = (0, 1)
        weights = np.stack([1.0 - frac, frac])
    else:  # bicubic, Keys kernel with a = -0.5
        def keys(t):
            t = np.abs(t)
            w = np.where(t <= 1,
                         1.5 * t**3 - 2.5 * t**2 + 1.0,
                         -0.5 * t**3 + 2.5 * t**2 - 4.0 * t + 2.0)
            return np.where(t >= 2, 0.0, w)
        offsets = (-1, 0, 1, 2)
        weights = np.stack([keys(frac - o) for o in offsets])
    rows = np.arange(n_in * ratio)
    for off, w in zip(offsets, weights):
        cols = _mirror_indices(n_in, i0 + off)
        np.add.at(mat, (rows, cols), w)
    return mat


def padded_filter(plane, taps, step=1):
    """Separable correlation on an np.pad(mode="reflect") border, each
    sample the sum of its tap products in tap order; tap t reads the
    sample (t - anchor)*step away, anchor (len(taps)-1)//2."""
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


def whole_plane_smooth(pan, levels):
    """The a-trous smooth plane of a whole pan plane: levels B3 filters,
    level k's taps 2**k apart."""
    for level in range(levels):
        pan = padded_filter(pan, _B3, 2**level)
    return pan


def stacked_upsample(img, ratio, method):
    """upsample() as it stacked per-band results into an interleaved
    (height, width, bands) array."""
    samples = np.moveaxis(img.planes, 0, 2)
    if ratio == 1:
        return samples.copy()
    if method == "nearest":
        return np.repeat(np.repeat(samples, ratio, axis=0), ratio, axis=1)
    my = interp_matrix(img.height, ratio, method)
    mx = interp_matrix(img.width, ratio, method)
    return np.stack([my @ samples[:, :, b] @ mx.T
                     for b in range(img.bands)], axis=2)


def match_mean_std(src, target):
    """src affinely mapped so that its mean and std equal target's, as
    the fusers matched the whole pan."""
    t_mean, t_std, s_std = target.mean(), target.std(), src.std()
    if s_std < 1e-12:
        return np.full_like(src, t_mean)
    out = src - src.mean()
    out *= t_std / s_std
    out += t_mean
    return out


def stacked_pca(ms, pan, cfg):
    up = stacked_upsample(ms, pan.shape[0] // ms.height, cfg.resampler)
    h, w, b = up.shape
    x = up.reshape(-1, b)
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, bias=True)
    evals, evecs = np.linalg.eigh(cov)
    evecs = evecs[:, np.argsort(evals)[::-1]]
    evecs = evecs * np.where(evecs.sum(axis=0) < 0, -1.0, 1.0)
    pcs = (x - mean) @ evecs
    pcs[:, 0] = match_mean_std(pan, pcs[:, 0].reshape(h, w)).ravel()
    return (pcs @ evecs.T + mean).reshape(h, w, b)


def stacked_cn(ms, pan, cfg):
    up = stacked_upsample(ms, pan.shape[0] // ms.height, cfg.resampler)
    intensity = up.mean(axis=2)
    matched = match_mean_std(pan, intensity)
    return up * (matched / np.maximum(intensity, 1e-12))[:, :, None]


def stacked_atwt(ms, pan, cfg):
    up = stacked_upsample(ms, pan.shape[0] // ms.height, cfg.resampler)
    smooth = whole_plane_smooth(pan, cfg.wavelet_levels)
    return up + (pan - smooth)[:, :, None]


def is_band_sequential(img):
    return img.planes.flags.c_contiguous


# (fuser, reference, absolute tolerance). PCA gets the 1e-9 that
# test_fusion holds it to, CN 1e-12: both take their stats from block
# sums (fusion._moments), the references from whole planes. ATWT gets
# 1e-12: it smooths with one banded matrix of composite taps (BLAS
# sums), the reference with a per-tap cascade of np.pad reflections.
# 3,000 seeded draws over these ranges differed from the references by
# at most 1.5e-14 (PCA), 6.7e-16 (CN) and 4.4e-16 (ATWT)
_STACKED_FUSERS = {"pca": (pansharpen_pca, stacked_pca, 1e-9),
                   "cn": (pansharpen_cn, stacked_cn, 1e-12),
                   "atwt": (pansharpen_atwt, stacked_atwt, 1e-12)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bands=st.integers(2, 5),
       ratio=st.integers(2, 4), h=st.integers(2, 7), w=st.integers(2, 7),
       method=st.sampled_from(["nearest", "bilinear", "bicubic"]),
       interleaved=st.booleans())
def test_upsample_equals_stacked(seed, bands, ratio, h, w, method,
                                 interleaved):
    samples = np.random.default_rng(seed).random((h, w, bands))
    planes = np.moveaxis(samples, 2, 0)
    if not interleaved:
        planes = np.ascontiguousarray(planes)
    img = MultibandImage(planes)
    for r in (1, ratio):
        up = collect(upsample(img, r, method))
        assert np.array_equal(up.planes, np.moveaxis(
            stacked_upsample(img, r, method), 2, 0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bands=st.integers(2, 5),
       ratio=st.integers(2, 4), h=st.integers(2, 7), w=st.integers(2, 7),
       method=st.sampled_from(["pca", "cn", "atwt"]),
       resampler=st.sampled_from(["nearest", "bilinear", "bicubic"]),
       levels=st.integers(1, 2))
def test_fusers_equal_stacked(seed, bands, ratio, h, w, method, resampler,
                              levels):
    rng = np.random.default_rng(seed)
    ms = MultibandImage(np.moveaxis(rng.uniform(0.1, 0.9, (h, w, bands)),
                                    2, 0))
    pan = rng.uniform(0.1, 0.9, (h * ratio, w * ratio))
    cfg = FusionConfig(method=method, resampler=resampler,
                       wavelet_levels=levels)
    fuser, stacked, atol = _STACKED_FUSERS[method]
    fused = collect(fuser(ms, MultibandImage(pan[None]), cfg))
    np.testing.assert_allclose(fused.planes,
                               np.moveaxis(stacked(ms, pan, cfg), 2, 0),
                               rtol=0, atol=atol)


@st.composite
def images_to_store(draw):
    """(planes, sample_type, gain, offset) with 2-5 bands; the samples are
    drawn over a range a little wider than the integral types hold, so
    the range check refuses some images. The planes are a view of an
    interleaved (height, width, bands) buffer, or band-sequential."""
    sample_type = draw(st.sampled_from(["u8", "u16", "f32"]))
    bands = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = {"u8": 255.0, "u16": 65535.0, "f32": 1e4}[sample_type]
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)), bands)
    gain = rng.uniform(0.5, 2.0, bands)
    offset = rng.uniform(-10.0, 10.0, bands)
    dn = rng.uniform(-0.02 * top, 1.01 * top, shape)
    if draw(st.booleans()):
        dn = np.clip(np.rint(dn), 0, top)
    planes = np.moveaxis(dn * gain + offset, 2, 0)
    if draw(st.booleans()):
        planes = np.ascontiguousarray(planes)
    return planes, sample_type, list(gain), list(offset)


@settings(max_examples=100, deadline=None)
@given(stored=images_to_store())
def test_save_image_equals_stacked(stored):
    planes, sample_type, gain, offset = stored
    # the payload as built from one whole-image float64 DN buffer
    want = encode_by_formula(planes, sample_type, gain, offset)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "img"
        if want is None:
            with pytest.raises(InputError, match="out of range"):
                save_image(MultibandImage(planes), path, sample_type, gain,
                           offset)
            # a refused band leaves neither file behind
            assert not list(Path(tmp).iterdir())
        else:
            save_image(MultibandImage(planes), path, sample_type, gain,
                       offset)
            assert path.with_suffix(".raw").read_bytes() == want.tobytes()
            assert is_band_sequential(load_image(path))


@pytest.mark.parametrize("sample_type", ["u8", "u16", "f32"])
def test_save_image_strips_equal_formula(tmp_path, rng, sample_type):
    # bands of two whole conversion strips and a part of one
    h, w = 181, 367
    strip = raster.STRIP_BYTES // 8
    assert 2 * strip < h * w < 3 * strip
    top = {"u8": 255.0, "u16": 65535.0, "f32": 1e4}[sample_type]
    gain, offset = [0.7, 1.3], [-2.0, 5.0]
    planes = np.moveaxis(rng.uniform(0.0, top, (h, w, 2)) * gain + offset,
                         2, 0)
    want = encode_by_formula(planes, sample_type, gain, offset)
    save_image(MultibandImage(planes), tmp_path / "img", sample_type,
               gain, offset)
    assert (tmp_path / "img.raw").read_bytes() == want.tobytes()
    # the last sample of the last strip refused: nothing is written
    planes[-1, -1, -1] = 1e40 if sample_type == "f32" else -10.0
    with pytest.raises(InputError, match="band 1: sample out of range"):
        save_image(MultibandImage(planes), tmp_path / "bad", sample_type,
                   gain, offset)
    assert not (tmp_path / "bad.json").exists()
    assert not (tmp_path / "bad.raw").exists()


def test_image_wraps_band_sequential_planes_without_copy():
    planes = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    img = MultibandImage(planes)
    assert np.shares_memory(img.planes, planes)
    # Fortran-ordered, strided and float32 planes are copied, once, into
    # C-contiguous float64 planes
    for other in (np.asfortranarray(planes),
                  np.arange(48.0).reshape(2, 3, 8)[:, :, ::2],
                  planes.astype(np.float32)):
        img = MultibandImage(other)
        assert is_band_sequential(img)
        assert img.planes.dtype == np.float64
        assert not np.shares_memory(img.planes, other)
        assert np.array_equal(img.planes, other)
    for bad in (planes[0], planes[None], np.empty((2, 0, 4))):
        with pytest.raises(InputError):
            MultibandImage(bad)


def traced_peak(fn, *args, **kwargs):
    """(result, the most bytes fn's allocations held at once)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


H = W = 256
BANDS = 4
PLANE = H * W * 8   # one float64 band
# upsample()'s block: 64 rows of every band, here one plane; at the
# benchmark's 1024 columns a quarter of one
BLOCK = BANDS * BLOCK_ROWS * W * 8


@pytest.mark.parametrize("sample_type, itemsize", [("u16", 2), ("f32", 4)])
def test_save_image_footprint(tmp_path, rng, sample_type, itemsize):
    img = MultibandImage(np.moveaxis(rng.uniform(0.0, 1.0, (H, W, BANDS)),
                                     2, 0))
    payload = H * W * BANDS * itemsize
    _, peak = traced_peak(save_image, img, tmp_path / "img", sample_type,
                          gain=[1e-4] * BANDS if sample_type == "u16"
                          else None)
    # one band of the payload, one strip of float64 DNs and a strip-sized
    # bool mask: the bands are written one at a time
    assert peak < payload / BANDS + 1.25 * raster.STRIP_BYTES


@pytest.mark.parametrize("sample_type, itemsize", [("u16", 2), ("f32", 4)])
def test_load_image_footprint(tmp_path, rng, sample_type, itemsize):
    samples = rng.uniform(0.0, 1.0, (H, W, BANDS))
    save_image(MultibandImage(np.moveaxis(samples, 2, 0)),
               tmp_path / "img", sample_type,
               gain=[1e-4] * BANDS if sample_type == "u16" else None)
    img, peak = traced_peak(load_image, tmp_path / "img")
    assert is_band_sequential(img)
    assert peak < BANDS * PLANE + 1.5 * H * W * itemsize


def drain(blocks) -> None:
    """Run a generator of blocks to its end, holding none of them."""
    collections.deque(blocks, maxlen=0)


@pytest.mark.parametrize("method", ["nearest", "bilinear", "bicubic"])
def test_upsample_footprint(rng, method):
    ratio = 4
    ms = MultibandImage(np.moveaxis(
        rng.random((H // ratio, W // ratio, BANDS)), 2, 0))
    _, peak = traced_peak(drain, upsample(ms, ratio, method))
    # the one block buffer, the two axes' banded blocks and one
    # (64, W / ratio) product: 1.28 planes for bicubic. Holding the
    # whole output took 4 planes more
    assert peak < BLOCK + 0.5 * PLANE


# the planes each fuser may hold beside its block buffer, with the MS in
# memory (test_fuser_footprint) or read from disk by panqa fuse
# (test_fuse_holds_no_image)
FUSER_PLANES = {"pca": 1.5, "cn": 1.25, "atwt": 1.5}
FUSE_PLANES = {"pca": 1.75, "cn": 1.5, "atwt": 2.0}


@pytest.mark.parametrize("method", ["cn", "atwt", "pca"])
def test_fuser_footprint(rng, method):
    ratio = 4
    ms = MultibandImage(rng.uniform(0.1, 0.9,
                                    (BANDS, H // ratio, W // ratio)))
    pan = MultibandImage(rng.uniform(0.1, 0.9, (1, H, W)))
    _, peak = traced_peak(drain, _STACKED_FUSERS[method][0](
        ms, pan, FusionConfig(method=method, resampler="bicubic")))
    # no fuser holds the fused or the upsampled image, or any plane
    # whole, only the block buffer that upsample() refills. Beside it PCA
    # and CN read the pan's stats in upsample()'s blocks of rows, so no
    # strip budget reaches a fuser, and each holds a few block-sized rows
    # of detail and the upsample's blocks: 1.23 planes
    # for PCA, 0.91 for CN and 1.24 for ATWT, whose smoothing holds the
    # pan rows one block reaches, its own block buffer and the banded
    # blocks of both axes (1.50 when it filtered windows of rows with a
    # per-tap cascade). Holding the fused image took 4 planes more
    assert peak < BLOCK + FUSER_PLANES[method] * PLANE, peak / PLANE


@pytest.mark.parametrize("method", ["cn", "atwt", "pca"])
def test_fuse_holds_no_image(tmp_path, rng, method):
    ms = MultibandImage(rng.uniform(0.1, 0.9, (BANDS, H // 4, W // 4)))
    save_image(ms, tmp_path / "ms")
    save_image(MultibandImage(rng.uniform(0.1, 0.9, (1, H, W))),
               tmp_path / "pan")
    argv = ["fuse", "--method", method, "--ms", str(tmp_path / "ms"),
            "--pan", str(tmp_path / "pan"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0   # untraced first, so lazy imports are not held
    code, peak = traced_peak(main, argv)
    assert code == 0
    # both inputs are read from disk a block of rows at a time, and each
    # block is written as it is made. Beside the block buffer the command
    # holds what test_fuser_footprint bounds, the rows it reads, one band
    # of a block's DNs as it writes them, and its parser: 1.38 planes for
    # PCA, 1.21 for CN and 1.80 for ATWT. Holding
    # the fused image took 4 planes more
    assert peak < BLOCK + FUSE_PLANES[method] * PLANE, peak / PLANE


def test_summary_stats_footprint(rng):
    band = rng.random((H, W))
    levels = quantize_gray_levels(band)
    centred, mean = centre(band)
    _, peak = traced_peak(summary_stats, centred, mean, levels,
                          out=np.empty((H, W)))
    # the map is cast to intp in out's bytes for the entropy's bincount;
    # bincount's own intp copy of it took 1.00 plane
    assert peak < 0.1 * PLANE, peak / PLANE


@pytest.mark.parametrize("gl", [8, 16])
def test_tims_glcm_footprint(rng, gl):
    levels = quantize_gray_levels(rng.random((H, W)), gl)
    _, peak = traced_peak(tims_glcm, levels, gl=gl,
                          work=np.empty((2, H, W)))
    # the keys, the centre term and the intp plane that np.bincount
    # counts lie in work's bytes; beside them the count tables, the
    # running sum, an offset's counts and the fold: 5.6 tables at gl 8
    # (4 KiB each), 3.2 at gl 16 (3.75 when the triangle check took
    # np.nonzero's index arrays). np.bincount's intp copy of each
    # offset's keys took 0.97 planes at gl 8 and 1.08 at gl 16
    assert peak < 6 * gl**3 * 8 + 0.02 * PLANE, peak / PLANE


def test_glcm3_footprint(tmp_path):
    n = 512   # the gl^3 tables weigh less beside a band than at 256^2
    save_image(synth_scene(0, n, n)[0], tmp_path / "ms")
    argv = ["glcm3", "--input", str(tmp_path / "ms"), "--gl", "32",
            "--out", str(tmp_path / "g.json"),
            "--dump-matrix", str(tmp_path / "g.csv")]
    assert main(argv) == 0   # untraced first, so lazy imports are not held
    for name in ("g.json", "g.csv"):
        (tmp_path / name).unlink()
    code, peak = traced_peak(main, argv)
    assert code == 0
    # the band is read into the first of the two work planes in which
    # tims_glcm forms its key planes: 2.54 planes, bounded with a 5%
    # margin. With the band held beside two work planes of tims_glcm's
    # own it peaked at 3.41. At gl 64 the tables set the peak either way
    assert peak < 2.67 * n * n * 8, peak / (n * n * 8)


def traced_run(tmp_path, rng, gl):
    """(rank table, traced peak) of run_manifest on a reference, an
    oracle copy of it and three noisy copies, all 256² and on disk."""
    ref = synth_scene(0, W, H)[0].planes
    save_image(MultibandImage(ref), tmp_path / "ref")
    for ext in (".json", ".raw"):
        shutil.copyfile(tmp_path / f"ref{ext}", tmp_path / f"oracle{ext}")
    ids = ["oracle"]
    for sigma in (0.01, 0.03, 0.1):
        ids.append(f"noise{sigma}")
        noise = rng.normal(0.0, sigma, (H, W, BANDS))
        save_image(MultibandImage(ref + np.moveaxis(noise, 2, 0)),
                   tmp_path / ids[-1])
    del ref
    manifest = RunManifest(
        reference=str(tmp_path / "ref"),
        candidates=[Candidate(id=c, path=str(tmp_path / c)) for c in ids],
        options=EvalOptions(gl=gl))
    return traced_peak(run_manifest, manifest, tmp_path / "out")


def test_run_manifest_footprint(tmp_path, rng):
    # the reference and each candidate are read from disk one band at a
    # time, so beside the reference's features a run holds one image's
    # two work planes, in whose bytes tims_glcm forms its key planes and
    # the intp plane that np.bincount counts. Its peak, 4.46 planes, is
    # in a band's glcm3_features, where the 32^3 tables weigh at this
    # size: the counts, the probabilities and one weight table; bounded
    # with a 5% margin. With int64 weight sums and their products beside
    # the probabilities it peaked at 4.96; with three work planes and
    # np.bincount's intp copy of each offset's keys it peaked at 5.96, in
    # tims_glcm; with the reference held loaded, loading each candidate
    # whole peaked at 12.0 planes, streaming it at 8.0, one centred copy
    # for the moments and the PCC at 7.6, and keeping only the
    # reference's category-2 label plane, not its whole stack, at 7.35
    # (7.49 with this test's rng)
    table, peak = traced_run(tmp_path, rng, 32)
    assert table.pdfr_case_a[0] == 1
    assert peak < 4.69 * PLANE, peak / PLANE


def test_run_manifest_footprint_gl64(tmp_path, rng):
    # above gl 40 the keys are uint32, formed in the same two work planes
    # as at gl 32. The 64^3 tables (4 planes each here) of the fold and
    # of glcm3_features set the peak: 14.99 planes, three tables beside
    # the work planes, bounded with a 5% margin. With intp keys counted
    # where they were formed, the map times gl allocated beside the work
    # planes, and several tables in glcm3_features, it peaked at 18.99;
    # with three work planes, in which all three key planes fit, 19.99
    table, peak = traced_run(tmp_path, rng, 64)
    assert table.pdfr_case_a[0] == 1
    assert peak < 15.74 * PLANE, peak / PLANE


def test_eval_footprint(tmp_path, rng):
    ref = synth_scene(0, W, H)[0].planes
    save_image(MultibandImage(ref), tmp_path / "ref")
    noise = rng.normal(0.0, 0.03, ref.shape)
    save_image(MultibandImage(ref + noise), tmp_path / "cand")
    del ref, noise
    argv = ["eval", "--reference", str(tmp_path / "ref"), "--candidate",
            str(tmp_path / "cand"), "--out", str(tmp_path / "e.json")]
    assert main(argv) == 0   # untraced first, so lazy imports are not held
    code, peak = traced_peak(main, argv)
    assert code == 0
    # Q4 holds its strips of 2 MiB, both images' rows read from disk (4
    # planes of samples here), and their block moments: 9.59 planes,
    # bounded with a 5% margin. Beside the reference held loaded (4
    # planes), the candidate's rows alone read, it held 11.58; with 4 MiB
    # strips, one strip for the whole image, it held 18.4
    assert peak < 10.1 * PLANE, peak / PLANE
