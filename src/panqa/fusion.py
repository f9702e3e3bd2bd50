"""Reference pansharpeners: PCA substitution, intensity-ratio (CN), and
additive a-trous wavelet detail injection.

These are deliberately plain textbook fusers; they exist to feed the
evaluation harness with distinguishable candidates, not to compete with
production algorithms.

Each fuser is a generator of the fused image's blocks of rows, the
blocks that upsample() yields, with the detail injected in place: CN
scales them, ATWT adds the pan's detail, PCA adds to band b
v1[b] * (matched_pan - PC1), v1 the first principal axis and PC1 the
centred bands' projection on it (PC1 substitution and back-projection,
up to float64 rounding: 1e-10 relative at most on synthetic scenes).
pansharpen() hands the blocks to raster.save_rows, which writes each one
as it comes, so no fuser holds the fused or the upsampled image.

Each fuser takes the MS and the pan as raster.Image, so either may be
left on disk, and reads the rows of each block from it; none holds or
reads any plane whole. ATWT needs one pass: it smooths the pan with
resample.separable(), the operator upsample() runs, one block of rows
at a time and aligned with upsample()'s blocks, its banded matrices
those of one filter whose taps are the a-trous levels' composite (see
_atwt_taps). PCA and CN need two: a statistics pass, then the
injection. Every mean, variance and covariance they use comes from
_moments, over the upsampled blocks (PCA's band means and covariance,
so PC1's mean is 0 and its variance v1' C v1), their band means (CN's
intensity) and the pan's blocks of rows. These round differently from
whole-plane stats, and ATWT's smoothing from the per-tap cascade of
levels: within 1e-9 of the whole-image fusers' outputs for PCA and
1e-12 for CN and ATWT. The matched pan, PCA's detail, CN's scale and
ATWT's detail are formed a block at a time with the elementwise
operations of a whole-plane pass in its order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import resample
from .errors import DegeneracyError, InputError
from .raster import Image, save_rows
from .resample import filter_blocks, separable, upsample

_EPS = 1e-12


@dataclass
class FusionConfig:
    method: str = "pca"
    resampler: str = "bicubic"
    wavelet_levels: int = 2

    def __post_init__(self):
        if self.method not in FUSION_METHODS:
            raise InputError(f"unknown fusion method {self.method!r}")
        if self.wavelet_levels < 1:
            raise InputError("wavelet_levels must be >= 1")


def check_shapes(ms: Image, pan: Image) -> int:
    """The PAN/MS ratio; refuses a pan of more than one band, or whose
    sides are not one integer multiple of ms's."""
    if pan.bands != 1:
        raise InputError("pan image must have exactly one band")
    if pan.height % ms.height or pan.width % ms.width:
        raise InputError("pan dimensions must be integer multiples of ms")
    ratio = pan.height // ms.height
    if pan.width // ms.width != ratio:
        raise InputError("pan/ms ratio differs between axes")
    return ratio


def _moments(blocks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The means and the population covariance of k planes of n samples
    each, given as (k, m) blocks of their samples: from the blocks' sums
    and cross products, shifted by the first block's means so that they
    cancel little."""
    sums = cross = 0.0
    for i, x in enumerate(blocks):
        if i == 0:
            shift = x.mean(axis=1)
        x = x - shift[:, None]
        sums += x.sum(axis=1)
        cross += x @ x.T
    d = sums / n
    return shift + d, cross / n - np.outer(d, d)


def _pan_stats(pan: Image) -> tuple[float, float]:
    """The pan's mean and variance, over upsample()'s blocks of rows."""
    step = resample.BLOCK_ROWS   # read now, as upsample() reads it
    (mean,), ((var,),) = _moments(
        (pan.rows(0, a, min(a + step, pan.height)).reshape(1, -1)
         for a in range(0, pan.height, step)), pan.height * pan.width)
    return mean, var


def _matched(pan: Image, rows: slice, pan_stats, target_stats
             ) -> np.ndarray:
    """The pan's rows mapped affinely so that the whole pan's mean and
    std become the target's, both stats given as (mean, variance); a
    constant pan maps to the target's mean."""
    s_mean, s_std = pan_stats[0], np.sqrt(pan_stats[1])
    t_mean, t_std = target_stats[0], np.sqrt(target_stats[1])
    if s_std < _EPS:
        return np.full((rows.stop - rows.start, pan.width), t_mean)
    out = np.subtract(pan.rows(0, rows.start, rows.stop), s_mean)
    out *= t_std / s_std
    out += t_mean
    return out


def pansharpen_pca(ms: Image, pan: Image, cfg: FusionConfig):
    """Component substitution: swap the first principal component for the
    mean/std-matched pan band, by injection into the upsampled bands.
    Yields the fused blocks of rows, as upsample() yields its own."""
    ratio = check_shapes(ms, pan)
    if ms.bands < 2:
        raise InputError("PCA fusion needs at least two bands")
    pan_stats = _pan_stats(pan)
    mean, cov = _moments((block.reshape(ms.bands, -1) for _, block in
                          upsample(ms, ratio, cfg.resampler)),
                         pan.height * pan.width)
    evals, evecs = np.linalg.eigh(cov)
    top = np.argsort(evals)[-1]   # first in descending order
    if evals[top] < _EPS:
        raise DegeneracyError("rank-deficient: all bands constant")
    # the sign that makes the component sum non-negative
    v1 = -evecs[:, top] if evecs[:, top].sum() < 0 else evecs[:, top]
    pc1_stats = 0.0, v1 @ cov @ v1   # PC1 is centred
    for rows, block in upsample(ms, ratio, cfg.resampler):
        block -= mean[:, None, None]
        detail = _matched(pan, rows, pan_stats, pc1_stats)
        detail -= np.tensordot(v1, block, axes=1)   # minus PC1
        for v, m, plane in zip(v1, mean, block):
            plane += v * detail
            plane += m
        yield rows, block


def pansharpen_cn(ms: Image, pan: Image, cfg: FusionConfig):
    """Brovey-style intensity scaling: fused = up * matched_pan / intensity.
    Yields the fused blocks of rows, as upsample() yields its own."""
    ratio = check_shapes(ms, pan)
    pan_stats = _pan_stats(pan)
    (mean,), ((var,),) = _moments(
        (block.mean(axis=0).reshape(1, -1) for _, block in
         upsample(ms, ratio, cfg.resampler)), pan.height * pan.width)
    for rows, block in upsample(ms, ratio, cfg.resampler):
        scale = _matched(pan, rows, pan_stats, (mean, var))
        scale /= np.maximum(np.mean(block, axis=0), _EPS)
        block *= scale
        yield rows, block


_B3 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _atwt_taps(levels: int) -> np.ndarray:
    """The a-trous smoothing of levels B3 filters, level k's taps 2**k
    apart, as the taps of one filter. Mirror padding commutes with a
    symmetric filter (its output, mirrored, is its output of the mirrored
    input), so one mirror-padded pass with these taps is the cascade of
    mirror-padded levels, up to float64 rounding."""
    taps = _B3
    for level in range(1, levels):
        dilated = np.zeros(4 * 2**level + 1)
        dilated[::2**level] = _B3
        taps = np.convolve(taps, dilated)
    return taps


def pansharpen_atwt(ms: Image, pan: Image, cfg: FusionConfig):
    """Add the pan image's a-trous detail planes to every upsampled band.
    Yields the fused blocks of rows, as upsample() yields its own."""
    ratio = check_shapes(ms, pan)
    levels = cfg.wavelet_levels
    if levels > int(np.log2(max(ratio, 1))) + 2:
        raise InputError("wavelet_levels too large for this scale ratio")
    taps = _atwt_taps(levels)
    # the smooth pan's blocks of rows, upsample()'s rows one for one
    smooth = separable(pan, filter_blocks(pan.height, taps),
                       filter_blocks(pan.width, taps))
    for (rows, block), (_, (detail,)) in zip(
            upsample(ms, ratio, cfg.resampler), smooth):
        np.subtract(pan.rows(0, rows.start, rows.stop), detail, out=detail)
        block += detail
        yield rows, block


# each method's fuser and its free parameters: the tuning knobs a user
# must pick, reported as a process cost
_FUSERS = {
    "pca": (pansharpen_pca, 1),
    "cn": (pansharpen_cn, 1),
    "atwt": (pansharpen_atwt, 2),
}
FUSION_METHODS = tuple(_FUSERS)


def pansharpen(ms: Image, pan: Image, cfg: FusionConfig, out) -> dict:
    """Run the configured fuser and write its image to the raster path
    out, block by block (raster.save_rows); returns the process metadata,
    whose wall_seconds covers fusing and writing."""
    fuse, n_free_parameters = _FUSERS[cfg.method]
    t0 = time.perf_counter()
    save_rows(out, (ms.bands, pan.height, pan.width), fuse(ms, pan, cfg),
              band_names=ms.band_names)
    return {
        "method": cfg.method,
        "resampler": cfg.resampler,
        "wall_seconds": time.perf_counter() - t0,
        "n_free_parameters": n_free_parameters,
    }
