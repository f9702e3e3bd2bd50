"""Reference pansharpeners: PCA substitution, intensity-ratio (CN), and
additive a-trous wavelet detail injection.

These are deliberately plain textbook fusers; they exist to feed the
evaluation harness with distinguishable candidates, not to compete with
production algorithms.

All three inject detail into the upsampled image they own, in place:
CN scales its planes, ATWT adds the pan's detail, PCA adds to band b
v1[b] * (matched_pan - PC1), v1 the first principal axis and PC1 the
centred bands' projection on it (PC1 substitution and back-projection,
up to float64 rounding: 1e-10 relative at most on synthetic scenes).
Each fused image wraps that buffer, whose samples it checks again.

Each fuser takes the MS and the pan as raster.Image, so either may be
left on disk: upsample() reads the MS one band at a time, and the pan is
read a strip of rows at a time to inject. PCA and CN also read the pan
whole once, before the upsample, for its mean and std, and beside the
upsampled buffer each holds one pan-sized float64 work plane, PCA's PC1
or CN's intensity, whose whole-plane mean and std it needs. These are
taken in that plane, in place and bit-identical to ndarray.std(), and
the plane is then rebuilt by the call that made it. ATWT holds no such
plane: it smooths a window of pan rows at a time (see _smooth_rows),
bit-identical to smoothing the whole plane. The matched pan, PCA's
detail, CN's scale and ATWT's detail are formed a strip at a time, with
the elementwise operations of a whole-plane pass in its order, so each
sample is the one that pass gives. The strips come from
raster.row_strips and raster.STRIP_BYTES.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError
from .raster import Image, MultibandImage, row_strips
from .resample import mirror_filter, upsample

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


def _mean_std(plane: np.ndarray) -> tuple[float, float]:
    """(plane.mean(), plane.std()) bit for bit, the deviations squared in
    place, as ndarray.std() squares them in a temporary: plane is spent."""
    mean = plane.mean()
    np.subtract(plane, mean, out=plane)
    np.square(plane, out=plane)
    return mean, np.sqrt(plane.sum() / plane.size)


def _matched_strips(pan: Image, pan_stats, target_stats):
    """(rows, matched) for each row_strips() strip of pan rows: their
    slice and those rows mapped affinely so that the whole pan's mean and
    std become the target's (a constant pan maps to the target's mean).
    matched is one buffer, refilled for each strip."""
    s_mean, s_std = pan_stats
    t_mean, t_std = target_stats
    strips = list(row_strips(pan.height, 8 * pan.width))
    buf = np.empty((strips[0][1], pan.width))
    for start, stop in strips:
        out = buf[:stop - start]
        if s_std < _EPS:
            out[...] = t_mean
        else:
            np.subtract(pan.rows(0, start, stop), s_mean, out=out)
            out *= t_std / s_std
            out += t_mean
        yield slice(start, stop), out


def pansharpen_pca(ms: Image, pan: Image,
                   cfg: FusionConfig) -> MultibandImage:
    """Component substitution: swap the first principal component for the
    mean/std-matched pan band, by injection into the upsampled bands."""
    ratio = check_shapes(ms, pan)
    if ms.bands < 2:
        raise InputError("PCA fusion needs at least two bands")
    pan_stats = _mean_std(pan.band(0).copy())
    up = upsample(ms, ratio, cfg.resampler)
    x = up.planes.reshape(ms.bands, -1)   # a view of the buffer
    mean = x.mean(axis=1)
    x -= mean[:, None]
    evals, evecs = np.linalg.eigh((x @ x.T) / x.shape[1])
    top = np.argsort(evals)[-1]   # first in descending order
    if evals[top] < _EPS:
        raise DegeneracyError("rank-deficient: all bands constant")
    # the sign that makes the component sum non-negative
    v1 = -evecs[:, top] if evecs[:, top].sum() < 0 else evecs[:, top]
    pc1 = np.empty(up.planes.shape[1:])
    np.matmul(v1, x, out=pc1.reshape(-1))
    pc1_stats = _mean_std(pc1)
    np.matmul(v1, x, out=pc1.reshape(-1))
    for rows, detail in _matched_strips(pan, pan_stats, pc1_stats):
        detail -= pc1[rows]
        for v, m, plane in zip(v1, mean, up.planes[:, rows]):
            plane += np.multiply(v, detail, out=pc1[rows])   # spent rows
            plane += m
    return MultibandImage(up.planes, band_names=ms.band_names)


def pansharpen_cn(ms: Image, pan: Image,
                  cfg: FusionConfig) -> MultibandImage:
    """Brovey-style intensity scaling: fused = up * matched_pan / intensity."""
    ratio = check_shapes(ms, pan)
    pan_stats = _mean_std(pan.band(0).copy())
    up = upsample(ms, ratio, cfg.resampler)
    intensity = np.empty(up.planes.shape[1:])
    np.mean(up.planes, axis=0, out=intensity)
    intensity_stats = _mean_std(intensity)
    np.mean(up.planes, axis=0, out=intensity)
    np.maximum(intensity, _EPS, out=intensity)
    for rows, scale in _matched_strips(pan, pan_stats, intensity_stats):
        scale /= intensity[rows]
        for plane in up.planes[:, rows]:
            plane *= scale
    return MultibandImage(up.planes, band_names=ms.band_names)


_B3 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _smooth_rows(pan: Image, start: int, stop: int, levels: int
                 ) -> np.ndarray:
    """Rows [start, stop) of the pan's a-trous smooth plane after levels
    B3 filters, bit for bit those of filtering the whole plane. They are
    filtered from the pan rows they reach alone, and each level computes
    only the rows that the levels after it read: a row of level k reads
    the rows up to 2 * 2**k away, mirrored only at the pan's own top and
    bottom, so no row kept reads past the window's cut."""
    reach = 2 * (2**levels - 1)   # the rows on either side all levels read
    lo = max(0, start - reach)
    smooth = pan.rows(0, lo, min(pan.height, stop + reach))
    for level in range(levels):
        reach -= 2 * 2**level      # the rows the later levels read
        a, b = max(0, start - reach), min(pan.height, stop + reach)
        smooth = mirror_filter(smooth, _B3, 2**level,
                               keep=(slice(a - lo, b - lo), slice(None)))
        lo = a
    return smooth


def pansharpen_atwt(ms: Image, pan: Image,
                    cfg: FusionConfig) -> MultibandImage:
    """Add the pan image's a-trous detail planes to every upsampled band."""
    ratio = check_shapes(ms, pan)
    levels = cfg.wavelet_levels
    if levels > int(np.log2(max(ratio, 1))) + 2:
        raise InputError("wavelet_levels too large for this scale ratio")
    up = upsample(ms, ratio, cfg.resampler)
    strips = list(row_strips(up.height, 8 * up.width))
    # each window of whole strips at least 8 * (2**levels - 1) rows tall,
    # four times the reach, so few halo rows are filtered twice. 1024^2
    # smoothing, 2 levels, windows of 1 / 2 / 4 32-row strips: 35 / 32 /
    # 30 ms median, whole plane 33; 2048^2, 16-row strips: 157 / 135 /
    # 123, whole plane 136 (2-vCPU Xeon, 1 BLAS thread)
    per_window = -(-8 * (2**levels - 1) // strips[0][1])
    for k in range(0, len(strips), per_window):
        window = strips[k:k + per_window]
        first = window[0][0]
        smooth = _smooth_rows(pan, first, window[-1][1], levels)
        for start, stop in window:
            detail = smooth[start - first:stop - first]
            np.subtract(pan.rows(0, start, stop), detail, out=detail)
            for plane in up.planes[:, start:stop]:
                plane += detail
        del smooth, detail   # not held while the next window is filtered
    return MultibandImage(up.planes, band_names=ms.band_names)


# each method's fuser and its free parameters: the tuning knobs a user
# must pick, reported as a process cost
_FUSERS = {
    "pca": (pansharpen_pca, 1),
    "cn": (pansharpen_cn, 1),
    "atwt": (pansharpen_atwt, 2),
}
FUSION_METHODS = tuple(_FUSERS)


def pansharpen(ms: Image, pan: Image, cfg: FusionConfig
               ) -> tuple[MultibandImage, dict]:
    """Run the configured fuser; returns (fused, process metadata)."""
    fuse, n_free_parameters = _FUSERS[cfg.method]
    t0 = time.perf_counter()
    fused = fuse(ms, pan, cfg)
    meta = {
        "method": cfg.method,
        "resampler": cfg.resampler,
        "wall_seconds": time.perf_counter() - t0,
        "n_free_parameters": n_free_parameters,
    }
    return fused, meta
