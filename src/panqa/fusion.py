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

Beside that buffer and the pan, each fuser holds at most two pan-sized
float64 work planes at once: CN the intensity and the scale (the
matched pan, divided in place by the clamped intensity); PCA PC1 and
the detail, with PC1's buffer reused for each band's v1[b] * detail;
ATWT two smooth planes of the pan, or a smooth one and the detail,
and only the detail once it upsamples. The mean/std matching takes its
moments before it allocates its one output plane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError
from .raster import MultibandImage
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


def check_shapes(ms: MultibandImage, pan: np.ndarray
                 ) -> tuple[int, np.ndarray]:
    """Check pan against ms; returns (PAN/MS ratio, pan as float64)."""
    pan = np.asarray(pan, dtype=np.float64)
    if pan.ndim != 2:
        raise InputError("pan must be a single 2-D band")
    if pan.shape[0] % ms.height or pan.shape[1] % ms.width:
        raise InputError("pan dimensions must be integer multiples of ms")
    ratio = pan.shape[0] // ms.height
    if pan.shape[1] // ms.width != ratio:
        raise InputError("pan/ms ratio differs between axes")
    return ratio, pan


def _match_mean_std(src: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Affine-map src so its global mean/std equal target's, in one new
    array; every moment is taken before it is allocated."""
    t_mean, t_std, s_std = target.mean(), target.std(), src.std()
    if s_std < _EPS:
        return np.full_like(src, t_mean)
    out = src - src.mean()
    out *= t_std / s_std
    out += t_mean
    return out


def pansharpen_pca(ms: MultibandImage, pan: np.ndarray,
                   cfg: FusionConfig) -> MultibandImage:
    """Component substitution: swap the first principal component for the
    mean/std-matched pan band, by injection into the upsampled bands."""
    ratio, pan = check_shapes(ms, pan)
    if ms.bands < 2:
        raise InputError("PCA fusion needs at least two bands")
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
    pc1 = (v1 @ x).reshape(up.planes.shape[1:])
    detail = _match_mean_std(pan, pc1)
    detail -= pc1
    for v, m, plane in zip(v1, mean, up.planes):
        plane += np.multiply(v, detail, out=pc1)   # pc1 is spent
        plane += m
    return MultibandImage(up.planes, band_names=ms.band_names)


def pansharpen_cn(ms: MultibandImage, pan: np.ndarray,
                  cfg: FusionConfig) -> MultibandImage:
    """Brovey-style intensity scaling: fused = up * matched_pan / intensity."""
    ratio, pan = check_shapes(ms, pan)
    up = upsample(ms, ratio, cfg.resampler)
    intensity = up.planes.mean(axis=0)
    scale = _match_mean_std(pan, intensity)
    scale /= np.maximum(intensity, _EPS, out=intensity)
    for plane in up.planes:
        plane *= scale
    return MultibandImage(up.planes, band_names=ms.band_names)


_B3 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def pansharpen_atwt(ms: MultibandImage, pan: np.ndarray,
                    cfg: FusionConfig) -> MultibandImage:
    """Add the pan image's a-trous detail planes to every upsampled band."""
    ratio, pan = check_shapes(ms, pan)
    if cfg.wavelet_levels > int(np.log2(max(ratio, 1))) + 2:
        raise InputError("wavelet_levels too large for this scale ratio")
    smooth = pan
    for level in range(cfg.wavelet_levels):
        smooth = mirror_filter(smooth, _B3, 2**level)
    detail = pan - smooth
    del smooth
    # upsampled only now, so the filter's temporaries never meet it
    up = upsample(ms, ratio, cfg.resampler)
    for plane in up.planes:
        plane += detail
    return MultibandImage(up.planes, band_names=ms.band_names)


# each method's fuser and its free parameters: the tuning knobs a user
# must pick, reported as a process cost
_FUSERS = {
    "pca": (pansharpen_pca, 1),
    "cn": (pansharpen_cn, 1),
    "atwt": (pansharpen_atwt, 2),
}
FUSION_METHODS = tuple(_FUSERS)


def pansharpen(ms: MultibandImage, pan: np.ndarray, cfg: FusionConfig
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
