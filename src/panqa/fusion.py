"""Reference pansharpeners: PCA substitution, intensity-ratio (CN), and
additive a-trous wavelet detail injection.

These are deliberately plain textbook fusers; they exist to feed the
evaluation harness with distinguishable candidates, not to compete with
production algorithms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError
from .raster import MultibandImage
from .resample import mirror_filter, upsample

FUSION_METHODS = ("pca", "cn", "atwt")

# tuning knobs a user must pick for each method, reported as a process cost
_FREE_PARAMETERS = {"pca": 1, "cn": 1, "atwt": 2}

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

    @property
    def declared_free_parameters(self) -> int:
        return _FREE_PARAMETERS[self.method]


def _check_shapes(ms: MultibandImage, pan: np.ndarray) -> int:
    pan = np.asarray(pan, dtype=np.float64)
    if pan.ndim != 2:
        raise InputError("pan must be a single 2-D band")
    if pan.shape[0] % ms.height or pan.shape[1] % ms.width:
        raise InputError("pan dimensions must be integer multiples of ms")
    ratio = pan.shape[0] // ms.height
    if pan.shape[1] // ms.width != ratio:
        raise InputError("pan/ms ratio differs between axes")
    return ratio


def _match_mean_std(src: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Affine-map src so its global mean/std equal target's."""
    s_std = src.std()
    if s_std < _EPS:
        return np.full_like(src, target.mean())
    return (src - src.mean()) * (target.std() / s_std) + target.mean()


def pansharpen_pca(ms: MultibandImage, pan: np.ndarray,
                   cfg: FusionConfig) -> MultibandImage:
    """Component substitution: swap the first principal component for the
    mean/std-matched pan band."""
    ratio = _check_shapes(ms, pan)
    if ms.bands < 2:
        raise InputError("PCA fusion needs at least two bands")
    up = upsample(ms, ratio, cfg.resampler)
    h, w, b = up.samples.shape
    x = up.samples.reshape(-1, b)
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, bias=True)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] < _EPS:
        raise DegeneracyError("rank-deficient: all bands constant")
    # fix eigenvector sign so component sums are non-negative
    signs = np.where(evecs.sum(axis=0) < 0, -1.0, 1.0)
    evecs = evecs * signs
    pcs = (x - mean) @ evecs
    pc1 = pcs[:, 0].reshape(h, w)
    pcs[:, 0] = _match_mean_std(np.asarray(pan, dtype=np.float64),
                                pc1).ravel()
    fused = pcs @ evecs.T + mean
    return MultibandImage(fused.reshape(h, w, b), band_names=ms.band_names)


def pansharpen_cn(ms: MultibandImage, pan: np.ndarray,
                  cfg: FusionConfig) -> MultibandImage:
    """Brovey-style intensity scaling: fused = up * matched_pan / intensity."""
    ratio = _check_shapes(ms, pan)
    up = upsample(ms, ratio, cfg.resampler)
    intensity = up.samples.mean(axis=2)
    matched = _match_mean_std(np.asarray(pan, dtype=np.float64), intensity)
    scale = matched / np.maximum(intensity, _EPS)
    fused = up.samples * scale[:, :, None]
    return MultibandImage(fused, band_names=ms.band_names)


_B3 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def pansharpen_atwt(ms: MultibandImage, pan: np.ndarray,
                    cfg: FusionConfig) -> MultibandImage:
    """Add the pan image's a-trous detail planes to every upsampled band."""
    ratio = _check_shapes(ms, pan)
    if cfg.wavelet_levels > int(np.log2(max(ratio, 1))) + 2:
        raise InputError("wavelet_levels too large for this scale ratio")
    up = upsample(ms, ratio, cfg.resampler)
    pan = np.asarray(pan, dtype=np.float64)
    smooth = pan
    for level in range(cfg.wavelet_levels):
        smooth = mirror_filter(smooth, _B3, 2**level)
    detail = pan - smooth
    fused = up.samples + detail[:, :, None]
    return MultibandImage(fused, band_names=ms.band_names)


_DISPATCH = {
    "pca": pansharpen_pca,
    "cn": pansharpen_cn,
    "atwt": pansharpen_atwt,
}


def pansharpen(ms: MultibandImage, pan: np.ndarray, cfg: FusionConfig
               ) -> tuple[MultibandImage, dict]:
    """Run the configured fuser; returns (fused, process metadata)."""
    t0 = time.perf_counter()
    fused = _DISPATCH[cfg.method](ms, pan, cfg)
    meta = {
        "method": cfg.method,
        "resampler": cfg.resampler,
        "wall_seconds": time.perf_counter() - t0,
        "n_free_parameters": cfg.declared_free_parameters,
    }
    return fused, meta
