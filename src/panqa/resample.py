"""Scale-change operators: MTF-matched Gaussian degradation and upsampling.

degrade() implements the reduced-resolution protocol's low-pass +
decimation step; the Gaussian is sized so its transfer function reaches a
chosen gain at the low-resolution Nyquist frequency. upsample() provides
the nearest/bilinear/bicubic resamplers used to bring the multi-spectral
bands up to the panchromatic grid before fusion.

All border handling is mirror padding (edge pixel not repeated) and all
kernels have unit DC gain. mirror_filter() is the one separable
mirror-boundary filter, shared by degrade() and the a-trous fuser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .raster import MultibandImage

DEFAULT_MTF_GAIN_MS = 0.3
DEFAULT_MTF_GAIN_PAN = 0.15

UPSAMPLE_METHODS = ("nearest", "bilinear", "bicubic")


@dataclass
class MtfKernel:
    """Separable low-pass filter: 1-D taps applied along both axes.

    The anchor (filter origin) is tap index (len-1)//2, which for the
    even-length box kernel aligns a decimation at offset (r-1)//2 with
    r x r input blocks.
    """

    taps: np.ndarray
    ratio: int
    mtf_gain: float

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=np.float64)
        if t.ndim != 1 or t.size < 1:
            raise InputError("taps must be a non-empty 1-D array")
        if abs(t.sum() - 1.0) > 1e-12:
            raise InputError("taps must sum to 1 (unit DC gain)")
        self.taps = t

    @property
    def anchor(self) -> int:
        return (self.taps.size - 1) // 2

    def transfer(self, freq: float) -> float:
        """Discrete-time transfer magnitude at the given frequency
        (cycles per high-resolution pixel), evaluated about the anchor."""
        n = np.arange(self.taps.size) - self.anchor
        return float(np.abs(np.sum(self.taps * np.exp(-2j * np.pi * freq * n))))


def mtf_gaussian_kernel(ratio: int, mtf_gain: float) -> MtfKernel:
    """Gaussian whose transfer equals mtf_gain at f = 1/(2*ratio)."""
    if ratio < 2:
        raise InputError("ratio must be >= 2")
    if not 0.0 < mtf_gain < 1.0:
        raise InputError("mtf_gain must lie in (0, 1)")
    f_nyq = 1.0 / (2.0 * ratio)
    sigma = np.sqrt(-np.log(mtf_gain) / (2.0 * np.pi**2 * f_nyq**2))
    radius = int(np.ceil(4.0 * sigma))
    n = np.arange(-radius, radius + 1)
    taps = np.exp(-(n**2) / (2.0 * sigma**2))
    taps /= taps.sum()
    return MtfKernel(taps=taps, ratio=ratio, mtf_gain=mtf_gain)


def box_kernel(ratio: int) -> MtfKernel:
    """Plain block average over ratio taps (used by the consistency check)."""
    if ratio < 1:
        raise InputError("ratio must be >= 1")
    return MtfKernel(taps=np.full(ratio, 1.0 / ratio), ratio=max(ratio, 1),
                     mtf_gain=1.0)


def identity_kernel() -> MtfKernel:
    return MtfKernel(taps=np.array([1.0]), ratio=1, mtf_gain=1.0)


def _mirror_indices(n: int, idx: np.ndarray) -> np.ndarray:
    # reflect about the edge samples: -1 -> 1, n -> n-2
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    idx = np.abs(idx) % period
    return np.where(idx >= n, period - idx, idx)


def mirror_filter(plane: np.ndarray, taps: np.ndarray, step: int = 1
                  ) -> np.ndarray:
    """Separable mirror-padded correlation of a plane with 1-D taps, along
    axis 0 then axis 1. The anchor is tap (len(taps)-1)//2 and tap t reads
    the sample (t - anchor)*step away, so step > 1 dilates the taps
    (a-trous)."""
    anchor = (len(taps) - 1) // 2
    out = plane
    for axis in (0, 1):
        n = out.shape[axis]
        acc = np.zeros_like(out)
        base = np.arange(n)
        for t, w in enumerate(taps):
            src = _mirror_indices(n, base + (t - anchor) * step)
            acc += w * np.take(out, src, axis=axis)
        out = acc
    return out


def degrade(img: MultibandImage, ratio: int,
            kernel: MtfKernel | None = None) -> MultibandImage:
    """Low-pass with the kernel, then decimate by ratio (centered phase)."""
    if ratio < 1:
        raise InputError("ratio must be >= 1")
    if img.height % ratio or img.width % ratio:
        raise InputError(
            f"dimensions {img.height}x{img.width} not divisible by {ratio}")
    if kernel is None:
        kernel = (identity_kernel() if ratio == 1
                  else mtf_gaussian_kernel(ratio, DEFAULT_MTF_GAIN_MS))
    phase = (ratio - 1) // 2
    planes = []
    for b in range(img.bands):
        f = mirror_filter(img.samples[:, :, b], kernel.taps)
        planes.append(f[phase::ratio, phase::ratio])
    return MultibandImage(np.stack(planes, axis=2), band_names=img.band_names)


def _interp_matrix(n_in: int, ratio: int, method: str) -> np.ndarray:
    """(n_in*ratio, n_in) weight matrix for one axis, mirror padded."""
    x = (np.arange(n_in * ratio) + 0.5) / ratio - 0.5
    mat = np.zeros((n_in * ratio, n_in))
    i0 = np.floor(x).astype(int)
    frac = x - i0
    if method == "bilinear":
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


def upsample(img: MultibandImage, ratio: int, method: str = "bicubic"
             ) -> MultibandImage:
    """Scale up by an integer ratio; output is (H*ratio, W*ratio, B)."""
    if method not in UPSAMPLE_METHODS:
        raise InputError(f"unknown method {method!r}")
    if ratio < 1:
        raise InputError("ratio must be >= 1")
    if ratio == 1:
        return MultibandImage(img.samples.copy(), band_names=img.band_names)
    if method == "nearest":
        out = np.repeat(np.repeat(img.samples, ratio, axis=0), ratio, axis=1)
        return MultibandImage(out, band_names=img.band_names)
    my = _interp_matrix(img.height, ratio, method)
    mx = _interp_matrix(img.width, ratio, method)
    planes = [my @ img.samples[:, :, b] @ mx.T for b in range(img.bands)]
    return MultibandImage(np.stack(planes, axis=2), band_names=img.band_names)
