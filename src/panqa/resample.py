"""Scale-change operators: MTF-matched Gaussian degradation and upsampling.

degrade() implements the reduced-resolution protocol's low-pass +
decimation step; the Gaussian is sized so its transfer function reaches a
chosen gain at the low-resolution Nyquist frequency. upsample() provides
the nearest/bilinear/bicubic resamplers used to bring the multi-spectral
bands up to the panchromatic grid before fusion.

All border handling is mirror padding (edge pixel not repeated) and all
kernels have unit DC gain. mirror_filter() is the one separable
mirror-boundary filter, shared by degrade() and the a-trous fuser;
degrade() asks it for the decimated samples only. It mirror pads each
axis once and reads every tap as a strided view of the padded block.

degrade() and upsample() write each output band into one preallocated
(bands, height, width) buffer and wrap it with MultibandImage.from_planes,
so the result is never stacked from a list of separate planes.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .raster import MultibandImage

DEFAULT_MTF_GAIN_MS = 0.3
DEFAULT_MTF_GAIN_PAN = 0.15

UPSAMPLE_METHODS = ("nearest", "bilinear", "bicubic")


def mtf_gaussian_kernel(ratio: int, mtf_gain: float) -> np.ndarray:
    """Unit-sum Gaussian taps whose transfer equals mtf_gain at
    f = 1/(2*ratio); at ratio 1, which keeps every sample, the single
    tap [1.0], that is no filter."""
    if ratio < 1:
        raise InputError("ratio must be >= 1")
    if not 0.0 < mtf_gain < 1.0:
        raise InputError("mtf_gain must lie in (0, 1)")
    if ratio == 1:
        return np.ones(1)
    f_nyq = 1.0 / (2.0 * ratio)
    sigma = np.sqrt(-np.log(mtf_gain) / (2.0 * np.pi**2 * f_nyq**2))
    radius = int(np.ceil(4.0 * sigma))
    n = np.arange(-radius, radius + 1)
    taps = np.exp(-(n**2) / (2.0 * sigma**2))
    taps /= taps.sum()
    return taps


def _mirror_indices(n: int, idx: np.ndarray) -> np.ndarray:
    # reflect about the edge samples: -1 -> 1, n -> n-2
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    idx = np.abs(idx) % period
    return np.where(idx >= n, period - idx, idx)


def mirror_filter(plane: np.ndarray, taps: np.ndarray, step: int = 1,
                  keep: slice = slice(None)) -> np.ndarray:
    """Separable mirror-padded correlation of a plane with 1-D taps, along
    axis 0 then axis 1. The anchor is tap (len(taps)-1)//2 and tap t reads
    the sample (t - anchor)*step away, so step > 1 dilates the taps
    (a-trous). Only the output positions selected by keep (a slice with a
    positive step) along each axis are computed; each equals the same
    sample of the full output.

    Each axis is mirror padded once, over the extent the kept outputs
    read; every tap is then a strided view of the padded block."""
    anchor = (len(taps) - 1) // 2
    out = plane
    for axis in (0, 1):
        n = out.shape[axis]
        start, stop, stride = keep.indices(n)
        m = len(range(start, stop, stride))
        # padded[i] is the mirrored sample at start - anchor*step + i, so
        # tap t of output k < m reads padded[t*step + k*stride]; with m = 0
        # the span may be negative and every tap slice is empty
        lo = start - anchor * step
        span = (m - 1) * stride + (len(taps) - 1) * step + 1
        padded = np.take(out, _mirror_indices(n, np.arange(lo, lo + span)),
                         axis=axis)
        shape = list(out.shape)
        shape[axis] = m
        acc = np.zeros(shape, dtype=out.dtype)
        index = [slice(None), slice(None)]
        for t, w in enumerate(taps):
            index[axis] = slice(t * step, t * step + m * stride, stride)
            acc += w * padded[tuple(index)]
        out = acc
    return out


def degrade(img: MultibandImage, ratio: int,
            taps: np.ndarray | None = None) -> MultibandImage:
    """Low-pass with the separable taps (anchor (len-1)//2, unit sum),
    then decimate by ratio (centered phase). taps default to the MS
    Gaussian, which is no filter at ratio 1.

    Only the kept samples are filtered; they equal those of filtering the
    whole plane and then decimating, bit for bit."""
    if ratio < 1:
        raise InputError("ratio must be >= 1")
    if img.height % ratio or img.width % ratio:
        raise InputError(
            f"dimensions {img.height}x{img.width} not divisible by {ratio}")
    if taps is None:
        taps = mtf_gaussian_kernel(ratio, DEFAULT_MTF_GAIN_MS)
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 1 or taps.size < 1:
        raise InputError("taps must be a non-empty 1-D array")
    if abs(taps.sum() - 1.0) > 1e-12:
        raise InputError("taps must sum to 1 (unit DC gain)")
    keep = slice((ratio - 1) // 2, None, ratio)
    planes = np.empty((img.bands, img.height // ratio, img.width // ratio))
    for src, out in zip(img.planes, planes):
        out[...] = mirror_filter(src, taps, keep=keep)
    return MultibandImage.from_planes(planes, band_names=img.band_names)


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
    h, w = img.height, img.width
    planes = np.empty((img.bands, h * ratio, w * ratio))
    if ratio == 1:
        planes[...] = img.planes
    elif method == "nearest":
        # each sample broadcast over its ratio x ratio block, no repeats
        planes.reshape(img.bands, h, ratio, w, ratio)[...] = \
            img.planes[:, :, None, :, None]
    else:
        my = _interp_matrix(h, ratio, method)
        mxt = _interp_matrix(w, ratio, method).T
        for src, out in zip(img.planes, planes):
            np.matmul(my @ src, mxt, out=out)
    return MultibandImage.from_planes(planes, band_names=img.band_names)
