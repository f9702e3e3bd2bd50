"""Scale-change operators: MTF-matched Gaussian degradation and upsampling.

degrade() implements the reduced-resolution protocol's low-pass +
decimation step; the Gaussian is sized so its transfer function reaches a
chosen gain at the low-resolution Nyquist frequency. upsample() provides
the nearest/bilinear/bicubic resamplers used to bring the multi-spectral
bands up to the panchromatic grid before fusion.

All border handling is mirror padding (edge pixel not repeated) and all
kernels have unit DC gain. mirror_filter() is the one separable
mirror-boundary filter, shared by degrade() and the a-trous fuser;
degrade() asks it for the decimated samples only, the fuser for the
rows of a window of pan rows that its later levels read. It filters one
strip of output rows at a time, in cache, and bit-identically for any
strip height; its strip buffers are sized by raster.STRIP_BYTES, read at
each call. upsample() multiplies each block of interpolation-matrix rows
over its nonzero columns only, for every method and ratio: a nearest
matrix holds one weight of 1.0 per row, and at ratio 1 every matrix is
the identity.

degrade() writes each output band into one preallocated (bands, height,
width) buffer, which the returned image holds without a copy, and reads
its input one band at a time through raster.Image's band(b).
upsample() is a generator of blocks of 64 output rows of every band,
refilled in one buffer, whose rows it reads from its input through
rows(b, start, stop): the fusers inject into each block and
raster.save_rows writes it, so `panqa degrade` and `panqa fuse` read a
raster.RasterFile and never hold the whole input, and `panqa fuse` never
holds the upsampled or the fused image.
"""

from __future__ import annotations

import numpy as np

from . import raster
from .errors import InputError
from .raster import Image, MultibandImage

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
                  keep: slice | tuple[slice, slice] = slice(None)
                  ) -> np.ndarray:
    """Separable mirror-padded correlation of a plane with 1-D taps, along
    axis 0 then axis 1. The anchor is tap (len(taps)-1)//2 and tap t reads
    the sample (t - anchor)*step away, so step > 1 dilates the taps
    (a-trous). Only the output positions selected by keep are computed:
    a slice with a positive step for both axes, or a (rows, columns) pair
    of them. Each equals the same sample of the full output.

    Each strip of output rows is filtered along axis 0 into a buffer,
    mirror padded along axis 1 and filtered from there while in cache.
    On each axis every sample is the sum from zero of taps[t] * sample,
    in tap order, as a whole-plane pass forms it. The padded strip and a
    border strip's mirrored rows each hold about raster.STRIP_BYTES, and
    the axis-0 sums and tap products as much again each."""
    n0, n1 = plane.shape
    keeps = keep if isinstance(keep, tuple) else (keep, keep)
    r0, r1 = (range(*k.indices(n)) for k, n in zip(keeps, plane.shape))
    out = np.zeros((len(r0), len(r1)), dtype=plane.dtype)
    if out.size == 0:
        return out
    first = -((len(taps) - 1) // 2) * step   # the offset tap 0 reads
    reach = (len(taps) - 1) * step           # from tap 0 to the last tap
    # a buf row holds input columns 0 .. n1-1 from column left on, and
    # their mirror images on either side out to the columns the taps read
    left = max(0, -(r1.start + first))
    width = left + max(n1, r1[-1] + first + reach + 1)
    pads = np.r_[0:left, left + n1:width]
    mirrored = _mirror_indices(n1, pads - left) + left
    rows = max(1, raster.STRIP_BYTES // (width * out.itemsize))
    buf = np.empty((rows, width), dtype=plane.dtype)
    # contiguous, the sums and products run faster than on views of buf
    acc0 = np.empty((rows, n1), dtype=plane.dtype)
    tmp = np.empty(rows * n1, dtype=np.result_type(plane, *taps))
    mirror_rows = max(1, (raster.STRIP_BYTES // (n1 * plane.itemsize)
                          - reach - 1) // r0.step + 1)
    k0 = 0
    while k0 < len(r0):
        lo = r0[k0] + first
        # how many output rows from k0 on read only rows inside the plane
        inside = (n0 - lo - reach - 1) // r0.step + 1 if lo >= 0 else 0
        m = min(rows, len(r0) - k0, inside if inside > 0 else mirror_rows)
        span = (m - 1) * r0.step + reach + 1
        src = (plane[lo:lo + span] if inside > 0 else
               plane[_mirror_indices(n0, np.arange(lo, lo + span))])
        acc, prod = acc0[:m], tmp[:m * n1].reshape(m, n1)
        acc[...] = 0
        for t, w in enumerate(taps):
            acc += np.multiply(w, src[t * step:t * step + m * r0.step:r0.step],
                               out=prod)
        del src   # so that two mirrored copies are never held at once
        strip = buf[:m]
        strip[:, left:left + n1] = acc
        strip[:, pads] = strip[:, mirrored]
        acc, prod = out[k0:k0 + m], tmp[:m * len(r1)].reshape(m, len(r1))
        for t, w in enumerate(taps):
            c = left + r1.start + first + t * step
            acc += np.multiply(w, strip[:, c:c + len(r1) * r1.step:r1.step],
                               out=prod)
        k0 += m
    return out


def degrade(img: Image, ratio: int,
            taps: np.ndarray | None = None) -> MultibandImage:
    """Low-pass with the separable taps (anchor (len-1)//2, unit sum),
    then decimate by ratio (centered phase). taps default to the MS
    Gaussian, which is no filter at ratio 1.

    img is read one band at a time through band(b), so it may be a
    raster.RasterFile, of which one band is held beside the output. Only
    the kept samples are filtered; they equal those of filtering the
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
    for b, out in enumerate(planes):
        out[...] = mirror_filter(img.band(b), taps, keep=keep)
    return MultibandImage(planes, band_names=img.band_names)


def _interp_matrix(n_in: int, ratio: int, method: str) -> np.ndarray:
    """(n_in*ratio, n_in) weight matrix for one axis, mirror padded."""
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


def upsample(img: Image, ratio: int, method: str = "bicubic"):
    """Yields the image scaled up by an integer ratio, one block of 64
    output rows at a time and in row order, as (rows, block): rows the
    block's slice of [0, height * ratio), block its (bands, r,
    width * ratio) samples. block is one buffer, refilled for each
    block: a caller that keeps a block copies it.

    Each band's rows are made from the source rows they reach alone,
    read through img.rows(b, ...), so img may be a raster.RasterFile, of
    which a few source rows are held beside the block. Every sample is
    the one that upsampling the whole plane gives, bit for bit."""
    if method not in UPSAMPLE_METHODS:
        raise InputError(f"unknown method {method!r}")
    if ratio < 1:
        raise InputError("ratio must be >= 1")
    h, w = img.height, img.width
    # out = my @ src @ mx.T, one output tile per pair of row blocks
    my = _row_blocks(_interp_matrix(h, ratio, method))
    mx = _row_blocks(_interp_matrix(w, ratio, method))
    buf = np.empty((img.bands, min(64, h * ratio), w * ratio))
    for rows, cols, wy in my:
        block = buf[:, :rows.stop - rows.start]
        for b, out in enumerate(block):
            part = wy @ img.rows(b, cols.start, cols.stop)
            for rows_x, cols_x, wx in mx:
                np.matmul(part[:, cols_x], wx.T, out=out[:, rows_x])
        yield rows, block


def _row_blocks(mat: np.ndarray) -> list:
    """mat cut into blocks of 64 rows, each as (rows, cols, weights):
    the block's rows, the range of columns that holds its nonzero
    weights, and a copy of the block over those columns, so that no
    block keeps mat alive. A 4-band 256^2 -> 1024^2 bicubic upsample
    took 51.1, 37.1, 37.9 and 51.2 ms at 32, 64, 128 and 256 rows (best
    of 10, 1 BLAS thread, 2-vCPU Xeon)."""
    blocks = []
    for r0 in range(0, mat.shape[0], 64):
        rows = slice(r0, min(r0 + 64, mat.shape[0]))
        nonzero = np.flatnonzero(mat[rows].any(axis=0))
        cols = slice(nonzero[0], nonzero[-1] + 1)
        blocks.append((rows, cols, mat[rows, cols].copy()))
    return blocks
