"""Scale-change operators: MTF-matched Gaussian degradation and upsampling.

degrade() implements the reduced-resolution protocol's low-pass +
decimation step; the Gaussian is sized so its transfer function reaches a
chosen gain at the low-resolution Nyquist frequency. upsample() provides
the nearest/bilinear/bicubic resamplers used to bring the multi-spectral
bands up to the panchromatic grid before fusion.

Every resampler is one operator: per axis, a banded matrix of unit-sum
rows, mirror padded (edge sample not repeated: a tap that falls outside
the axis adds its weight to its mirror image), and the output is
my @ band @ mx.T. banded() builds such a matrix from each tap's source
positions and weights, for all output rows of an axis at once, and
holds it as blocks of BLOCK_ROWS output rows, each over the columns of
its nonzero weights only, so no dense (n_out, n_in) matrix is made.
filter_blocks() gives the matrix of a correlation with 1-D taps that
keeps every ratio-th sample: degrade()'s, and at ratio 1 the a-trous
fuser's smoothing. upsample()'s holds the Keys (bicubic), bilinear or
nearest weights; at ratio 1 every one of them is the identity.

separable() applies a pair of them. It yields the output one block of
rows at a time, refilled in one (bands, BLOCK_ROWS, width) buffer, and
makes each band's block from the source rows that the block's columns
span alone, read through the image's rows(b, start, stop): the block's
weights times those rows, then each x-axis block's columns of that
product times its weights, transposed. An input may so be a
raster.RasterFile, of which the rows one block reaches are held. The
fusers inject into each block that upsample() yields and
raster.save_rows writes it, so `panqa fuse` never holds the upsampled or
the fused image; degrade() copies each block into its (bands, height,
width) output, so `panqa degrade` never holds an input band.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .raster import Image, MultibandImage

DEFAULT_MTF_GAIN_MS = 0.3
DEFAULT_MTF_GAIN_PAN = 0.15

UPSAMPLE_METHODS = ("nearest", "bilinear", "bicubic")

# the output rows of one block of a banded matrix, and of the buffer that
# separable() refills. A 4-band 256^2 -> 1024^2 bicubic upsample took
# 51.1, 37.1, 37.9 and 51.2 ms at 32, 64, 128 and 256 rows (best of 10,
# 1 BLAS thread, 2-vCPU Xeon)
BLOCK_ROWS = 64


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


def banded(n_in: int, positions: np.ndarray, weights: np.ndarray) -> list:
    """The matrix of n_in columns whose row i holds, for each tap t in
    order, weights[t, i] added at column positions[t, i], mirrored into
    [0, n_in); weights broadcasts to positions' (taps, n_out) shape. It
    is cut into blocks of BLOCK_ROWS rows, each as (rows, cols,
    weights): the block's rows, the range of columns that holds its
    nonzero weights, and the block over those columns."""
    cols = _mirror_indices(n_in, positions)
    n_out = cols.shape[1]
    starts = range(0, n_out, BLOCK_ROWS)
    lo = np.minimum.reduceat(cols.min(axis=0), starts)
    width = np.maximum.reduceat(cols.max(axis=0), starts) - lo + 1
    # row i's weights from its block's first column lo on, each tap added
    # to what the taps before it left, as np.add.at adds them
    dense = np.zeros((n_out, width.max()))
    rows = np.arange(n_out)
    for c, w in zip(cols - lo[rows // BLOCK_ROWS],
                    np.broadcast_to(weights, cols.shape)):
        dense[rows, c] += w
    blocks = []
    for r0, c0 in zip(starts, lo.tolist()):
        block = dense[r0:r0 + BLOCK_ROWS]
        # a block whose weights are all zero spans no column
        nonzero = np.flatnonzero(block.any(axis=0)).tolist() or [0, -1]
        a, b = nonzero[0], nonzero[-1] + 1
        blocks.append((slice(r0, r0 + len(block)), slice(c0 + a, c0 + b),
                       block[:, a:b].copy()))
    return blocks


def filter_blocks(n: int, taps: np.ndarray, ratio: int = 1) -> list:
    """banded() of the correlation of n samples with taps (anchor
    (len(taps)-1)//2), keeping the samples (ratio-1)//2, and every
    ratio-th after it."""
    offsets = np.arange(len(taps)) - (len(taps) - 1) // 2
    kept = np.arange((ratio - 1) // 2, n, ratio)
    return banded(n, kept + offsets[:, None], np.asarray(taps)[:, None])


def separable(img: Image, my: list, mx: list):
    """Yields my @ band @ mx.T of every band of img, my and mx blocks of
    banded(), one block of my's rows at a time and in row order, as
    (rows, block): rows the block's slice of my's rows, block its
    (bands, r, width) samples. block is one buffer, refilled for each
    block: a caller that keeps a block copies it."""
    buf = np.empty((img.bands, min(BLOCK_ROWS, my[-1][0].stop),
                    mx[-1][0].stop))
    for rows, cols, wy in my:
        block = buf[:, :rows.stop - rows.start]
        for b, out in enumerate(block):
            part = wy @ img.rows(b, cols.start, cols.stop)
            for rows_x, cols_x, wx in mx:
                np.matmul(part[:, cols_x], wx.T, out=out[:, rows_x])
            # freed, so that the next band's product is not made beside it
            del part
        yield rows, block


def degrade(img: Image, ratio: int,
            taps: np.ndarray | None = None) -> MultibandImage:
    """Low-pass with the separable taps (anchor (len-1)//2, unit sum),
    then decimate by ratio (centered phase). taps default to the MS
    Gaussian, which is no filter at ratio 1.

    img is read a block of rows at a time (see separable()), so it may
    be a raster.RasterFile, of which the rows of one block are held
    beside the output. Only the kept samples are filtered."""
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
    planes = np.empty((img.bands, img.height // ratio, img.width // ratio))
    for rows, block in separable(img, filter_blocks(img.height, taps, ratio),
                                 filter_blocks(img.width, taps, ratio)):
        planes[:, rows] = block
    return MultibandImage(planes, band_names=img.band_names)


def _interp_blocks(n_in: int, ratio: int, method: str) -> list:
    """banded() of one axis's (n_in * ratio, n_in) interpolation."""
    x = (np.arange(n_in * ratio) + 0.5) / ratio - 0.5
    i0 = np.floor(x).astype(int)
    frac = x - i0
    if method == "nearest":   # output sample i repeats source i // ratio
        return banded(n_in, np.arange(n_in * ratio)[None] // ratio, 1.0)
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
    return banded(n_in, i0 + np.array(offsets)[:, None], weights)


def upsample(img: Image, ratio: int, method: str = "bicubic"):
    """Yields the image scaled up by an integer ratio, as separable()
    yields it: one block of BLOCK_ROWS output rows at a time and in row
    order, as (rows, block), block one buffer refilled for each block.
    img is read through rows(b, ...), so it may be a raster.RasterFile,
    of which the source rows of one block are held."""
    if method not in UPSAMPLE_METHODS:
        raise InputError(f"unknown method {method!r}")
    if ratio < 1:
        raise InputError("ratio must be >= 1")
    yield from separable(img, _interp_blocks(img.height, ratio, method),
                         _interp_blocks(img.width, ratio, method))
