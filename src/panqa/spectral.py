"""Spectral comparison metrics and first-category summary statistics.

Covers the per-band moments (mean, std, skewness, kurtosis) and the
entropy of the band's gray-level map from glcm3.quantize_gray_levels,
Minkowski-1 cross-band cost aggregation, Pearson correlation, SAM over
the pixels with two nonzero spectral vectors, ERGAS, the block-wise
universal quality index Q, its four-band quaternion extension Q4, and the
no-reference QNR/D_lambda/D_s triple with all its exponents 1.

Images are read through raster.Image's rows(b, start, stop) alone, so
each may be a MultibandImage in memory or a raster.RasterFile on disk,
and no function holds a whole image: SAM reads one strip of rows of
every band at a time, ERGAS one band at a time, and Q, Q4 and QNR read
their block moments from _moment_strips, one strip at a time. Every shape
is compared by raster.check_shape. _q_maps gives a pair's Q in both
orders from one covariance, bit-identical to two separate evaluations.

SAM and _moment_strips take their strips from raster.row_strips, at one
byte per sample of each plane a strip row reads, so a strip holds
raster.STRIP_BYTES samples, 2 MiB of float64. qnr at 1024^2 ran alike
from 1 to 16 MiB, and slower at 256 KiB and at 64 MiB. With 32-row qnr
strips, not 48, glibc's heap layout raised `protocol` peak RSS from 89
to 100 MB; 40 to 96 rows did not.

A band's moments and its PCC read one copy of its centred samples,
made once by centre(): summary_stats holds one band-sized temporary
beside it (c*c, then (c*c)*(c*c), then (c*c)*c, for the deviations c),
or two where those powers under- or overflow (the scaled deviations and
their squares), and pcc one (the other band centred, then the product,
in place). The strips of SAM, Q4 and QNR stay below that.

All moments use the population (N-divisor) convention so that downstream
z-score standardization behaves exactly.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, InputError
from .raster import Image, check_shape, row_strips

DEFAULT_BLOCK = 8


class SummaryStats(NamedTuple):
    mean: float
    std: float
    skewness: float
    kurtosis: float
    entropy_bits: float


def centre(band: np.ndarray) -> tuple[np.ndarray, float]:
    """(band - mean, mean): a band's centred samples as float64, the one
    copy that summary_stats and pcc both read, and its mean."""
    x = np.asarray(band, dtype=np.float64)
    if x.size == 0:
        raise InputError("empty band")
    mean = x.mean()
    return x - mean, float(mean)


def summary_stats(centred: np.ndarray, mean: float, levels: np.ndarray
                  ) -> SummaryStats:
    """Population moments of a band, given its mean and its centred
    samples from centre(), plus the Shannon entropy (bits) of levels, the
    band's gray-level map from quantize_gray_levels. The centred samples
    are only read: beside them one band-sized temporary holds the squared
    deviations, then their squares, then the cubes."""
    c = np.asarray(centred, dtype=np.float64)
    if c.size == 0:
        raise InputError("empty band")
    if np.shape(levels) != c.shape:
        raise InputError("levels must map every sample of the band")
    # the levels first: bincount's intp copy of the map is freed before
    # the temporary of the moments exists
    counts = np.bincount(np.ravel(levels))
    p = counts[counts > 0] / c.size
    # 0.0 - sum, not -sum: a constant band's entropy is +0.0, not -0.0
    entropy = float(0.0 - (p * np.log2(p)).sum())
    # chained products: np.power for cubes and fourth powers is far slower.
    # The fourth powers are the squares squared in place; the squares are
    # formed once more for the cubes, so the centred samples stay intact.
    # Where the variance or std**4 is not a normal double, or a power of
    # the deviations overflows, the moments come from the scaled
    # deviations instead
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tmp = c * c
        var = np.mean(tmp)
        std = skew = kurt = math.nan
        if sys.float_info.min <= var < math.inf:
            std = math.sqrt(var)
            if sys.float_info.min <= np.float64(std)**4 < math.inf:
                kurt = np.mean(np.multiply(tmp, tmp, out=tmp)) / std**4
                np.multiply(c, c, out=tmp)
                skew = np.mean(np.multiply(tmp, c, out=tmp)) / std**3
        del tmp
    if not (math.isfinite(skew) and math.isfinite(kurt)):
        scaled_std, skew, kurt = _scaled_moments(c)
        if math.isnan(std):
            std = scaled_std
    return SummaryStats(float(mean), std, float(skew), float(kurt), entropy)


def _scaled_moments(centered: np.ndarray) -> tuple[float, float, float]:
    """Std, skewness and kurtosis from the deviations scaled to a largest
    magnitude of 1, where no power of them or of their std under- or
    overflows; all 0 for a band with no deviation."""
    scale = max(centered.max(), -centered.min())
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    z = centered / scale
    sq = z * z
    std = math.sqrt(np.mean(sq))
    # the cubes into z and the fourth powers into sq: two temporaries
    skew = np.mean(np.multiply(sq, z, out=z)) / std**3
    kurt = np.mean(np.multiply(sq, sq, out=sq)) / std**4
    return float(scale * std), float(skew), float(kurt)


def mdb_cost(stats_a, stats_b) -> float:
    """Mean absolute difference of per-band statistic values."""
    a = np.asarray(stats_a, dtype=np.float64)
    b = np.asarray(stats_b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError("band count mismatch")
    return float(np.mean(np.abs(a - b)))


def pcc(band_a: np.ndarray, centred_b: np.ndarray, stats_a: SummaryStats,
        stats_b: SummaryStats) -> float:
    """Pearson correlation with population normalization of band_a and a
    band b given by its centred samples from centre(). stats_a and
    stats_b are the bands' summary_stats, whose mean and std are the ones
    a Pearson correlation computes. One band-sized temporary is held:
    band_a centred, which becomes the product in place."""
    x = np.asarray(band_a, dtype=np.float64)
    yc = np.asarray(centred_b, dtype=np.float64)
    check_shape(yc, x.shape)
    if stats_a.std == 0.0 or stats_b.std == 0.0:
        raise DegeneracyError("zero variance")
    xc = x - stats_a.mean
    xc *= yc
    return float(np.mean(xc) / (stats_a.std * stats_b.std))


def inverse_pcc_cost(pccs: list[float]) -> float:
    """Mean over bands of (1 - PCC), given each band's pcc."""
    return float(np.mean([1.0 - p for p in pccs]))


def _band_rows(img: Image) -> list:
    """One row reader per band of img: reader(start, stop) is
    img.rows(b, start, stop)."""
    return [partial(img.rows, b) for b in range(img.bands)]


def _array_rows(plane: np.ndarray):
    """The row reader of a 2-D array: reader(start, stop) is its rows
    [start, stop)."""
    return lambda start, stop: plane[start:stop]


def sam_mean(img_a: Image, img_b: Image) -> float:
    """Mean spectral angle in degrees over the pixels whose spectral
    vectors are both nonzero. One strip of pixel rows at a time, read
    through rows(), the dot product and both squared norms are summed
    band by band; the strip's kept angles fill the next part of one
    angle buffer, in row order, and the mean is taken once, over the
    filled part."""
    check_shape(img_b, img_a.shape)
    bands, height, width = img_a.shape
    angles = np.empty(height * width)
    n = 0
    for r, stop in row_strips(height, 2 * bands * width):
        a, b = img_a.rows(0, r, stop), img_b.rows(0, r, stop)
        dot, na2, nb2 = a * b, a * a, b * b
        for k in range(1, bands):
            a, b = img_a.rows(k, r, stop), img_b.rows(k, r, stop)
            dot += a * b
            na2 += a * a
            nb2 += b * b
        ok = (na2 > 0) & (nb2 > 0)
        cosv = np.clip(dot[ok] / (np.sqrt(na2[ok]) * np.sqrt(nb2[ok])),
                       -1.0, 1.0)
        np.degrees(np.arccos(cosv, out=cosv), out=angles[n:n + cosv.size])
        n += cosv.size
    if not n:
        raise DegeneracyError("all pixels have a zero spectral vector")
    return float(angles[:n].mean())


def ergas(reference: Image, test: Image, ratio: int,
          factor: float | None = None) -> float:
    """Relative dimensionless global error; factor defaults to 1/ratio.
    The images are read one band at a time."""
    check_shape(test, reference.shape)
    if factor is None:
        factor = 1.0 / ratio
    acc = 0.0
    for b in range(reference.bands):
        ref = reference.band(b)
        mean = ref.mean()
        if mean == 0.0:
            raise DegeneracyError(f"zero reference mean in band {b}")
        rmse2 = np.mean((ref - test.band(b))**2)
        acc += rmse2 / mean**2
    return float(100.0 * factor * math.sqrt(acc / reference.bands))


def _block_view(plane: np.ndarray, bl: int) -> np.ndarray:
    """(nby, nbx, bl*bl) view of the non-overlapping bl x bl blocks;
    partial edge blocks are dropped."""
    h, w = plane.shape
    nby, nbx = h // bl, w // bl
    v = plane[:nby * bl, :nbx * bl].reshape(nby, bl, nbx, bl)
    return v.transpose(0, 2, 1, 3).reshape(nby, nbx, bl * bl)


class _BlockMoments(NamedTuple):
    tiled: np.ndarray      # the strip's rows cropped to its full blocks
    mean: np.ndarray       # (nby, nbx)
    centred: np.ndarray    # (nby, nbx, bl*bl) block samples minus the mean
    var: np.ndarray        # (nby, nbx) population variance


def _block_moments(rows: np.ndarray, bl: int) -> _BlockMoments:
    """Moments of the full bl x bl blocks of a strip of rows."""
    x = np.asarray(rows, dtype=np.float64)
    blocks = _block_view(x, bl)
    m = blocks.mean(axis=2)
    if np.may_share_memory(blocks, x):
        c = blocks - m[:, :, None]
    else:
        # the block view had to copy: centre that copy in place
        c = blocks
        c -= m[:, :, None]
    nby, nbx = m.shape
    return _BlockMoments(x[:nby * bl, :nbx * bl], m, c,
                         np.mean(c**2, axis=2))


def _q_ratio_map(num: np.ndarray, denom: np.ndarray,
                 mom_a: list[_BlockMoments], mom_b: list[_BlockMoments]
                 ) -> np.ndarray:
    """Per block, num / denom. A block whose denom is not positive scores
    1 where every plane of mom_a equals its plane of mom_b there, else 0;
    the planes are compared only when such a block exists."""
    good = denom > 0
    q = np.divide(num, denom, out=np.zeros_like(denom), where=good)
    if not good.all():
        bl = mom_a[0].tiled.shape[0] // good.shape[0]
        same = [_block_view(a.tiled == b.tiled, bl).all(axis=2)
                for a, b in zip(mom_a, mom_b)]
        q[~good & np.all(same, axis=0)] = 1.0
    return q


def _q_maps(a: _BlockMoments, b: _BlockMoments):
    """Yields the per-block Q of the ordered pair (a, b), then of (b, a),
    from one 4*cov and one denominator, both symmetric bit for bit; the
    numerator is not, so each order keeps its own product. (b, a) is
    computed only when it is asked for."""
    cov4 = 4.0 * np.mean(a.centred * b.centred, axis=2)
    denom = (a.var + b.var) * (a.mean**2 + b.mean**2)
    yield _q_ratio_map(cov4 * a.mean * b.mean, denom, [a], [b])
    yield _q_ratio_map(cov4 * b.mean * a.mean, denom, [b], [a])


def _moment_strips(readers, height: int, width: int, bl: int):
    """Yields the _block_moments of planes of one height and width, one
    list in reader order per row_strips() strip of whole block rows;
    reader(start, stop) gives a plane's rows [start, stop). Each list is
    emptied before the next strip is read, so only one strip's rows and
    moments are held at a time."""
    if bl < 2:
        raise InputError("block_size must be >= 2")
    nby, nbx = height // bl, width // bl
    if nby == 0 or nbx == 0:
        raise InputError(f"image smaller than one {bl}x{bl} block")
    for r, stop in row_strips(nby * bl, len(readers) * nbx * bl, bl):
        mom = [_block_moments(read(r, stop), bl) for read in readers]
        yield mom
        mom.clear()


def q_index(band_a: np.ndarray, band_b: np.ndarray,
            block_size: int = DEFAULT_BLOCK) -> float:
    """Universal quality index of two 2-D arrays of one shape, averaged
    over non-overlapping blocks.

    Per block: 4*cov*mx*my / ((vx+vy)*(mx^2+my^2)); degenerate blocks
    score 1 when identical, else 0.
    """
    a, b = np.asarray(band_a), np.asarray(band_b)
    check_shape(b, a.shape)
    maps = [next(_q_maps(*mom)) for mom in _moment_strips(
        [_array_rows(a), _array_rows(b)], *a.shape, block_size)]
    return float(np.concatenate(maps).mean())


def _q4_map(mom_a: list[_BlockMoments], mom_b: list[_BlockMoments]
            ) -> np.ndarray:
    """Per-block Q4 of two 4-band images' block moments."""
    a0, a1, a2, a3 = (m.centred for m in mom_a)
    b0, b1, b2, b3 = (m.centred for m in mom_b)
    # the block means of the components of (za - mean) * conj(zb - mean),
    # one at a time; (-x) * y is -(x * y) in every rounding, so each is
    # bit for bit the Hamilton product with a negated copy of b
    cov_means = (np.mean(a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3, axis=2),
                 np.mean(-a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2, axis=2),
                 np.mean(-a0 * b2 + a1 * b3 + a2 * b0 - a3 * b1, axis=2),
                 np.mean(-a0 * b3 - a1 * b2 + a2 * b1 + a3 * b0, axis=2))
    cov_mod = np.sqrt(sum(m**2 for m in cov_means))
    va = sum(m.var for m in mom_a)
    vb = sum(m.var for m in mom_b)
    na2 = sum(m.mean**2 for m in mom_a)
    nb2 = sum(m.mean**2 for m in mom_b)
    return _q_ratio_map(4.0 * cov_mod * np.sqrt(na2 * nb2),
                        (va + vb) * (na2 + nb2), mom_a, mom_b)


def q4(img_a: Image, img_b: Image, block_size: int = DEFAULT_BLOCK
       ) -> float:
    """Quaternion quality index for 4-band images, block averaged."""
    if img_a.bands != 4 or img_b.bands != 4:
        raise InputError("q4 requires exactly 4 bands")
    check_shape(img_b, img_a.shape)
    maps = [_q4_map(mom[:4], mom[4:]) for mom in _moment_strips(
        _band_rows(img_a) + _band_rows(img_b), img_a.height, img_a.width,
        block_size)]
    return float(np.concatenate(maps).mean())


def qnr(ms_l: Image, fused_h: Image, pan_h: Image, pan_l: Image,
        block_size: int = DEFAULT_BLOCK) -> tuple[float, float, float]:
    """No-reference quality: returns (QNR, D_lambda, D_s).

    pan_h is the one-band pan on the fused image's grid and pan_l the
    one-band pan degraded to the MS grid. D_lambda is the mean absolute
    difference of the inter-band Q values at the two scales, D_s that of
    the band-vs-pan Q values; both are clamped to [0, 1], as a Q
    difference can reach magnitude 2. Every image is read a strip at a
    time.
    """
    nb = ms_l.bands
    if pan_h.bands != 1 or pan_l.bands != 1:
        raise InputError("pan images must have exactly one band")
    # the fused image has the MS bands on the grid of the pan
    check_shape(fused_h, (nb, *pan_h.shape[1:]))
    check_shape(ms_l, (nb, *pan_l.shape[1:]))
    if nb < 2:
        raise InputError("qnr needs at least 2 bands")

    def pair_qs(img, pan):
        """Mean Q of every ordered band pair (i, j), and of each band
        against the pan, (b, nb), at one scale."""
        strips = []
        for mom in _moment_strips(_band_rows(img) + _band_rows(pan),
                                  pan.height, pan.width, block_size):
            q = {}
            for i in range(nb):
                q[i, nb] = next(_q_maps(mom[i], mom[nb]))
                for j in range(i + 1, nb):
                    q[i, j], q[j, i] = _q_maps(mom[i], mom[j])
            strips.append(q)
        return {key: float(np.concatenate([q[key] for q in strips]).mean())
                for key in strips[0]}

    q_ms, q_fused = pair_qs(ms_l, pan_l), pair_qs(fused_h, pan_h)
    # running sums: from Python 3.12 on, builtin sum() compensates
    # its rounding, which would change the last bits
    acc = 0.0
    for i in range(nb):
        for j in range(nb):
            if i != j:
                acc += abs(q_ms[i, j] - q_fused[i, j])
    d_lambda = min(acc / (nb * (nb - 1)), 1.0)
    acc = 0.0
    for b in range(nb):
        acc += abs(q_fused[b, nb] - q_ms[b, nb])
    d_s = min(acc / nb, 1.0)
    return (1.0 - d_lambda) * (1.0 - d_s), d_lambda, d_s
