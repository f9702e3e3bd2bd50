"""Spectral comparison metrics and first-category summary statistics.

Covers the per-band moments (mean, std, skewness, kurtosis) and the
entropy of the band's gray-level map from glcm3.quantize_gray_levels,
Minkowski-1 cross-band cost aggregation, Pearson correlation, SAM over
the pixels with two nonzero spectral vectors, ERGAS, the block-wise
universal quality index Q, its four-band quaternion extension Q4, and the
no-reference QNR/D_lambda/D_s triple with all its exponents 1.

Images are read through raster.Image's rows(b, start, stop) alone, so
each may be a MultibandImage in memory or a raster.RasterFile on disk,
and no function holds a whole image: ERGAS reads one band at a time, and
SAM, Q, Q4 and QNR read through one walker, _strips, the rows of every
band of their images one raster.row_strips strip at a time. It counts
one byte per sample of each plane, so a strip holds raster.STRIP_BYTES
samples, 2 MiB of float64; the Q family's strips are whole block rows.
Every shape is compared by raster.check_shape.

The Q family takes each strip's block moments from _block_moments and
the mean of each per-block map from _block_means. A band pair has one Q
map, _q_map, in which every product and sum commutes, so Q(a, b) is
Q(b, a) bit for bit and QNR computes each unordered pair once.

A band's moments and its PCC read one copy of its centred samples,
made once by centre(). summary_stats takes the moments on one path, the
deviations divided first by the largest of them where that lies outside
_UNSCALED. It holds one band-sized plane beside the centred copy (the
gray-level map cast to intp for np.bincount, then c*c, (c*c)*(c*c) and
(c*c)*c), and pcc one (the other band centred, then the product, in
place); a caller may pass each that plane, as pipeline.image_features
does. Outside _UNSCALED each allocates one more, the scaled copy, when
it is taken. The strips of SAM, Q4 and QNR stay below that.

All moments use the population (N-divisor) convention so that downstream
z-score standardization behaves exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, InputError
from .raster import Image, MultibandImage, check_shape, row_strips

DEFAULT_BLOCK = 8


class SummaryStats(NamedTuple):
    mean: float
    std: float
    skewness: float
    kurtosis: float
    entropy_bits: float


def centre(band: np.ndarray, out: np.ndarray | None = None
           ) -> tuple[np.ndarray, float]:
    """(band - mean, mean): a band's centred samples as float64, the one
    copy that summary_stats and pcc both read, written into out if given
    (which may be band itself), and its mean."""
    x = np.asarray(band, dtype=np.float64)
    if x.size == 0:
        raise InputError("empty band")
    mean = x.mean()
    return np.subtract(x, mean, out=out), float(mean)


# The window of a band's largest deviation in which, for up to 2**100
# samples, no mean of the deviations' powers and no power of their std
# can under- or overflow; a band outside it is divided by that deviation
_UNSCALED = (2.0**-200, 2.0**200)


def summary_stats(centred: np.ndarray, mean: float, levels: np.ndarray,
                  out: np.ndarray | None = None) -> SummaryStats:
    """Population moments of a band, given its mean and its centred
    samples from centre(), plus the Shannon entropy (bits) of levels, the
    band's gray-level map from quantize_gray_levels; a band whose samples
    are all equal has std, skewness and kurtosis 0. The centred samples
    are only read: beside them one band-sized float64 plane, out if
    given, holds the levels cast to intp for np.bincount, then the
    squared deviations, their squares and the cubes; outside _UNSCALED
    the deviations divided by their largest magnitude are allocated."""
    c = np.asarray(centred, dtype=np.float64)
    if c.size == 0:
        raise InputError("empty band")
    if np.shape(levels) != c.shape:
        raise InputError("levels must map every sample of the band")
    out = np.empty(c.shape) if out is None else out
    # the levels first, in out's bytes: bincount would copy any other
    # type to intp itself
    keys = out.view(np.intp)
    np.copyto(keys, levels)
    counts = np.bincount(keys.ravel())
    p = counts[counts > 0] / c.size
    # 0.0 - sum, not -sum: a constant band's entropy is +0.0, not -0.0
    entropy = float(0.0 - (p * np.log2(p)).sum())
    lo, hi = float(c.min()), float(c.max())
    if lo == hi:
        return SummaryStats(float(mean), 0.0, 0.0, 0.0, entropy)
    scale = max(hi, -lo)
    if _UNSCALED[0] < scale < _UNSCALED[1]:
        scale, z = 1.0, c
    else:
        z = c / scale
    # chained products: np.power for cubes and fourth powers is far slower.
    # The fourth powers are the squares squared in place; the squares are
    # formed once more for the cubes, so z stays intact
    tmp = np.multiply(z, z, out=out)
    std = math.sqrt(np.mean(tmp))
    kurt = np.mean(np.multiply(tmp, tmp, out=tmp)) / std**4
    np.multiply(z, z, out=tmp)
    skew = np.mean(np.multiply(tmp, z, out=tmp)) / std**3
    return SummaryStats(float(mean), scale * std, float(skew), float(kurt),
                        entropy)


def mdb_cost(stats_a, stats_b) -> float:
    """Mean absolute difference of per-band statistic values."""
    a = np.asarray(stats_a, dtype=np.float64)
    b = np.asarray(stats_b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError("band count mismatch")
    return float(np.mean(np.abs(a - b)))


def pcc(band_a: np.ndarray, centred_b: np.ndarray, stats_a: SummaryStats,
        stats_b: SummaryStats, out: np.ndarray | None = None) -> float:
    """Pearson correlation with population normalization of band_a and a
    band b given by its centred samples from centre(). stats_a and
    stats_b are the bands' summary_stats, whose mean and std are the ones
    a Pearson correlation computes. One band-sized plane is held, out if
    given (a float64 plane of the bands' shape, which may be band_a
    itself): band_a centred, which becomes the product in place. Where
    either std lies outside _UNSCALED, each band is divided by its std
    before the product, band_a in place and b in one more plane,
    allocated, so that the product cannot under- or overflow."""
    x = np.asarray(band_a, dtype=np.float64)
    yc = np.asarray(centred_b, dtype=np.float64)
    check_shape(yc, x.shape)
    sa, sb = stats_a.std, stats_b.std
    if sa == 0.0 or sb == 0.0:
        raise DegeneracyError("zero variance")
    xc = np.subtract(x, stats_a.mean, out=out)
    if not _UNSCALED[0] < min(sa, sb) <= max(sa, sb) < _UNSCALED[1]:
        xc /= sa
        yc, sa, sb = yc / sb, 1.0, 1.0
    xc *= yc
    return float(np.mean(xc) / (sa * sb))


def inverse_pcc_cost(pccs: list[float]) -> float:
    """Mean over bands of (1 - PCC), given each band's pcc."""
    return float(np.mean([1.0 - p for p in pccs]))


def _strips(images: list[Image], stop: int, unit: int = 1):
    """For each row_strips() strip of rows [0, stop), in whole multiples
    of unit rows at one byte per sample of each plane, yields the list of
    its rows of every band of images, in order. The list is emptied
    before the next strip is read, so one strip is held at a time."""
    planes = sum(img.bands for img in images)
    for start, end in row_strips(stop, planes * images[0].width, unit):
        rows = [img.rows(b, start, end) for img in images
                for b in range(img.bands)]
        yield rows
        rows.clear()


def sam_mean(img_a: Image, img_b: Image) -> float:
    """Mean spectral angle in degrees over the pixels whose spectral
    vectors are both nonzero. Per strip, the dot product and squared
    norms are summed band by band, and the kept angles fill the next part
    of one buffer, in row order; the mean is taken once."""
    check_shape(img_b, img_a.shape)
    bands, height, width = img_a.shape
    angles = np.empty(height * width)
    n = 0
    for rows in _strips([img_a, img_b], height):
        dot = na2 = nb2 = 0.0
        for a, b in zip(rows[:bands], rows[bands:]):
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


def ergas(reference: Image, test: Image, ratio: int) -> float:
    """Relative dimensionless global error, its h/l 1/ratio. The images
    are read one band at a time."""
    check_shape(test, reference.shape)
    acc = 0.0
    for b in range(reference.bands):
        ref = reference.band(b)
        mean = ref.mean()
        if mean == 0.0:
            raise DegeneracyError(f"zero reference mean in band {b}")
        rmse2 = np.mean((ref - test.band(b))**2)
        acc += rmse2 / mean**2
    return float(100.0 * (1.0 / ratio) * math.sqrt(acc / reference.bands))


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


def _q_map(a: _BlockMoments, b: _BlockMoments) -> np.ndarray:
    """Per-block Q of two planes: 4*cov*(ma*mb) / ((va+vb)*(ma^2+mb^2)).
    Every product and sum in it commutes, so _q_map(a, b) is
    _q_map(b, a) bit for bit."""
    cov4 = 4.0 * np.mean(a.centred * b.centred, axis=2)
    return _q_ratio_map(cov4 * (a.mean * b.mean),
                        (a.var + b.var) * (a.mean**2 + b.mean**2), [a], [b])


def _block_means(images: list[Image], bl: int, score) -> list[float]:
    """The mean of each per-block map that score(moments) returns for a
    strip, given the _block_moments of every band of images on its whole
    block rows, taken once over the strips' maps in row order."""
    if bl < 2:
        raise InputError("block_size must be >= 2")
    if min(images[0].shape[1:]) < bl:
        raise InputError(f"image smaller than one {bl}x{bl} block")
    maps = [score([_block_moments(r, bl) for r in rows])
            for rows in _strips(images, images[0].height // bl * bl, bl)]
    return [float(np.concatenate(m).mean()) for m in zip(*maps)]


def q_index(band_a: np.ndarray, band_b: np.ndarray,
            block_size: int = DEFAULT_BLOCK) -> float:
    """Universal quality index of two 2-D arrays of one shape and finite
    samples, read as one-band images, averaged over non-overlapping
    blocks: per block 4*cov*(mx*my) / ((vx+vy)*(mx^2+my^2)), or where that
    denominator is 0, 1 for identical blocks, else 0. Symmetric in a, b."""
    a, b = (MultibandImage(np.asarray(x)[None]) for x in (band_a, band_b))
    check_shape(b, a.shape)
    return _block_means([a, b], block_size, lambda mom: [_q_map(*mom)])[0]


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
    return _block_means([img_a, img_b], block_size,
                        lambda mom: [_q4_map(mom[:4], mom[4:])])[0]


def qnr(ms_l: Image, fused_h: Image, pan_h: Image, pan_l: Image,
        block_size: int = DEFAULT_BLOCK) -> tuple[float, float, float]:
    """No-reference quality: returns (QNR, D_lambda, D_s).

    pan_h is the one-band pan on the fused image's grid and pan_l the
    one-band pan degraded to the MS grid. D_lambda is the mean absolute
    difference of the inter-band Q values at the two scales, D_s that of
    the band-vs-pan Q values; both are clamped to [0, 1], as a Q
    difference can reach magnitude 2.
    """
    nb = ms_l.bands
    if pan_h.bands != 1 or pan_l.bands != 1:
        raise InputError("pan images must have exactly one band")
    # the fused image has the MS bands on the grid of the pan
    check_shape(fused_h, (nb, *pan_h.shape[1:]))
    check_shape(ms_l, (nb, *pan_l.shape[1:]))
    if nb < 2:
        raise InputError("qnr needs at least 2 bands")

    # the pan is band nb; Q is symmetric, so pair (i, j) serves (j, i)
    pairs = [(i, j) for i in range(nb) for j in range(i + 1, nb + 1)]
    q_ms, q_fused = (dict(zip(pairs, _block_means(
        [img, pan], block_size,
        lambda mom: [_q_map(mom[i], mom[j]) for i, j in pairs])))
        for img, pan in ((ms_l, pan_l), (fused_h, pan_h)))
    # ordered pairs in the reference loop's order, as running sums: from
    # Python 3.12 on, builtin sum() compensates its rounding
    acc = 0.0
    for i in range(nb):
        for j in range(nb):
            if i != j:
                key = min(i, j), max(i, j)
                acc += abs(q_ms[key] - q_fused[key])
    d_lambda = min(acc / (nb * (nb - 1)), 1.0)
    acc = 0.0
    for b in range(nb):
        acc += abs(q_fused[b, nb] - q_ms[b, nb])
    d_s = min(acc / nb, 1.0)
    return (1.0 - d_lambda) * (1.0 - d_s), d_lambda, d_s
