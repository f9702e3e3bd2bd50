"""Spectral comparison metrics and first-category summary statistics.

Covers the per-band histogram moments (mean, std, skewness, kurtosis,
entropy), Minkowski-1 cross-band cost aggregation, Pearson correlation,
SAM, ERGAS, the block-wise universal quality index Q, its four-band
quaternion extension Q4, and the no-reference QNR/D_lambda/D_s triple.

All moments use the population (N-divisor) convention so that downstream
z-score standardization behaves exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, InputError
from .glcm3 import DEFAULT_GL
from .raster import MultibandImage

DEFAULT_BLOCK = 8


@dataclass
class SummaryStats:
    mean: float
    std: float
    skewness: float
    kurtosis: float
    entropy_bits: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.mean, self.std, self.skewness, self.kurtosis,
                self.entropy_bits)


@dataclass
class BlockSpec:
    """Non-overlapping BL x BL tiling; partial edge blocks are dropped."""
    block_size: int = DEFAULT_BLOCK

    def __post_init__(self):
        if self.block_size < 2:
            raise InputError("block_size must be >= 2")


def summary_stats(band: np.ndarray, gl: int = DEFAULT_GL) -> SummaryStats:
    """Population moments plus min-max binned Shannon entropy (bits)."""
    if gl < 2:
        raise InputError("gl must be >= 2")
    x = np.asarray(band, dtype=np.float64).ravel()
    if x.size == 0:
        raise InputError("empty band")
    mean = x.mean()
    centered = x - mean
    # chained products: np.power for cubes and fourth powers is far slower
    sq = centered * centered
    var = np.mean(sq)
    std = math.sqrt(var)
    if std == 0.0:
        skew = kurt = 0.0
    else:
        skew = np.mean(sq * centered) / std**3
        kurt = np.mean(sq * sq) / std**4
    lo, hi = x.min(), x.max()
    if hi == lo:
        entropy = 0.0
    else:
        counts, _ = np.histogram(x, bins=gl, range=(lo, hi))
        p = counts[counts > 0] / x.size
        entropy = float(-(p * np.log2(p)).sum())
    return SummaryStats(float(mean), std, float(skew), float(kurt), entropy)


def mdb_cost(stats_a, stats_b) -> float:
    """Mean absolute difference of per-band statistic values."""
    a = np.asarray(stats_a, dtype=np.float64)
    b = np.asarray(stats_b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError("band count mismatch")
    return float(np.mean(np.abs(a - b)))


def pcc(band_a: np.ndarray, band_b: np.ndarray) -> float:
    """Pearson correlation with population normalization."""
    x = np.asarray(band_a, dtype=np.float64).ravel()
    y = np.asarray(band_b, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise InputError("shape mismatch")
    xc, yc = x - x.mean(), y - y.mean()
    sx = math.sqrt(np.mean(xc**2))
    sy = math.sqrt(np.mean(yc**2))
    if sx == 0.0 or sy == 0.0:
        raise DegeneracyError("zero variance")
    return float(np.mean(xc * yc) / (sx * sy))


def inverse_pcc_cost(img_a: MultibandImage, img_b: MultibandImage) -> float:
    """Mean over bands of (1 - PCC)."""
    if img_a.samples.shape != img_b.samples.shape:
        raise InputError("shape mismatch")
    vals = [1.0 - pcc(img_a.band(b), img_b.band(b))
            for b in range(img_a.bands)]
    return float(np.mean(vals))


def sam_mean(img_a: MultibandImage, img_b: MultibandImage
             ) -> tuple[float, np.ndarray]:
    """Mean spectral angle in degrees plus the per-pixel angle map.

    Pixels where either spectral vector is all-zero are NaN in the map and
    excluded from the mean.
    """
    if img_a.samples.shape != img_b.samples.shape:
        raise InputError("shape mismatch")
    a, b = img_a.samples, img_b.samples
    dot = np.sum(a * b, axis=2)
    na = np.linalg.norm(a, axis=2)
    nb = np.linalg.norm(b, axis=2)
    valid = (na > 0) & (nb > 0)
    if not valid.any():
        raise DegeneracyError("all pixels have a zero spectral vector")
    angle = np.full(dot.shape, np.nan)
    cosv = np.clip(dot[valid] / (na[valid] * nb[valid]), -1.0, 1.0)
    angle[valid] = np.degrees(np.arccos(cosv))
    return float(angle[valid].mean()), angle


def ergas(reference: MultibandImage, test: MultibandImage, ratio: int,
          factor: float | None = None) -> float:
    """Relative dimensionless global error; factor defaults to 1/ratio."""
    if reference.samples.shape != test.samples.shape:
        raise InputError("shape mismatch")
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
    """(nby, nbx, bl*bl) view of the full blocks, partials dropped."""
    h, w = plane.shape
    nby, nbx = h // bl, w // bl
    if nby == 0 or nbx == 0:
        raise InputError(f"image smaller than one {bl}x{bl} block")
    v = plane[:nby * bl, :nbx * bl].reshape(nby, bl, nbx, bl)
    return v.transpose(0, 2, 1, 3).reshape(nby, nbx, bl * bl)


class _BlockMoments(NamedTuple):
    tiled: np.ndarray      # the plane cropped to its full blocks
    mean: np.ndarray       # (nby, nbx)
    centred: np.ndarray    # (nby, nbx, bl*bl) block samples minus the mean
    var: np.ndarray        # (nby, nbx) population variance


def _block_moments(plane: np.ndarray, bl: int) -> _BlockMoments:
    """Moments of a plane's full BL x BL blocks; Q, Q4 and QNR all take
    their block moments from here."""
    x = np.asarray(plane, dtype=np.float64)
    blocks = _block_view(x, bl)
    m = blocks.mean(axis=2)
    c = blocks - m[:, :, None]
    nby, nbx = m.shape
    return _BlockMoments(x[:nby * bl, :nbx * bl], m, c,
                         np.mean(c**2, axis=2))


def _identical_blocks(a: _BlockMoments, b: _BlockMoments) -> np.ndarray:
    """Per block, whether all samples of a and b are equal."""
    bl = a.tiled.shape[0] // a.mean.shape[0]
    return np.all(_block_view(a.tiled == b.tiled, bl), axis=2)


def _block_cov(a: _BlockMoments, b: _BlockMoments) -> np.ndarray:
    """Per-block covariance; symmetric bit for bit, since it multiplies the
    centred samples elementwise."""
    return np.mean(a.centred * b.centred, axis=2)


def _q_ratio_mean(num: np.ndarray, denom: np.ndarray, identical) -> float:
    """Mean over blocks of num / denom. A block whose denom is not positive
    scores 1 where identical() marks its samples equal in both images, else
    0; identical is called only when such a block exists."""
    good = denom > 0
    q = np.where(good, np.divide(num, denom, out=np.zeros_like(denom),
                                 where=good), 0.0)
    if not good.all():
        q = np.where(good, q, np.where(identical(), 1.0, 0.0))
    return float(q.mean())


def _q_blocks(a: _BlockMoments, b: _BlockMoments, cov: np.ndarray) -> float:
    """Block-averaged Q of the ordered pair (a, b). The numerator is not
    symmetric in its last bit, so (b, a) needs its own call."""
    mx, vx, my, vy = a.mean, a.var, b.mean, b.var
    return _q_ratio_mean(4.0 * cov * mx * my, (vx + vy) * (mx**2 + my**2),
                         lambda: _identical_blocks(a, b))


def q_index(band_a: np.ndarray, band_b: np.ndarray,
            blocks: BlockSpec | None = None) -> float:
    """Universal quality index, averaged over non-overlapping blocks.

    Per block: 4*cov*mx*my / ((vx+vy)*(mx^2+my^2)); degenerate blocks
    score 1 when identical, else 0.
    """
    blocks = blocks or BlockSpec()
    a = _block_moments(band_a, blocks.block_size)
    b = _block_moments(band_b, blocks.block_size)
    if a.mean.shape != b.mean.shape:
        raise InputError("shape mismatch")
    return _q_blocks(a, b, _block_cov(a, b))


def _qmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def q4(img_a: MultibandImage, img_b: MultibandImage,
       blocks: BlockSpec | None = None) -> float:
    """Quaternion quality index for 4-band images, block averaged."""
    if img_a.bands != 4 or img_b.bands != 4:
        raise InputError("q4 requires exactly 4 bands")
    if img_a.samples.shape != img_b.samples.shape:
        raise InputError("shape mismatch")
    blocks = blocks or BlockSpec()
    bl = blocks.block_size
    mom_a = [_block_moments(img_a.band(c), bl) for c in range(4)]
    mom_b = [_block_moments(img_b.band(c), bl) for c in range(4)]
    da = [m.centred for m in mom_a]
    db = [m.centred for m in mom_b]
    # quaternion cross-covariance: mean of (za - mean) * conj(zb - mean)
    prod = _qmul(da, (db[0], -db[1], -db[2], -db[3]))
    cov_mod = np.sqrt(sum(p.mean(axis=2)**2 for p in prod))
    va = sum(m.var for m in mom_a)
    vb = sum(m.var for m in mom_b)
    na2 = sum(m.mean**2 for m in mom_a)
    nb2 = sum(m.mean**2 for m in mom_b)
    return _q_ratio_mean(
        4.0 * cov_mod * np.sqrt(na2 * nb2), (va + vb) * (na2 + nb2),
        lambda: np.all([_identical_blocks(a, b)
                        for a, b in zip(mom_a, mom_b)], axis=0))


def qnr(ms_l: MultibandImage, fused_h: MultibandImage, pan_h: np.ndarray,
        pan_degraded_l: np.ndarray, alpha: float = 1.0, beta: float = 1.0,
        p: float = 1.0, q: float = 1.0, blocks: BlockSpec | None = None
        ) -> tuple[float, float, float]:
    """No-reference quality: returns (QNR, D_lambda, D_s).

    D_lambda compares inter-band Q values at the two scales; D_s compares
    band-vs-pan Q values. Both power means are clamped to [0, 1] because a
    Q difference can reach magnitude 2.
    """
    blocks = blocks or BlockSpec()
    pan_h = np.asarray(pan_h, dtype=np.float64)
    pan_l = np.asarray(pan_degraded_l, dtype=np.float64)
    if fused_h.samples.shape[:2] != pan_h.shape:
        raise InputError("fused/pan shape mismatch at high resolution")
    if ms_l.samples.shape[:2] != pan_l.shape:
        raise InputError("ms/pan shape mismatch at low resolution")
    if fused_h.bands != ms_l.bands:
        raise InputError("band count mismatch")
    nb = ms_l.bands
    if nb < 2:
        raise InputError("qnr needs at least 2 bands")
    bl = blocks.block_size
    ms = [_block_moments(ms_l.band(b), bl) for b in range(nb)]
    fused = [_block_moments(fused_h.band(b), bl) for b in range(nb)]

    def inter_band_q(mom):
        # one covariance per unordered pair, one Q per ordered pair
        qs = {}
        for i in range(nb):
            for j in range(i + 1, nb):
                cov = _block_cov(mom[i], mom[j])
                qs[i, j] = _q_blocks(mom[i], mom[j], cov)
                qs[j, i] = _q_blocks(mom[j], mom[i], cov)
        return qs

    q_ms, q_fused = inter_band_q(ms), inter_band_q(fused)
    acc = 0.0
    for i in range(nb):
        for j in range(nb):
            if i == j:
                continue
            acc += abs(q_ms[i, j] - q_fused[i, j])**p
    d_lambda = min((acc / (nb * (nb - 1)))**(1.0 / p), 1.0)

    pan_hm = _block_moments(pan_h, bl)
    pan_lm = _block_moments(pan_l, bl)
    acc = 0.0
    for b in range(nb):
        d = (_q_blocks(fused[b], pan_hm, _block_cov(fused[b], pan_hm))
             - _q_blocks(ms[b], pan_lm, _block_cov(ms[b], pan_lm)))
        acc += abs(d)**q
    d_s = min((acc / nb)**(1.0 / q), 1.0)

    value = (1.0 - d_lambda)**alpha * (1.0 - d_s)**beta
    return float(value), float(d_lambda), float(d_s)
