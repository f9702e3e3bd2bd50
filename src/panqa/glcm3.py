"""Third-order isotropic multi-scale co-occurrence statistics.

For every interior pixel (the triple center), each radius contributes the
square ring of positions at that Chebyshev distance; diametrically
opposite ring positions are paired, their two gray levels sorted, and the
(center, low, high) triple counted. The counts live in an upper-triangular
(depth, row, col) array over the quantized gray levels and normalize to a
probability distribution, from which contrast, energy and large-number
emphasis are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, InputError

DEFAULT_GL = 32
DEFAULT_RADII = (1, 2, 3)


@dataclass
class RingSpec:
    radii: tuple[int, ...] = DEFAULT_RADII

    def __post_init__(self):
        r = tuple(int(v) for v in self.radii)
        if not r or r[0] < 1 or any(b <= a for a, b in zip(r, r[1:])):
            raise InputError("radii must be strictly increasing, min >= 1")
        self.radii = r

    @property
    def window_size(self) -> int:
        return 2 * max(self.radii) + 1


@dataclass
class Glcm3:
    """Normalized triple co-occurrence counts, row <= col."""

    gl: int
    counts: np.ndarray  # (gl, gl, gl) int64, indexed [depth, row, col]
    total_tuples: int = field(init=False)

    def __post_init__(self):
        if self.counts.shape != (self.gl, self.gl, self.gl):
            raise InputError("counts must be (gl, gl, gl)")
        self.total_tuples = int(self.counts.sum())
        if self.total_tuples == 0:
            raise DegeneracyError("empty co-occurrence accumulator")
        d, r, c = np.nonzero(self.counts)
        if np.any(r > c):
            raise InputError("lower-triangular cell populated")

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / self.total_tuples


def quantize_gray_levels(band: np.ndarray, gl: int = DEFAULT_GL
                         ) -> np.ndarray:
    """Linear min-max binning into {0..gl-1}; constant bands map to 0."""
    if gl < 2:
        raise InputError("gl must be >= 2")
    x = np.asarray(band, dtype=np.float64)
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros(x.shape, dtype=np.int64)
    levels = np.floor(gl * (x - lo) / (hi - lo)).astype(np.int64)
    return np.minimum(levels, gl - 1)


def _half_ring_offsets(radius: int) -> list[tuple[int, int]]:
    """One offset per antipodal pair on the Chebyshev ring (4r pairs)."""
    offs = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if max(abs(dy), abs(dx)) != radius:
                continue
            if dy > 0 or (dy == 0 and dx > 0):
                offs.append((dy, dx))
    return offs


def tims_glcm(labels: np.ndarray, rings: RingSpec | None = None,
              gl: int | None = None) -> Glcm3:
    """Accumulate (center, sorted opposite-pair) triples over all valid
    centers at every ring radius, then normalize."""
    rings = rings or RingSpec()
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise InputError("labels must be a 2-D plane")
    if gl is None:
        gl = int(lab.max()) + 1
    if lab.min() < 0 or lab.max() >= gl:
        raise InputError("labels outside [0, gl)")
    rmax = max(rings.radii)
    h, w = lab.shape
    if h < 2 * rmax + 1 or w < 2 * rmax + 1:
        raise InputError("image too small: no valid centers")

    # every flat index (center*gl + low)*gl + high is below gl**3
    lab = lab.astype(np.uint16 if gl**3 <= 65536 else np.intp)
    center_term = lab[rmax:h - rmax, rmax:w - rmax] * (gl * gl)
    counts = np.zeros(gl * gl * gl, dtype=np.int64)
    for radius in rings.radii:
        for dy, dx in _half_ring_offsets(radius):
            p = lab[rmax + dy:h - rmax + dy, rmax + dx:w - rmax + dx]
            q = lab[rmax - dy:h - rmax - dy, rmax - dx:w - rmax - dx]
            flat = np.minimum(p, q)
            flat *= gl
            flat += np.maximum(p, q)
            flat += center_term
            counts += np.bincount(flat.ravel(), minlength=gl**3)
    return Glcm3(gl=gl, counts=counts.reshape(gl, gl, gl))


def glcm3_features(m: Glcm3) -> tuple[float, float, float]:
    """(contrast, energy, large-number emphasis) of the distribution.

    Sums run over the full stored support row <= col, so diagonal mass
    from flat texture contributes.
    """
    p = m.probabilities
    d, r, c = np.indices(p.shape, sparse=True)
    contrast = float(np.sum(((d - r)**2 + (r - c)**2 + (d - c)**2) * p))
    energy = float(np.sum(p**2))
    lne = float(np.sum((d**2 + r**2 + c**2) * p))
    return contrast, energy, lne


def band_texture(band: np.ndarray, gl: int = DEFAULT_GL,
                 rings: RingSpec | None = None
                 ) -> tuple[float, float, float]:
    """(contrast, energy, lne) of one band: gray levels -> triples ->
    features."""
    return glcm3_features(tims_glcm(quantize_gray_levels(band, gl), rings,
                                    gl=gl))

