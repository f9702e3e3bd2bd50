"""Third-order isotropic multi-scale co-occurrence statistics.

For every interior pixel (the triple center), each radius contributes the
square ring of positions at that Chebyshev distance; diametrically
opposite ring positions are paired, their two gray levels sorted, and the
(center, low, high) triple counted. The counts live in an upper-triangular
(depth, row, col) array over the gray levels and normalize to a
probability distribution, from which contrast, energy and large-number
emphasis are computed. Every image is binned on one fixed reflectance
scale by _bin_reflectance(): quantize_gray_levels() at gl levels, whose
map the band's entropy (spectral.summary_stats) counts too, and the
spectral quantizer's digit at 4 levels, in raster.row_strips runs.
tims_glcm counts each ring offset's keys with np.bincount from one intp
plane, formed with its key planes in a caller's work planes if given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, InputError
from .raster import row_strips

DEFAULT_GL = 32
DEFAULT_RADII = (1, 2, 3)
# the (gl, gl, gl) int64 count table is 134 MB at 256 levels, the most
# that a uint8 gray-level map holds
MAX_GL = 256


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


def _check_gl(gl: int) -> None:
    if not 2 <= gl <= MAX_GL:
        raise InputError(f"gl must be in [2, {MAX_GL}]: {gl!r}")


def _bin_reflectance(band: np.ndarray, n: int) -> np.ndarray:
    """clip(ceil(n * x) - 1, 0, n - 1) as a uint8 map, n <= 256: how many
    thresholds k/n (k = 1 .. n-1) x exceeds, as n * x > k, so x outside
    [0, 1] bins as if clipped. Binned one row_strips() run at a time;
    an empty band is an InputError."""
    x = np.asarray(band, dtype=np.float64)
    if x.size == 0:
        raise InputError("empty band")
    out = np.empty(x.shape, dtype=np.uint8)
    flat, levels = x.reshape(-1), out.reshape(-1)
    strips = list(row_strips(flat.size, 8))
    buf = np.empty(strips[0][1])
    for start, stop in strips:
        strip = np.multiply(flat[start:stop], n, out=buf[:stop - start])
        np.ceil(strip, out=strip)
        strip -= 1
        np.clip(strip, 0, n - 1, out=strip)
        levels[start:stop] = strip
    return out


def quantize_gray_levels(band: np.ndarray, gl: int = DEFAULT_GL
                         ) -> np.ndarray:
    """The band's uint8 map of {0..gl-1} on the fixed reflectance scale,
    gl in [2, MAX_GL]: _bin_reflectance(band, gl)."""
    _check_gl(gl)
    return _bin_reflectance(band, gl)


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


def check_glcm3_options(gl: int, radii) -> tuple[int, ...]:
    """The radii as a tuple of ints, once gl lies in [2, MAX_GL] and the
    radii increase strictly from at least 1; else InputError."""
    _check_gl(gl)
    radii = tuple(int(v) for v in radii)
    if not radii or radii[0] < 1 or radii != tuple(sorted(set(radii))):
        raise InputError("radii must be strictly increasing, min >= 1")
    return radii


def _key_planes(work: np.ndarray | None, planes) -> list:
    """Arrays of these (dtype, shape)s, each laid after the last in the
    bytes of work, a C-contiguous array whose samples the caller no
    longer needs, where it fits there, else new (all, if work is None)."""
    out, at = [], 0
    for dtype, shape in planes:
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        if work is None or at + nbytes > work.nbytes:
            out.append(np.empty(shape, dtype))
        else:
            out.append(np.ndarray(shape, dtype, buffer=work, offset=at))
            at += nbytes
    return out


def tims_glcm(labels: np.ndarray, radii: tuple[int, ...] = DEFAULT_RADII,
              *, gl: int, work: np.ndarray | None = None) -> Glcm3:
    """Accumulate (center, sorted opposite-pair) triples over all valid
    centers at every ring radius, then normalize. Pairs are counted in
    ring order and the table folded onto row <= col once at the end. The
    key planes are formed in work's bytes, each where it fits."""
    radii = check_glcm3_options(gl, radii)
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise InputError("labels must be a 2-D plane")
    # the uint8 cast would truncate floats, and NaN passes the range check
    if lab.dtype.kind not in "biu":
        raise InputError(f"labels must be bool or integer, not {lab.dtype}")
    if lab.min() < 0 or lab.max() >= gl:
        raise InputError("labels outside [0, gl)")
    rmax = radii[-1]
    h, w = lab.shape
    if h < 2 * rmax + 1 or w < 2 * rmax + 1:
        raise InputError("image too small: no valid centers")

    # every flat index (center*gl + p)*gl + q is below gl**3; the ordered
    # (p, q) counts are folded onto row <= col once, after every offset.
    # The keys are formed in their own type straight from a uint8 map,
    # which quantize_gray_levels gives and which is not copied; bincount
    # would copy uint16 keys to intp, so they are cast into an intp plane,
    # laid first (8-byte aligned), and intp keys are counted as formed
    lab = lab.astype(np.uint8, copy=False)
    key = np.uint16 if gl**3 <= 65536 else np.intp
    centers = h - 2 * rmax, w - 2 * rmax
    layout = [(key, centers), (key, centers), (key, (h, w))]
    if key is not np.intp:
        layout.insert(0, (np.intp, centers))
    planes = _key_planes(work, layout)
    counted, (flat, center_term, lab_gl) = planes[0], planes[-3:]
    np.multiply(lab[rmax:h - rmax, rmax:w - rmax], gl * gl, dtype=key,
                out=center_term)
    np.multiply(lab, gl, dtype=key, out=lab_gl)
    counts = np.zeros(gl * gl * gl, dtype=np.int64)
    for radius in radii:
        for dy, dx in _half_ring_offsets(radius):
            np.add(center_term,
                   lab_gl[rmax + dy:h - rmax + dy, rmax + dx:w - rmax + dx],
                   out=flat)
            flat += lab[rmax - dy:h - rmax - dy, rmax - dx:w - rmax - dx]
            if flat is not counted:
                np.copyto(counted, flat)
            counts += np.bincount(counted.ravel(), minlength=gl**3)
    del planes, counted, flat, center_term, lab_gl   # freed before the fold
    ordered = counts.reshape(gl, gl, gl)
    folded = np.triu(ordered + ordered.transpose(0, 2, 1), 1)
    diag = np.arange(gl)
    folded[:, diag, diag] = ordered[:, diag, diag]
    return Glcm3(gl=gl, counts=folded)


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

