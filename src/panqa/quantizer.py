"""Reference spectral quantizer and label-map contour measures.

The quantizer is a deliberately simple stand-in for a prior-knowledge
rule base: a context-free per-pixel threshold code on calibrated
reflectance, delivered at three nested quantization levels (fine,
intermediate, coarse). The code book is fixed: 64 fine, 8 intermediate
and 2 coarse labels, all three built in one pass over the bands by
SpectralCoder, which takes one band at a time. A fine digit d in {0..3}
merges to the intermediate digit d // 2, and coarse is the first band's
intermediate digit. A label stack is the three co-registered planes, and
is saved as a three-band image. Any labeler with the same interface can
replace it.

Downstream measures: post-classification change counting, the three-level
8-adjacency cross-aura contour intensity (0..24), and the binarized
contour difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .raster import (Image, MultibandImage, RasterFile, check_shape,
                     save_image)

# per-band reflectance thresholds for the fine 4-bin code; all lie in
# (0, 1), so a sample outside [0, 1] codes as if clipped to it
_FINE_THRESHOLDS = (0.25, 0.5, 0.75)
# bands entering the product code; 4^3 = 64 fine labels
_CODE_BANDS = 3

LEVELS = ("fine", "intermediate", "coarse")

# labels per level, in LEVELS order
_CODE_BOOK_SIZES = (4**_CODE_BANDS, 2**_CODE_BANDS, 2)


@dataclass
class LabelMapStack:
    """Co-registered label planes at three quantization levels."""

    fine: np.ndarray
    intermediate: np.ndarray
    coarse: np.ndarray

    def __post_init__(self):
        check_shape(self.intermediate, self.fine.shape)
        check_shape(self.coarse, self.fine.shape)

    def level(self, name: str) -> np.ndarray:
        if name not in LEVELS:
            raise InputError(f"unknown level {name!r}")
        return getattr(self, name)

    @property
    def shape(self) -> tuple[int, int]:
        return self.fine.shape


class SpectralCoder:
    """quantize_spectral's label codes, built one band at a time: add()
    each band of the image in order, then take stack(). Bands past the
    third add nothing."""

    def __init__(self, bands: int, height: int, width: int):
        if bands < _CODE_BANDS:
            raise InputError("quantizer needs at least 3 bands")
        # at most 64 labels: uint8 keeps a held stack at a byte per pixel
        self.fine = np.zeros((height, width), dtype=np.uint8)
        self.intermediate = np.zeros(self.fine.shape, dtype=np.uint8)
        self._added = 0

    def add(self, plane: np.ndarray) -> None:
        """Add the next band's fine digit, bin by bin, and beside it its
        merged digit d // 2 (above the middle threshold), in place,
        through one bool mask that is freed on return."""
        if self._added < _CODE_BANDS:
            above = np.empty(self.fine.shape, dtype=bool)
            self.fine *= 4
            for t in _FINE_THRESHOLDS:
                self.fine += np.greater(plane, t, out=above)
            self.intermediate *= 2
            self.intermediate += np.greater(plane, _FINE_THRESHOLDS[1],
                                            out=above)
        self._added += 1

    def stack(self) -> LabelMapStack:
        return LabelMapStack(fine=self.fine, intermediate=self.intermediate,
                             coarse=self.intermediate >> (_CODE_BANDS - 1))


def quantize_spectral(img: Image) -> LabelMapStack:
    """Context-free per-pixel labeling of a reflectance image (B >= 3).

    Fine: base-4 product code over per-band thresholds on the first three
    bands. Intermediate: the same code with bins merged pairwise (base-2).
    Coarse: the first band's 2-bin digit alone. The image is read band
    by band, so it may be a raster.RasterFile.
    """
    coder = SpectralCoder(img.bands, img.height, img.width)
    for b in range(_CODE_BANDS):
        coder.add(img.band(b))
    return coder.stack()


def save_stack(stack: LabelMapStack, path) -> None:
    """Write the three label planes as a u16 image, one band per level."""
    planes = np.array([stack.level(name) for name in LEVELS],
                      dtype=np.float64)
    save_image(MultibandImage(planes, band_names=list(LEVELS)),
               path, sample_type="u16")


def load_stack(path) -> LabelMapStack:
    """Read a stack written by save_stack, one plane at a time; every label
    must be an integer in its level's code book."""
    img = RasterFile(path)
    if img.bands != len(LEVELS):
        raise InputError("label stack image must have 3 bands")
    planes = []
    for b, (name, size) in enumerate(zip(LEVELS, _CODE_BOOK_SIZES)):
        plane = img.band(b)
        if np.any(plane != np.floor(plane)):
            raise InputError(f"non-integral {name} labels")
        if plane.min() < 0 or plane.max() >= size:
            raise InputError(f"{name} labels outside [0, {size})")
        planes.append(plane.astype(np.uint8))
    return LabelMapStack(*planes)


def post_classification_change_count(labels_a: np.ndarray,
                                     labels_b: np.ndarray) -> int:
    """Number of pixels whose labels differ between two 2-D label planes
    of one level."""
    a, b = np.asarray(labels_a), np.asarray(labels_b)
    if a.ndim != 2:
        raise InputError("label planes must be 2-D")
    check_shape(b, a.shape)
    return int(np.count_nonzero(a != b))


def _aura_plane(labels: np.ndarray) -> np.ndarray:
    """Per-pixel count of existing 8-neighbors with a different label."""
    h, w = labels.shape
    count = np.zeros((h, w), dtype=np.uint8)  # at most 8, 24 over levels
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            ys = slice(max(dy, 0), h + min(dy, 0))
            xs = slice(max(dx, 0), w + min(dx, 0))
            ysn = slice(max(-dy, 0), h + min(-dy, 0))
            xsn = slice(max(-dx, 0), w + min(-dx, 0))
            count[ys, xs] += labels[ys, xs] != labels[ysn, xsn]
    return count


def cross_aura(stack: LabelMapStack) -> tuple[np.ndarray, float]:
    """Three-level contour intensity plane in {0..24} and its mean."""
    h, w = stack.shape
    if h < 3 or w < 3:
        raise InputError("stack must be at least 3x3")
    plane = sum(_aura_plane(stack.level(name)) for name in LEVELS)
    return plane, float(plane.mean())


def binary_contour_cost(plane_a: np.ndarray, plane_b: np.ndarray) -> float:
    """Mean absolute difference of two cross-aura planes, binarized."""
    check_shape(plane_b, plane_a.shape)
    return float(np.mean((plane_a > 0) != (plane_b > 0)))
