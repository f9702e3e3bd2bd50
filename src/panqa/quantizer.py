"""Reference spectral quantizer and label-map contour measures.

The quantizer is a deliberately simple stand-in for a prior-knowledge
rule base: a context-free per-pixel threshold code on calibrated
reflectance, delivered at three nested quantization levels (fine,
intermediate, coarse). The code book is fixed: 64 fine, 8 intermediate
and 2 coarse labels, linked by constant merge tables. A label stack is
the three co-registered planes, and is saved as a three-band image. Any
labeler with the same interface can replace it.

Downstream measures: post-classification change counting, the three-level
8-adjacency cross-aura contour intensity (0..24), and the binarized
contour difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .raster import MultibandImage, load_image, save_image

# per-band reflectance thresholds for the fine 4-bin code; all lie in
# (0, 1), so a sample outside [0, 1] codes as if clipped to it
_FINE_THRESHOLDS = (0.25, 0.5, 0.75)
# bands entering the product code; 4^3 = 64 fine labels
_CODE_BANDS = 3

LEVELS = ("fine", "intermediate", "coarse")

# A fine digit d in {0..3} merges to its high bit d // 2, so intermediate
# bit b is fine bit 2b+1: a base-2 code over the merged digits.
_FINE_TO_INTERMEDIATE = sum(
    (np.arange(4**_CODE_BANDS) >> (2 * b + 1) & 1) << b
    for b in range(_CODE_BANDS)).astype(np.uint8)
# coarse keeps only the leading (first-band) bit
_INTERMEDIATE_TO_COARSE = (np.arange(2**_CODE_BANDS, dtype=np.uint8)
                           >> (_CODE_BANDS - 1))
# labels per level, in LEVELS order
_CODE_BOOK_SIZES = (_FINE_TO_INTERMEDIATE.size, _INTERMEDIATE_TO_COARSE.size,
                    2)


@dataclass
class LabelMapStack:
    """Co-registered label planes at three quantization levels."""

    fine: np.ndarray
    intermediate: np.ndarray
    coarse: np.ndarray

    def __post_init__(self):
        if not (self.fine.shape == self.intermediate.shape
                == self.coarse.shape):
            raise InputError("label planes must share dimensions")

    def level(self, name: str) -> np.ndarray:
        if name not in LEVELS:
            raise InputError(f"unknown level {name!r}")
        return getattr(self, name)

    @property
    def shape(self) -> tuple[int, int]:
        return self.fine.shape


def quantize_spectral(img: MultibandImage) -> LabelMapStack:
    """Context-free per-pixel labeling of a reflectance image (B >= 3).

    Fine: base-4 product code over per-band thresholds on the first three
    bands. Intermediate: the same code with bins merged pairwise (base-2).
    Coarse: the first band's 2-bin digit alone.
    """
    if img.bands < _CODE_BANDS:
        raise InputError("quantizer needs at least 3 bands")
    s = img.samples
    # at most 64 labels: uint8 keeps a held stack at a byte per pixel
    digits = np.zeros(s.shape[:2] + (_CODE_BANDS,), dtype=np.uint8)
    for t in _FINE_THRESHOLDS:
        digits += s[:, :, :_CODE_BANDS] > t

    fine = np.zeros(s.shape[:2], dtype=np.uint8)
    for b in range(_CODE_BANDS):
        fine = fine * 4 + digits[:, :, b]
    intermediate = _FINE_TO_INTERMEDIATE[fine]
    return LabelMapStack(fine=fine, intermediate=intermediate,
                         coarse=_INTERMEDIATE_TO_COARSE[intermediate])


def save_stack(stack: LabelMapStack, path) -> None:
    """Write the three label planes as a u16 image, one band per level."""
    planes = np.stack([stack.level(name) for name in LEVELS], axis=2)
    save_image(MultibandImage(planes.astype(np.float64),
                              band_names=list(LEVELS)),
               path, sample_type="u16")


def load_stack(path) -> LabelMapStack:
    """Read a stack written by save_stack; every label must be an integer
    in its level's code book."""
    img = load_image(path)
    if img.bands != len(LEVELS):
        raise InputError("label stack image must have 3 bands")
    planes = []
    for b, (name, size) in enumerate(zip(LEVELS, _CODE_BOOK_SIZES)):
        plane = img.samples[:, :, b]
        if np.any(plane != np.floor(plane)):
            raise InputError(f"non-integral {name} labels")
        if plane.min() < 0 or plane.max() >= size:
            raise InputError(f"{name} labels outside [0, {size})")
        planes.append(plane.astype(np.uint8))
    return LabelMapStack(*planes)


def post_classification_change_count(stack_a: LabelMapStack,
                                     stack_b: LabelMapStack,
                                     level: str = "coarse") -> int:
    """Number of pixels whose labels differ at the chosen level."""
    if stack_a.shape != stack_b.shape:
        raise InputError("dimension mismatch")
    return int(np.count_nonzero(stack_a.level(level) != stack_b.level(level)))


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
    if plane_a.shape != plane_b.shape:
        raise InputError("dimension mismatch")
    return float(np.mean((plane_a > 0) != (plane_b > 0)))
