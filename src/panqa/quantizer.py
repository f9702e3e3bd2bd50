"""Reference spectral quantizer and its label-map measures.

The quantizer is a deliberately simple stand-in for a prior-knowledge
rule base: a context-free per-pixel threshold code on calibrated
reflectance over every band, at three nested quantization levels. A
band's digit d in {0..3} is its level on glcm3's fixed reflectance scale
at 4 levels (thresholds 0.25, 0.5, 0.75; outside [0, 1] as if clipped).
Fine is the base-4 code of the digits, intermediate the base-2 code of
d >> 1 (above 0.5), and coarse 1 where more than half the bands lie
above 0.5: 4^n, 2^n and 2 labels for n bands, built in one pass by
SpectralCoder, a band at a time. A label stack is saved, for people to
look at, as a three-band u16 image named after its source band count
(fine:4, ...); nothing in panqa reads one back.

The measures, post-classification change counting, the three-level
8-adjacency cross-aura contour intensity (0..24) and the binarized
contour difference, compare labels only for equality, so band order
changes no cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .glcm3 import _bin_reflectance
from .raster import Image, MultibandImage, check_shape, save_image

LEVELS = ("fine", "intermediate", "coarse")

# 4^8 fine labels fill save_stack's u16 samples
MAX_CODE_BANDS = 8


@dataclass
class LabelMapStack:
    """Label planes at three levels, coded from an image of `bands` bands."""

    fine: np.ndarray
    intermediate: np.ndarray
    coarse: np.ndarray
    bands: int

    def __post_init__(self):
        check_shape(self.intermediate, self.fine.shape)
        check_shape(self.coarse, self.fine.shape)

    def level(self, name: str) -> np.ndarray:
        if name not in LEVELS:
            raise InputError(f"unknown level {name!r}")
        return getattr(self, name)


class SpectralCoder:
    """quantize_spectral's label codes, built one band at a time: add()
    each band of the image, then take stack()."""

    def __init__(self, bands: int, height: int, width: int):
        if bands > MAX_CODE_BANDS:
            raise InputError(f"quantizer codes at most {MAX_CODE_BANDS} "
                             f"bands, not {bands}")
        self.bands = bands
        # a held stack takes a byte per pixel per level up to 4 bands
        self.fine = np.zeros((height, width),
                             dtype=np.uint8 if bands <= 4 else np.uint16)
        self.intermediate = np.zeros(self.fine.shape, dtype=np.uint8)
        # bands above 0.5 per pixel, the coarse level's vote
        self._above = np.zeros(self.fine.shape, dtype=np.uint8)

    def add(self, plane: np.ndarray) -> None:
        """Add the next band's fine digit and, beside it, its merged
        digit d >> 1, in place."""
        digit = _bin_reflectance(plane, 4)
        self.fine *= 4
        self.fine += digit
        digit >>= 1
        self.intermediate *= 2
        self.intermediate += digit
        self._above += digit

    def stack(self) -> LabelMapStack:
        return LabelMapStack(
            fine=self.fine, intermediate=self.intermediate,
            coarse=(2 * self._above > self.bands).astype(np.uint8),
            bands=self.bands)


def quantize_spectral(img: Image) -> LabelMapStack:
    """The label stack of an image, read band by band, so it may be a
    raster.RasterFile."""
    coder = SpectralCoder(*img.shape)
    for b in range(img.bands):
        coder.add(img.band(b))
    return coder.stack()


def save_stack(stack: LabelMapStack, path) -> None:
    """Write the three label planes as a u16 image, one band per level,
    each named level:bands."""
    planes = np.array([stack.level(name) for name in LEVELS],
                      dtype=np.float64)
    save_image(MultibandImage(planes, band_names=[
        f"{name}:{stack.bands}" for name in LEVELS]), path, sample_type="u16")


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
    """Per-pixel count of existing 8-neighbors with a different label:
    each of four offsets compares every pixel pair once and marks both."""
    h, w = labels.shape
    count = np.zeros((h, w), dtype=np.uint8)  # at most 8, 24 over levels
    for dy, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):
        near = (slice(0, h - dy), slice(max(-dx, 0), w - max(dx, 0)))
        far = (slice(dy, h), slice(max(dx, 0), w + min(dx, 0)))
        differ = labels[near] != labels[far]
        count[near] += differ
        count[far] += differ
    return count


def cross_aura(stack: LabelMapStack) -> tuple[np.ndarray, float]:
    """Three-level contour intensity plane in {0..24} and its mean."""
    h, w = stack.fine.shape
    if h < 3 or w < 3:
        raise InputError("stack must be at least 3x3")
    plane = sum(_aura_plane(stack.level(name)) for name in LEVELS)
    return plane, float(plane.mean())


def binary_contour_cost(plane_a: np.ndarray, plane_b: np.ndarray) -> float:
    """Mean absolute difference of two cross-aura planes, binarized."""
    check_shape(plane_b, plane_a.shape)
    return float(np.mean((plane_a > 0) != (plane_b > 0)))
