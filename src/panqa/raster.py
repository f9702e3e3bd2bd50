"""Multi-band raster data model with bit-exact raw file I/O.

An image on disk is a pair of files sharing a base name: ``<name>.json``
(the header) and ``<name>.raw`` (the payload). The payload is band
sequential, row-major within each band, little endian. Calibration is
affine per band: sample = DN * gain + offset. In memory everything is
float64, shaped (height, width, bands).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError

_DTYPES = {
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "f32": np.dtype("<f4"),
}

_HEADER_KEYS = {"width", "height", "bands", "dtype", "gain", "offset",
                "nodata", "band_names"}


@dataclass
class MultibandImage:
    """Calibrated raster; samples has shape (height, width, bands)."""

    samples: np.ndarray
    band_names: list[str] | None = None

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=np.float64)
        if a.ndim == 2:
            a = a[:, :, None]
        if a.ndim != 3:
            raise InputError("samples must be a 2-D or 3-D array")
        if a.shape[0] < 1 or a.shape[1] < 1 or a.shape[2] < 1:
            raise InputError("empty image")
        if not np.isfinite(a).all():
            raise InputError("non-finite samples")
        self.samples = a

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def bands(self) -> int:
        return self.samples.shape[2]

    def band(self, b: int) -> np.ndarray:
        """The (height, width) plane of band b. Read-only view."""
        if not 0 <= b < self.bands:
            raise InputError(f"band index {b} out of range [0, {self.bands})")
        plane = self.samples[:, :, b]
        plane.flags.writeable = False
        return plane


@dataclass
class ImageHeader:
    width: int
    height: int
    bands: int
    sample_type: str
    gain: list[float] = field(default_factory=list)
    offset: list[float] = field(default_factory=list)
    nodata: float | None = None
    band_names: list[str] | None = None

    def __post_init__(self):
        if self.sample_type not in _DTYPES:
            raise InputError(f"unknown sample_type {self.sample_type!r}")
        if not self.gain:
            self.gain = [1.0] * self.bands
        if not self.offset:
            self.offset = [0.0] * self.bands
        if len(self.gain) != self.bands or len(self.offset) != self.bands:
            raise InputError("gain/offset length must equal band count")


def _paths(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix in (".json", ".raw"):
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".raw")


def load_image(path) -> MultibandImage:
    """Load and radiometrically calibrate a raster from <name>.json/.raw."""
    hdr_path, raw_path = _paths(path)
    if not hdr_path.exists():
        raise InputError(f"missing header {hdr_path}")
    if not raw_path.exists():
        raise InputError(f"missing payload {raw_path}")
    with open(hdr_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    unknown = set(doc) - _HEADER_KEYS
    if unknown:
        raise InputError(f"unknown header keys {sorted(unknown)}")
    try:
        hdr = ImageHeader(
            width=int(doc["width"]), height=int(doc["height"]),
            bands=int(doc["bands"]), sample_type=doc["dtype"],
            gain=list(doc.get("gain") or []),
            offset=list(doc.get("offset") or []),
            nodata=doc.get("nodata"),
            band_names=doc.get("band_names"),
        )
    except KeyError as exc:
        raise InputError(f"header missing key {exc}") from exc

    dtype = _DTYPES[hdr.sample_type]
    raw = np.fromfile(raw_path, dtype=dtype)
    expected = hdr.width * hdr.height * hdr.bands
    if raw.size != expected:
        raise InputError(
            f"length mismatch: payload has {raw.size} samples, "
            f"header implies {expected}")
    planes = raw.astype(np.float64).reshape(hdr.bands, hdr.height, hdr.width)
    if hdr.nodata is not None and np.any(planes == hdr.nodata):
        raise InputError("nodata pixels present; dense rasters required")
    gain = np.asarray(hdr.gain, dtype=np.float64)[:, None, None]
    offset = np.asarray(hdr.offset, dtype=np.float64)[:, None, None]
    planes = planes * gain + offset
    if not np.isfinite(planes).all():
        raise InputError("non-finite values after calibration")
    return MultibandImage(np.moveaxis(planes, 0, 2), band_names=hdr.band_names)


def save_image(img: MultibandImage, path, sample_type: str = "f32",
               gain=None, offset=None) -> None:
    """Write <name>.json/.raw, inverting the affine calibration if given.

    f32 storage round-trips bit-exactly for float32-representable samples.
    Integral storage raises on values outside the representable range.
    """
    if sample_type not in _DTYPES:
        raise InputError(f"unknown sample_type {sample_type!r}")
    hdr_path, raw_path = _paths(path)
    b = img.bands
    gain = [1.0] * b if gain is None else list(gain)
    offset = [0.0] * b if offset is None else list(offset)
    if len(gain) != b or len(offset) != b:
        raise InputError("gain/offset length must equal band count")

    planes = np.moveaxis(img.samples, 2, 0)
    g = np.asarray(gain, dtype=np.float64)[:, None, None]
    o = np.asarray(offset, dtype=np.float64)[:, None, None]
    dn = (planes - o) / g
    dtype = _DTYPES[sample_type]
    if sample_type in ("u8", "u16"):
        info = np.iinfo(dtype)
        if np.any(dn < info.min) or np.any(dn > info.max):
            raise InputError(
                f"sample out of range for {sample_type} after inverse "
                "calibration")
        dn = np.rint(dn)
    payload = dn.astype(dtype)

    doc = {
        "width": img.width, "height": img.height, "bands": b,
        "dtype": sample_type, "gain": gain, "offset": offset,
        "nodata": None, "band_names": img.band_names,
    }
    with open(hdr_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    payload.tofile(raw_path)

