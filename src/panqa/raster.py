"""Multi-band raster data model with bit-exact raw file I/O.

An image on disk is a pair of files sharing a base name: ``<name>.json``
(the header) and ``<name>.raw`` (the payload). The payload is band
sequential, row-major within each band, little endian. Calibration is
affine per band: sample = DN * gain + offset.

In memory an image is held as on disk: MultibandImage.planes is one
C-contiguous float64 buffer of (bands, height, width) planes. The
constructor holds such a buffer without a copy, so a producer fills one
plane at a time and the image is never held twice; any other 3-D array
is copied into this layout once.

ImageHeader is the header's one definition, its fields named as the JSON
keys: load_image() builds it from the JSON object and save_image() writes
it, so every header saved is one that loads. It refuses a width, height
or band count below 1, a dtype that is not one of the sample type
names, a gain or offset that is not finite, and a gain of 0, before any
sample is converted.

Both image kinds share one read interface, the Image base: shape, the
(bands, height, width) triple, and rows(b, start, stop, out=None), the
calibrated rows [start, stop) of band b as a read-only (stop - start,
width) float64 array, or written into out, a caller's C-contiguous
float64 array of that shape; band(b, out=None) is rows(b, 0, height,
out), and check_shape() is the one shape comparison. A MultibandImage
returns views of its buffer, or copies them into out.
RasterFile is an image left on disk: it checks the header and the
payload size when it opens, and each rows() call seeks to those rows and
reads them alone, so a caller that goes strip by strip or band by band
holds that strip or band, never the image. rows() is the one reader of
a payload: it converts, refuses nodata, calibrates (multiply, then add:
the same two roundings as DN * gain + offset) and refuses non-finite
samples in the rows it reads, and load_image() fills its buffer through
it, each plane with band(b, out=plane). A payload that ends early is a
length mismatch naming the file, and one whose size or modification
time differs from those seen on opening is refused as changed, so a
RasterFile read many times never mixes two versions of its file.

save_rows() is the one writer. It takes an image as blocks of rows of
every band, in row order, and holds one band of a block's DNs, never the
payload, so a producer that hands it each block as it makes it, as the
fusers do, holds no image either; save_image() is save_rows() over an
image's own row_strips() runs. A raster's two files are its name with
.json and .raw appended, so a dot in a name starts no suffix.

row_strips() is the one strip iterator and STRIP_BYTES the one strip
budget, which bounds memory alone: each loop is elementwise, or gathers
its results for one mean. The resamplers and the fusers' pan statistics
work in blocks of rows (resample.BLOCK_ROWS), which do not depend on it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (InputError, checked, checked_list, named, read_json,
                     require_keys)

_DTYPES = {
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "f32": np.dtype("<f4"),
}

# one strip's bytes, read by row_strips() at each call: 32768 float64
# samples, 32 rows of a 1024-wide plane. 2-vCPU Xeon, numpy 2.4.6: 512^2
# binning 0.79 ms at 32768 and 65536 samples, 0.89 at 8192; 1024^2 PCA
# fuse flat from 16 to 128 rows, +11% at 8
STRIP_BYTES = 256 * 1024

# DN slack of the u8/u16 range check, which runs before rint: it absorbs
# the rounding of the inverse calibration (about 1e-11 DN for gains in
# [0.01, 100] and offsets in [-100, 100]) and still refuses -0.1 as u8
DN_TOLERANCE = 1e-6


def row_strips(n: int, item_bytes: int, unit: int = 1):
    """Yields (start, stop) runs that cover [0, n) in order. Each is the
    largest multiple of unit items whose item_bytes each fit in
    STRIP_BYTES, and at least unit items; the last may be shorter."""
    step = unit * max(1, STRIP_BYTES // (item_bytes * unit))
    for start in range(0, n, step):
        yield start, min(start + step, n)


def _check_finite(plane: np.ndarray) -> None:
    if not np.isfinite(plane).all():
        raise InputError("non-finite samples")


def _check_rows(shape: tuple[int, int, int], b: int, start: int,
                stop: int) -> None:
    """Refuses a band index or a row range [start, stop) outside an image
    of this (bands, height, width) shape."""
    bands, height, _ = shape
    if not 0 <= b < bands:
        raise InputError(f"band index {b} out of range [0, {bands})")
    if not 0 <= start <= stop <= height:
        raise InputError(f"rows [{start}, {stop}) out of range "
                         f"[0, {height})")


def _check_band_names(names, bands: int) -> None:
    """Refuses band names other than None or a list of one string per
    band, in memory and in a header alike."""
    if names is not None and not (
            isinstance(names, list) and len(names) == bands
            and all(isinstance(n, str) for n in names)):
        raise InputError(f"band_names must be null or a list of "
                         f"{bands} strings: {names!r}")


def check_shape(img, shape: tuple[int, ...]) -> None:
    """Refuses an image whose (bands, height, width), or an array whose
    shape, is not shape, naming both."""
    if img.shape != tuple(shape):
        raise InputError(f"shape mismatch: {img.shape} against "
                         f"{tuple(shape)}")


def _check_out(out: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """out, an array for rows() to fill or tims_glcm's work planes, once
    it is C-contiguous float64 of this shape, as both write its bytes."""
    check_shape(out, shape)
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise InputError("out must be a C-contiguous float64 array")
    return out


class Image:
    """The read interface both image kinds share. A subclass gives shape,
    its (bands, height, width), and rows(b, start, stop, out=None), the
    calibrated rows [start, stop) of band b as a read-only (stop - start,
    width) float64 array, or written into out, a caller's C-contiguous
    float64 array of that shape, which is returned."""

    @property
    def bands(self) -> int:
        return self.shape[0]

    @property
    def height(self) -> int:
        return self.shape[1]

    @property
    def width(self) -> int:
        return self.shape[2]

    def band(self, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (height, width) plane of band b: rows(b, 0, height, out)."""
        return self.rows(b, 0, self.height, out)


@dataclass
class MultibandImage(Image):
    """Calibrated raster: planes is its C-contiguous float64 buffer of
    (bands, height, width) planes."""

    planes: np.ndarray
    band_names: list[str] | None = None

    def __post_init__(self):
        a = np.asarray(self.planes)
        if a.ndim != 3:
            raise InputError("planes must be a 3-D array")
        if a.size == 0:
            raise InputError("empty image")
        _check_band_names(self.band_names, a.shape[0])
        # a copy only when the planes are not C-contiguous float64 already
        self.planes = np.ascontiguousarray(a, dtype=np.float64)
        # band by band, so the check holds one plane's mask at a time
        for p in self.planes:
            _check_finite(p)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.planes.shape

    def rows(self, b: int, start: int, stop: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """Rows [start, stop) of band b: a read-only view, or copied into
        out."""
        _check_rows(self.shape, b, start, stop)
        view = self.planes[b, start:stop]
        if out is not None:
            _check_out(out, view.shape)[...] = view
            return out
        view.flags.writeable = False
        return view


@dataclass
class ImageHeader:
    """A header's fields, named and ordered as its JSON keys; checked and
    converted here, for the header read and the header written alike."""

    width: int
    height: int
    bands: int
    dtype: str
    gain: list[float] | None = None      # None or [] means all 1.0
    offset: list[float] | None = None    # None or [] means all 0.0
    nodata: float | None = None
    band_names: list[str] | None = None

    def __post_init__(self):
        for key in ("width", "height", "bands"):
            value = checked(int, getattr(self, key), key)
            if value < 1:
                raise InputError(f"{key} must be at least 1: {value}")
            setattr(self, key, value)
        # the type first: a list or an object is no key of _DTYPES
        if not isinstance(self.dtype, str) or self.dtype not in _DTYPES:
            raise InputError(f"unknown dtype {self.dtype!r}")
        for key, default in (("gain", 1.0), ("offset", 0.0)):
            values = getattr(self, key)
            setattr(self, key, [default] * self.bands if values in (None, [])
                    else checked_list(float, values, key))
        if len(self.gain) != self.bands or len(self.offset) != self.bands:
            raise InputError("gain/offset length must equal band count")
        # a gain of 0 loses the DNs, and its inverse divides by zero
        if not all(map(math.isfinite, self.gain)) or 0.0 in self.gain:
            raise InputError(f"gain must be finite and nonzero: {self.gain}")
        if not all(map(math.isfinite, self.offset)):
            raise InputError(f"offset must be finite: {self.offset}")
        if self.nodata is not None:
            self.nodata = checked(float, self.nodata, "nodata")
        _check_band_names(self.band_names, self.bands)


def raster_paths(path) -> tuple[Path, Path]:
    """(header, payload) files of a raster: its name with .json and .raw
    appended, once a .json or .raw suffix is dropped, so 'gain1.02' is
    'gain1.02.json'. A path with no file name ('', '.', a root) or whose
    name is '..' raises InputError."""
    p = Path(path)
    if p.name in ("", ".."):
        raise InputError(f"raster path has no file name: {str(path)!r}")
    if p.suffix in (".json", ".raw"):
        p = p.with_suffix("")
    return p.with_name(p.name + ".json"), p.with_name(p.name + ".raw")


class RasterFile(Image):
    """A raster on disk, read a strip of rows at a time. Opening checks the
    header and the payload size and records the payload's size and
    modification time; rows(b, start, stop, out) reads, calibrates and
    checks those rows alone, refuses them once either differs, and
    closes the file before it returns."""

    def __init__(self, path):
        hdr_path, self.payload_path = raster_paths(path)
        if not hdr_path.exists():
            raise InputError(f"missing header {hdr_path}")
        if not self.payload_path.exists():
            raise InputError(f"missing payload {self.payload_path}")
        doc = read_json(hdr_path, "header")
        keys = fields(ImageHeader)
        require_keys(doc, [f.name for f in keys if f.default is MISSING],
                     f"header {hdr_path}", [f.name for f in keys])
        with named(f"header {hdr_path}: "):
            self.header = hdr = ImageHeader(**doc)
        self.shape = hdr.bands, hdr.height, hdr.width
        self.band_names = hdr.band_names
        self._dtype = _DTYPES[hdr.dtype]
        self._row_bytes = self.width * self._dtype.itemsize
        self._plane_bytes = self.height * self._row_bytes
        # the exact byte count: a trailing partial sample is refused too
        expected = self.bands * self._plane_bytes
        stat = self.payload_path.stat()
        if stat.st_size != expected:
            raise InputError(
                f"length mismatch: payload {self.payload_path} has "
                f"{stat.st_size} bytes, header implies {expected}")
        # each read is refused once the payload is no longer this file
        self._stamp = stat.st_size, stat.st_mtime_ns

    def rows(self, b: int, start: int, stop: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """The calibrated rows [start, stop) of band b, read from the
        payload now; read-only, as MultibandImage's views are, or read
        into out."""
        _check_rows(self.shape, b, start, stop)
        shape = stop - start, self.width
        plane = np.empty(shape) if out is None else _check_out(out, shape)
        flat = plane.reshape(-1)
        with open(self.payload_path, "rb") as fh:
            fh.seek(b * self._plane_bytes + start * self._row_bytes)
            dn = np.fromfile(fh, dtype=self._dtype, count=flat.size)
            stat = os.fstat(fh.fileno())
        # the payload was checked on opening, but a file can change since
        if dn.size != flat.size:
            raise InputError(
                f"length mismatch: payload {self.payload_path} ends inside "
                f"band {b}, header implies "
                f"{self.bands * self._plane_bytes} bytes")
        if (stat.st_size, stat.st_mtime_ns) != self._stamp:
            raise InputError(f"payload {self.payload_path} changed since "
                             "it was opened")
        flat[:] = dn
        del dn   # freed before the nodata and non-finite masks
        hdr = self.header
        if hdr.nodata is not None and np.any(flat == hdr.nodata):
            raise InputError("nodata pixels present; dense rasters required")
        # an overflow to inf is refused as a non-finite sample
        with np.errstate(over="ignore"):
            flat *= hdr.gain[b]
            flat += hdr.offset[b]
        _check_finite(plane)
        if out is None:
            plane.flags.writeable = False
        return plane


def load_image(path) -> MultibandImage:
    """Load and radiometrically calibrate a raster from <name>.json/.raw,
    each band read by RasterFile.rows into its plane of one buffer."""
    raster = RasterFile(path)
    planes = np.empty(raster.shape)
    for b, plane in enumerate(planes):
        raster.band(b, out=plane)
    return MultibandImage(planes, band_names=raster.band_names)


def save_image(img: MultibandImage, path, sample_type: str = "f32",
               gain=None, offset=None) -> None:
    """save_rows() of the image's own row_strips() runs of rows."""
    save_rows(path, img.shape,
              ((slice(start, stop), img.planes[:, start:stop])
               for start, stop in row_strips(img.height, 8 * img.width)),
              sample_type, gain, offset, img.band_names)


def save_rows(path, shape: tuple[int, int, int], blocks,
              sample_type: str = "f32", gain=None, offset=None,
              band_names=None) -> None:
    """Write <name>.json/.raw of an image of this (bands, height, width)
    shape, inverting the affine calibration if given. blocks yields
    (rows, block) in row order: rows the slice of [0, height) that
    starts where the last one stopped, block its (bands, r, width)
    float64 samples, left unchanged. gain and offset are sequences of
    one number per band (None: 1 and 0). The header is built and checked
    as an ImageHeader first, so a header that load_image() would refuse
    is never written.

    f32 storage round-trips bit-exactly for float32-representable samples,
    and raises on a sample whose DN lies beyond float32's range. Integral
    storage raises on values more than DN_TOLERANCE outside the
    representable range, and every storage on a non-finite sample. Each
    band of a block is converted in a float64 copy and written at its
    band-sequential place in <name>.raw.part; the header is written and
    that file renamed to <name>.raw once the last row is in it. A refused
    sample, or any other error, the blocks' own included, removes the
    .part file, so it leaves a pair saved earlier at that path as it
    was, and a new path with no file.
    """
    bands, height, width = shape
    hdr = ImageHeader(width, height, bands, sample_type,
                      gain=None if gain is None else list(gain),
                      offset=None if offset is None else list(offset),
                      band_names=band_names)
    hdr_path, raw_path = raster_paths(path)
    part = raw_path.with_name(raw_path.name + ".part")
    dtype = _DTYPES[sample_type]
    if sample_type != "f32":
        lo = np.iinfo(dtype).min - DN_TOLERANCE
        hi = np.iinfo(dtype).max + DN_TOLERANCE
    row_bytes = width * dtype.itemsize
    done = 0
    try:
        # an overflow to inf, in the arithmetic or the cast, is refused
        with open(part, "wb") as fh, np.errstate(over="ignore"):
            for rows, block in blocks:
                if (rows.start != done
                        or block.shape != (bands, rows.stop - done, width)):
                    raise ValueError(f"rows {rows.start}:{rows.stop} of "
                                     f"shape {block.shape} do not follow "
                                     f"row {done} of a {shape} image")
                done = rows.stop
                for k, (band, g, o) in enumerate(zip(block, hdr.gain,
                                                     hdr.offset)):
                    _check_finite(band)
                    refused = (f"band {k}: sample out of range for "
                               f"{sample_type} after inverse calibration")
                    dn = np.subtract(band, o)
                    dn /= g
                    if sample_type != "f32":
                        if np.any(dn < lo) or np.any(dn > hi):
                            raise InputError(refused)
                        np.rint(dn, out=dn)
                    dn = dn.astype(dtype)
                    if sample_type == "f32" and np.isinf(dn).any():
                        raise InputError(refused)
                    fh.seek((k * height + rows.start) * row_bytes)
                    dn.tofile(fh)
            if done != height:
                raise ValueError(f"blocks stop at row {done} of {height}")
        with open(hdr_path, "w", encoding="utf-8") as fh:
            json.dump(asdict(hdr), fh)
        # not Path.replace: a rename over an existing file makes ext4
        # (auto_da_alloc) write the new one out first; a 16 MB f32 save
        # took 38 ms that way against 21 ms (2-vCPU Xeon, ext4)
        raw_path.unlink(missing_ok=True)
        part.rename(raw_path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
