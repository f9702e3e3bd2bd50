import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panqa.errors import InputError
from panqa.raster import (DN_TOLERANCE, ImageHeader, MultibandImage,
                          RasterFile, load_image, raster_paths, save_image,
                          save_rows)


def write_pair(tmp_path, name, header, payload, dtype):
    (tmp_path / f"{name}.json").write_text(json.dumps(header))
    np.asarray(payload, dtype=dtype).tofile(tmp_path / f"{name}.raw")
    return tmp_path / f"{name}.json"


def test_load_identity_calibration(tmp_path):
    hdr = {"width": 2, "height": 2, "bands": 1, "dtype": "u8",
           "gain": [1.0], "offset": [0.0], "nodata": None,
           "band_names": None}
    path = write_pair(tmp_path, "a", hdr, [0, 255, 10, 20], "<u1")
    img = load_image(path)
    assert img.planes[0].ravel().tolist() == [0, 255, 10, 20]


def test_load_gain_offset(tmp_path):
    hdr = {"width": 1, "height": 1, "bands": 2, "dtype": "u16",
           "gain": [0.01, 0.01], "offset": [0.0, 0.0], "nodata": None,
           "band_names": None}
    path = write_pair(tmp_path, "b", hdr, [100, 200], "<u2")
    img = load_image(path)
    assert img.planes[0, 0, 0] == pytest.approx(1.0)
    assert img.planes[1, 0, 0] == pytest.approx(2.0)


def test_load_integral_float_size_and_band_names(tmp_path):
    hdr = {"width": 2.0, "height": 1, "bands": 2, "dtype": "u8",
           "band_names": ["red", "nir"]}
    path = write_pair(tmp_path, "w", hdr, [1, 2, 3, 4], "<u1")
    img = load_image(path)
    assert img.planes.shape == (2, 1, 2)
    assert img.band_names == ["red", "nir"]


def test_load_length_mismatch(tmp_path):
    hdr = {"width": 2, "height": 2, "bands": 1, "dtype": "u8",
           "gain": [1.0], "offset": [0.0], "nodata": None,
           "band_names": None}
    path = write_pair(tmp_path, "c", hdr, [1, 2, 3], "<u1")
    with pytest.raises(InputError, match="length mismatch"):
        load_image(path)
    # a trailing partial sample: u16 samples 1 and 2, then one odd byte
    hdr = dict(hdr, width=2, height=1, dtype="u16")
    path = write_pair(tmp_path, "p", hdr, [1, 0, 2, 0, 9], "<u1")
    with pytest.raises(InputError, match="length mismatch"):
        load_image(path)


def test_load_rejects_nodata(tmp_path):
    hdr = {"width": 2, "height": 1, "bands": 1, "dtype": "u8",
           "gain": [1.0], "offset": [0.0], "nodata": 7,
           "band_names": None}
    path = write_pair(tmp_path, "d", hdr, [7, 3], "<u1")
    with pytest.raises(InputError, match="nodata"):
        load_image(path)


def test_f32_round_trip(tmp_path, rng):
    samples = rng.random((4, 4, 3)).astype(np.float32).astype(np.float64)
    img = MultibandImage(np.moveaxis(samples, 2, 0),
                         band_names=["r", "g", "b"])
    save_image(img, tmp_path / "rt", sample_type="f32")
    back = load_image(tmp_path / "rt")
    assert np.array_equal(back.planes, img.planes)
    assert back.band_names == ["r", "g", "b"]
    assert (back.height, back.width, back.bands) == (4, 4, 3)


def test_u8_out_of_range(tmp_path):
    img = MultibandImage(np.array([[[-0.1]]]))
    with pytest.raises(InputError, match="band 0: sample out of range"):
        save_image(img, tmp_path / "neg", sample_type="u8")
    assert not (tmp_path / "neg.json").exists()
    assert not (tmp_path / "neg.raw").exists()


def test_refused_save_writes_nothing(tmp_path, rng):
    planes = rng.uniform(0.0, 255.0, (3, 5, 7))
    save_image(MultibandImage(planes), tmp_path / "img", sample_type="u8")
    saved = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # refused in its last band, after two bands were written to the
    # <name>.raw.part file: that goes, and the pair saved before stays
    planes[-1, -1, -1] = 256.0
    for name in ("img", "new"):
        with pytest.raises(InputError, match="band 2: sample out of range"):
            save_image(MultibandImage(planes), tmp_path / name,
                       sample_type="u8")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == saved


@pytest.mark.parametrize("cut, error", [
    (lambda bl: bl[:-1], "blocks stop at row 6 of 9"),
    (lambda bl: bl[1:], "rows 3:6 of shape"),
    (lambda bl: [bl[1], bl[0]] + bl[2:], "rows 3:6 of shape"),
    (lambda bl: [(r, b[:-1]) for r, b in bl], r"shape \(1, 3, 4\)"),
    (lambda bl: bl[:2] + [(bl[2][0], np.full((2, 3, 4), np.nan))],
     "non-finite samples"),
])
def test_save_rows_refuses_blocks_that_miss_rows(tmp_path, rng, cut,
                                                 error):
    # blocks of 3 rows of a (2, 9, 4) image: refused, with nothing
    # written, unless they cover its rows in order with finite samples
    planes = rng.uniform(0.0, 1.0, (2, 9, 4))
    blocks = [(slice(r, r + 3), planes[:, r:r + 3]) for r in (0, 3, 6)]
    save_rows(tmp_path / "img", planes.shape, blocks)
    assert np.array_equal(load_image(tmp_path / "img").planes,
                          planes.astype(np.float32))
    with pytest.raises((ValueError, InputError), match=error):
        save_rows(tmp_path / "bad", planes.shape, cut(blocks))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.json",
                                                           "img.raw"]


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("sample, gain", [
    (1e40, 1.0), (-1e40, 1.0),
    # halfway between float32's largest value and 2**128: rounds to inf
    (F32_MAX + 2.0**103, 1.0),
    # finite, but the inverse calibration overflows float64
    (1e300, 1e-10),
])
def test_f32_overflow_refused(tmp_path, sample, gain):
    img = MultibandImage(np.array([[[0.5]], [[sample]]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError,
                           match="band 1: sample out of range for f32"):
            save_image(img, tmp_path / "big", "f32", gain=[1.0, gain])
    assert not (tmp_path / "big.json").exists()
    assert not (tmp_path / "big.raw").exists()


def test_f32_top_of_range_saved(tmp_path):
    # just below the halfway point a DN rounds down to float32's maximum
    below = np.nextafter(F32_MAX + 2.0**103, 0.0)
    save_image(MultibandImage(np.array([[[F32_MAX]], [[-below]]])),
               tmp_path / "top", "f32")
    assert load_image(tmp_path / "top").planes.ravel().tolist() == [
        F32_MAX, -F32_MAX]


def test_top_dn_saved_under_rounding_gain(tmp_path):
    # 255 * 0.7 loads as 178.5, and 178.5 / 0.7 = 255.00000000000003
    save_image(MultibandImage(np.array([[[178.5]]])), tmp_path / "top", "u8",
               gain=[0.7])
    assert (tmp_path / "top.raw").read_bytes() == bytes([255])
    assert load_image(tmp_path / "top").planes.ravel().tolist() == [178.5]


@pytest.mark.parametrize("gain, offset", [
    ([0.0], None), ([-0.0], None), ([math.inf], None), ([math.nan], None),
    (None, [-math.inf]), (None, [math.nan]),
], ids=["gain-0", "gain-minus-0", "gain-inf", "gain-nan", "offset-minus-inf",
        "offset-nan"])
def test_save_refuses_bad_calibration(tmp_path, gain, offset):
    # refused by the header, before any sample is divided by the gain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="must be finite"):
            save_image(MultibandImage(np.array([[[0.5]]])), tmp_path / "g",
                       "f32", gain=gain, offset=offset)
    assert not (tmp_path / "g.json").exists()
    assert not (tmp_path / "g.raw").exists()


def test_calibration_is_affine(tmp_path, rng):
    dn = rng.integers(0, 255, size=(3, 5, 2))
    hdr_raw = {"width": 5, "height": 3, "bands": 2, "dtype": "u8",
               "gain": [1.0, 1.0], "offset": [0.0, 0.0], "nodata": None,
               "band_names": None}
    hdr_cal = dict(hdr_raw, gain=[0.5, 2.0], offset=[1.0, -3.0])
    flat = np.moveaxis(dn, 2, 0).ravel()
    p_raw = write_pair(tmp_path, "raw", hdr_raw, flat, "<u1")
    p_cal = write_pair(tmp_path, "cal", hdr_cal, flat, "<u1")
    raw = load_image(p_raw).planes
    cal = load_image(p_cal).planes
    expected = (raw * np.array([0.5, 2.0])[:, None, None]
                + np.array([1.0, -3.0])[:, None, None])
    assert np.array_equal(cal, expected)


def test_band_views_and_range():
    data = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
    img = MultibandImage(data)
    assert np.array_equal(img.band(0), data[0])
    assert np.array_equal(img.band(1), data[1])
    with pytest.raises(InputError):
        img.band(2)


def test_non_finite_rejected():
    with pytest.raises(InputError, match="non-finite"):
        MultibandImage(np.array([[[np.nan]]]))


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d"], "abc",
                                   ["a", "b", 3]])
def test_band_names_checked_in_memory(names):
    with pytest.raises(InputError) as exc:
        samples = np.random.default_rng(0).random((16, 16, 3))
        MultibandImage(np.moveaxis(samples, 2, 0), band_names=names)
    assert str(exc.value) == (f"band_names must be null or a list of 3 "
                              f"strings: {names!r}")


def test_unknown_sample_type(tmp_path):
    hdr = {"width": 1, "height": 1, "bands": 1, "dtype": "f64",
           "gain": [1.0], "offset": [0.0], "nodata": None,
           "band_names": None}
    path = write_pair(tmp_path, "e", hdr, [1.0], "<f8")
    with pytest.raises(InputError):
        load_image(path)


def encode_by_formula(planes, sample_type, gain, offset):
    """Band-sequential payload bytes by the formula (planes - o) / g, then
    the integral types' range check (DN_TOLERANCE wide) and rint; None
    where it rejects."""
    dtype = {"u8": "<u1", "u16": "<u2", "f32": "<f4"}[sample_type]
    dn = (planes - np.array(offset)[:, None, None]) \
        / np.array(gain)[:, None, None]
    if sample_type != "f32":
        info = np.iinfo(dtype)
        if (np.any(dn < info.min - DN_TOLERANCE)
                or np.any(dn > info.max + DN_TOLERANCE)):
            return None
        dn = np.rint(dn)
    return dn.astype(dtype)


_DN_MAX = {"u8": 255, "u16": 65535}


@st.composite
def stored_images(draw):
    """(sample_type, gain, offset, planes): calibrated DNs of the type,
    shaped (bands, height, width)."""
    sample_type = draw(st.sampled_from(["u8", "u16", "f32"]))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
             draw(st.integers(1, 6)))
    elements = (st.floats(-1e4, 1e4, width=32) if sample_type == "f32"
                else st.integers(0, _DN_MAX[sample_type]))
    dn = draw(arrays(np.float64, shape, elements=elements))
    b = shape[0]
    gain = draw(st.lists(st.just(1.0) | st.floats(0.01, 100.0)
                         | st.floats(-100.0, -0.01), min_size=b, max_size=b))
    offset = draw(st.lists(st.just(0.0) | st.floats(-100.0, 100.0),
                           min_size=b, max_size=b))
    planes = dn * np.array(gain)[:, None, None]
    planes += np.array(offset)[:, None, None]
    return sample_type, gain, offset, planes


@settings(max_examples=120, deadline=None)
@given(stored=stored_images())
def test_save_load_round_trip(stored):
    sample_type, gain, offset, planes = stored
    interleaved = np.ascontiguousarray(planes.transpose(1, 2, 0))
    layouts = {"interleaved": np.moveaxis(interleaved, 2, 0),
               "band_sequential": planes}
    want = encode_by_formula(planes, sample_type, gain, offset)
    # every drawn DN is representable: the range check's tolerance absorbs
    # the rounding of the inverse calibration at the edge DNs
    assert want is not None
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, layout in layouts.items():
            save_image(MultibandImage(layout), tmp / name, sample_type, gain,
                       offset)
            assert (tmp / f"{name}.raw").read_bytes() == want.tobytes()
        back = load_image(tmp / "band_sequential")
        if sample_type != "f32":
            # a loaded integral-DN image re-saves to the same payload
            save_image(back, tmp / "again", sample_type, gain, offset)
            assert (tmp / "again.raw").read_bytes() == want.tobytes()
    # the samples the stored DNs represent, calibrated as DN * g + o
    stored_planes = (want.astype(np.float64) * np.array(gain)[:, None, None]
                     + np.array(offset)[:, None, None])
    assert np.array_equal(back.planes, stored_planes)
    if sample_type != "f32" or (set(gain) == {1.0} and set(offset) == {0.0}):
        # integral DNs, and f32 DNs with identity calibration, come back
        assert np.array_equal(back.planes, planes)


def _finite(values):
    return all(math.isfinite(v) for v in values)


@st.composite
def header_arguments(draw):
    """(sample_type, gain, offset, band_names, bands): save_image's header
    arguments, valid or not; gain and offset are None or lists."""
    bands = draw(st.integers(1, 3))
    sample_type = draw(st.sampled_from(["u8", "u16", "f32", "f64", "U8"]))
    special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
    gain = draw(st.none() | st.lists(
        special | st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
        min_size=bands, max_size=bands))
    offset = draw(st.none() | st.lists(special | st.floats(-100.0, 100.0),
                                       min_size=bands, max_size=bands))
    names = draw(st.none() | st.lists(st.text(max_size=4), min_size=bands,
                                      max_size=bands)
                 | st.lists(st.text(max_size=4), min_size=bands + 1,
                            max_size=bands + 1)
                 | st.lists(st.integers(), min_size=bands, max_size=bands)
                 | st.just(5) | st.just("rgb"))
    return sample_type, gain, offset, names, bands


@settings(max_examples=150, deadline=None)
@given(args=header_arguments(),
       container=st.sampled_from([list, tuple, np.array]),
       dn=st.integers(0, 200))
def test_saved_header_loads(args, container, dn):
    """MultibandImage and save_image either refuse the header arguments,
    writing nothing, or write a header that load_image reads back with the
    same fields."""
    sample_type, gain, offset, names, bands = args
    valid = (sample_type in ("u8", "u16", "f32")
             and (gain is None or (_finite(gain) and 0.0 not in gain))
             and (offset is None or _finite(offset))
             and (names is None or (isinstance(names, list)
                                    and len(names) == bands
                                    and all(isinstance(n, str)
                                            for n in names))))
    want_gain = [1.0] * bands if gain is None else gain
    want_offset = [0.0] * bands if offset is None else offset
    # planes whose DNs are all dn, under a calibration that is valid
    planes = np.full((bands, 2, 3), float(dn))
    if valid:
        planes = (planes * np.array(want_gain)[:, None, None]
                  + np.array(want_offset)[:, None, None])
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "img"
        try:
            # the image itself refuses bad band names
            img = MultibandImage(planes, band_names=names)
            save_image(img, path, sample_type,
                       None if gain is None else container(gain),
                       None if offset is None else container(offset))
        except InputError:
            assert not valid
            assert not any(Path(tmp).iterdir())
            return
        assert valid
        back = load_image(path)
        header = json.loads(path.with_suffix(".json").read_text())
    assert header == {"width": 3, "height": 2, "bands": bands,
                      "dtype": sample_type, "gain": want_gain,
                      "offset": want_offset, "nodata": None,
                      "band_names": names}
    assert back.planes.shape == (bands, 2, 3)
    assert back.band_names == names


def whole_payload_reader(path):
    """load_image as it was before RasterFile: every band read from one
    open file, converted, checked for nodata and calibrated in place, and
    the non-finite check left to MultibandImage."""
    hdr_path, raw_path = raster_paths(path)
    hdr = ImageHeader(**json.loads(hdr_path.read_text()))
    dtype = {"u8": "<u1", "u16": "<u2", "f32": "<f4"}[hdr.dtype]
    planes = np.empty((hdr.bands, hdr.height, hdr.width))
    with open(raw_path, "rb") as fh:
        for plane, gain, offset in zip(planes.reshape(hdr.bands, -1),
                                       hdr.gain, hdr.offset):
            plane[:] = np.fromfile(fh, dtype=dtype, count=plane.size)
            if hdr.nodata is not None and np.any(plane == hdr.nodata):
                raise InputError(
                    "nodata pixels present; dense rasters required")
            plane *= gain
            plane += offset
    return MultibandImage(planes, band_names=hdr.band_names)


@settings(max_examples=100, deadline=None)
@given(stored=stored_images(), named=st.booleans())
def test_readers_match_the_whole_payload_reader(stored, named):
    sample_type, gain, offset, planes = stored
    names = [f"b{k}" for k in range(len(planes))] if named else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "img"
        save_image(MultibandImage(planes, names), path,
                   sample_type, gain, offset)
        want = whole_payload_reader(path)
        got = load_image(path)
        raster = RasterFile(path)
        bands = [raster.band(b) for b in range(raster.bands)]
    # bit for bit, so a -0.0 for a 0.0 is a difference too
    assert got.planes.tobytes() == want.planes.tobytes()
    assert got.band_names == want.band_names == raster.band_names
    assert ((raster.bands, raster.height, raster.width)
            == (want.bands, want.height, want.width))
    for plane, want_plane in zip(bands, want.planes):
        assert plane.tobytes() == want_plane.tobytes()
        assert plane.shape == want_plane.shape
        assert not plane.flags.writeable


_GOOD = {"width": 3, "height": 2, "bands": 2, "dtype": "f32"}


@pytest.mark.parametrize("header, payload", [
    (None, [0.5] * 12),                              # no header
    (_GOOD, None),                                   # no payload
    (_GOOD, [0.5] * 11),                             # a sample short
    (_GOOD, [0.5] * 13),                             # a sample long
    (dict(_GOOD, nodata=7), [0.5] * 8 + [7] * 4),    # nodata in band 1
    (_GOOD, [0.5] * 7 + [math.inf] * 5),             # inf in band 1
    (dict(_GOOD, gain=[1.0, 1e300]), [0.5] * 6 + [1e30] * 6),  # overflow
], ids=["no-header", "no-payload", "short", "long", "nodata", "inf",
        "gain-overflow"])
def test_raster_file_refuses_as_load_image(tmp_path, header, payload):
    if header is not None:
        (tmp_path / "r.json").write_text(json.dumps(header))
    if payload is not None:
        np.asarray(payload, dtype="<f4").tofile(tmp_path / "r.raw")
    with pytest.raises(InputError) as want:
        load_image(tmp_path / "r")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as got:
            raster = RasterFile(tmp_path / "r")
            for b in range(raster.bands):
                raster.band(b)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("open_image", [load_image, RasterFile])
@pytest.mark.parametrize("header, payload, key", [
    # two negatives multiply to a size the 64-byte payload matches
    (dict(_GOOD, width=-4, height=-4, bands=1), [0.5] * 16, "width"),
    (dict(_GOOD, height=0), [], "height"),
    (dict(_GOOD, bands=0), [], "bands"),
], ids=["negative", "zero-height", "zero-bands"])
def test_header_refuses_dimension_below_one(tmp_path, open_image, header,
                                            payload, key):
    write_pair(tmp_path, "r", header, payload, "<f4")
    with pytest.raises(InputError, match=f"{key} must be at least 1"):
        open_image(tmp_path / "r")


@pytest.mark.parametrize("keep, band", [(0, 0), (13, 1), (23, 1)])
def test_payload_shrunk_after_opening(tmp_path, keep, band):
    # a 2-band u16 payload of 24 bytes, cut to keep bytes once opened: the
    # band it cuts into is refused, never returned short or uninitialized
    path = write_pair(tmp_path, "s", dict(_GOOD, dtype="u16"), range(12),
                      "<u2")
    raster = RasterFile(path)
    with open(tmp_path / "s.raw", "r+b") as fh:
        fh.truncate(keep)
    for b in range(band):
        assert raster.band(b).ravel().tolist() == list(range(6 * b,
                                                             6 * b + 6))
    with pytest.raises(InputError) as exc:
        raster.band(band)
    assert str(exc.value) == (f"length mismatch: payload {tmp_path / 's.raw'}"
                              f" ends inside band {band}, header implies 24"
                              " bytes")


@pytest.mark.parametrize("b, start, stop, message", [
    (-1, 0, 2, r"band index -1 out of range \[0, 2\)"),
    (2, 0, 2, r"band index 2 out of range \[0, 2\)"),
    (0, -1, 1, r"rows \[-1, 1\) out of range \[0, 2\)"),
    (1, 1, 3, r"rows \[1, 3\) out of range \[0, 2\)"),
    (1, 2, 1, r"rows \[2, 1\) out of range \[0, 2\)"),
])
def test_rows_out_of_range_on_both_image_kinds(tmp_path, b, start, stop,
                                               message):
    path = write_pair(tmp_path, "r", _GOOD, [0.5] * 12, "<f4")
    for img in (RasterFile(path), load_image(path)):
        with pytest.raises(InputError, match=message):
            img.rows(b, start, stop)
        if start == 0:
            with pytest.raises(InputError, match=message):
                img.band(b)


@settings(max_examples=100, deadline=None)
@given(stored=stored_images(), data=st.data())
def test_rows_read_as_the_loaded_band(stored, data):
    # a row range of any band is the loaded band's rows bit for bit
    sample_type, gain, offset, planes = stored
    bands, height, _ = planes.shape
    b = data.draw(st.integers(0, bands - 1))
    start = data.draw(st.integers(0, height))
    stop = data.draw(st.integers(start, height))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "img"
        save_image(MultibandImage(planes), path, sample_type,
                   gain, offset)
        want = whole_payload_reader(path).band(b)[start:stop]
        loaded = load_image(path)
        got = RasterFile(path).rows(b, start, stop)
    for rows in (got, loaded.rows(b, start, stop)):
        assert rows.shape == (stop - start, planes.shape[2])
        assert rows.tobytes() == want.tobytes()
        assert not rows.flags.writeable
    assert got.tobytes() == loaded.band(b)[start:stop].tobytes()


@pytest.mark.parametrize("keep, ok_rows, cut_rows", [
    (18, (0, 0, 1), (1, 1, 2)),     # band 1, row 1 is cut
    (13, (0, 0, 2), (1, 0, 1)),     # band 1 is gone
    (5, (0, 1, 1), (0, 0, 1)),      # band 0, row 0 is cut
])
def test_rows_of_a_payload_cut_after_opening(tmp_path, keep, ok_rows,
                                             cut_rows):
    # a 2-band 2x3 u16 payload of 24 bytes, cut to keep bytes once opened:
    # rows before the cut are read, rows across it are refused
    path = write_pair(tmp_path, "s", dict(_GOOD, dtype="u16"), range(12),
                      "<u2")
    img = RasterFile(path)
    with open(tmp_path / "s.raw", "r+b") as fh:
        fh.truncate(keep)
    b, start, stop = ok_rows
    assert img.rows(b, start, stop).ravel().tolist() == list(
        range(6 * b + 3 * start, 6 * b + 3 * stop))
    b = cut_rows[0]
    with pytest.raises(InputError) as exc:
        img.rows(*cut_rows)
    assert str(exc.value) == (f"length mismatch: payload {tmp_path / 's.raw'}"
                              f" ends inside band {b}, header implies 24"
                              " bytes")


@pytest.fixture(scope="module")
def chain_images(tmp_path_factory):
    """A 32^2 scene, its ratio-4 MS and a PCA fusion of the two."""
    from panqa.cli import main
    d = tmp_path_factory.mktemp("chain")
    assert main(["synth", "--width", "32", "--height", "32",
                 "--out-ms", str(d / "ms"), "--out-pan", str(d / "pan")]) == 0
    assert main(["degrade", "--input", str(d / "ms"), "--ratio", "4",
                 "--out", str(d / "ms_l")]) == 0
    assert main(["fuse", "--method", "pca", "--ms", str(d / "ms_l"),
                 "--pan", str(d / "pan"), "--out", str(d / "fused")]) == 0
    return d


# each command with the image it reads as "bad" and its output as "out"
_READERS = {
    "degrade": (["degrade", "--input", "bad", "--ratio", "2", "--out",
                 "out"], "ms"),
    "fuse": (["fuse", "--method", "pca", "--ms", "ms_l", "--pan", "bad",
              "--out", "out"], "pan"),
    "eval": (["eval", "--reference", "ms", "--candidate", "bad", "--out",
              "out"], "fused"),
    "qnr": (["qnr", "--ms", "bad", "--pan", "pan", "--fused", "fused",
             "--out", "out"], "ms_l"),
    "glcm3": (["glcm3", "--input", "bad", "--out", "out"], "ms"),
    "quantize": (["quantize", "--input", "bad", "--out", "out"], "ms"),
}


@pytest.mark.parametrize("dtype", [[], {}, 3, True],
                         ids=["list", "object", "int", "bool"])
@pytest.mark.parametrize("command", sorted(_READERS))
def test_header_refuses_dtype_of_another_type(tmp_path, capsys,
                                              chain_images, dtype, command):
    from panqa.cli import main
    argv, name = _READERS[command]
    header = json.loads((chain_images / f"{name}.json").read_text())
    (tmp_path / "bad.json").write_text(json.dumps(dict(header, dtype=dtype)))
    (tmp_path / "bad.raw").write_bytes(
        (chain_images / f"{name}.raw").read_bytes())
    for open_image in (load_image, RasterFile):
        with pytest.raises(InputError, match="unknown dtype"):
            open_image(tmp_path / "bad")
    paths = {a: chain_images / a for a in ("ms", "ms_l", "pan", "fused")}
    paths.update(bad=tmp_path / "bad", out=tmp_path / "out")
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    assert "unknown dtype" in capsys.readouterr().err
    # nothing written: no output file and no .part file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json",
                                                          "bad.raw"]
