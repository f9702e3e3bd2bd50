import inspect
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panqa import glcm3, pipeline, raster, spectral
from panqa.errors import DegeneracyError, InputError
from panqa.cli import build_parser
from panqa.fusion import FusionConfig, pansharpen
from panqa.pipeline import (Candidate, EvalOptions, RunManifest,
                            classic_metrics, evaluate_candidate,
                            image_features, run_manifest, write_report)
from panqa.protocol import QiRecord, aggregate, process_costs
from panqa.quantizer import LEVELS, quantize_spectral
from panqa.raster import MultibandImage, RasterFile, load_image, save_image
from panqa.spectral import DEFAULT_BLOCK
from reference_scorer import (CATEGORY1_KEYS, GLCM_KEYS, band_features,
                              category1_costs, category3_costs,
                              category4_cost, glcm_features, inverse_pcc,
                              post_class_change)
from test_cli import count_calls
from test_spectral import bits, pcc_of


def write_manifest(path, options):
    doc = {"reference": "ref", "ratio": 4,
           "candidates": [{"id": "a", "path": "a"}, {"id": "b", "path": "b"}],
           "options": options}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_from_json_reads_category2_level(tmp_path):
    path = write_manifest(tmp_path / "m.json",
                          {"category2_level": "intermediate", "gl": 8})
    opts = RunManifest.from_json(path).options
    assert opts.category2_level == "intermediate"
    assert opts.gl == 8


def test_from_json_rejects_unknown_option(tmp_path):
    path = write_manifest(tmp_path / "m.json", {"category2_case": "fine"})
    with pytest.raises(InputError, match="category2_case"):
        RunManifest.from_json(path)


def test_run_manifest_leaves_options_unchanged(tmp_path, rng):
    for name in ("ref", "a", "b"):
        samples = rng.uniform(0.1, 0.9, (12, 12, 4))
        save_image(MultibandImage(np.moveaxis(samples, 2, 0)),
                   tmp_path / name)
    manifest = RunManifest(
        reference=str(tmp_path / "ref"),
        candidates=[Candidate(id=c, path=str(tmp_path / c))
                    for c in ("a", "b")],
        options=EvalOptions(ratio=2, gl=8))
    with pytest.warns(UserWarning, match="category4.binary_contour"):
        run_manifest(manifest, tmp_path / "out")
    assert manifest.options == EvalOptions(ratio=2, gl=8)
    assert (tmp_path / "out" / "ranks.csv").exists()


def test_from_json_rejects_unknown_category2_level(tmp_path):
    path = write_manifest(tmp_path / "m.json", {"category2_level": "fin"})
    with pytest.raises(InputError, match="category2_level 'fin'"):
        RunManifest.from_json(path)


def test_integral_floats_are_ints(tmp_path):
    path = write_manifest(tmp_path / "m.json",
                          {"gl": 8.0, "block_size": 4.0, "radii": [1.0, 2]})
    opts = RunManifest.from_json(path).options
    assert opts == EvalOptions(ratio=4, gl=8, block_size=4, radii=(1, 2))
    assert all(type(v) is int
               for v in (opts.gl, opts.block_size, *opts.radii))


def test_defaults_have_one_definition(tmp_path):
    assert EvalOptions().block_size == DEFAULT_BLOCK
    opts = RunManifest.from_json(write_manifest(tmp_path / "m.json",
                                                {})).options
    assert opts == EvalOptions(ratio=4)
    parser = build_parser()
    args = parser.parse_args(["eval", "--reference", "r", "--candidate", "c",
                              "--out", "o"])
    assert (args.ratio, args.block_size) == (EvalOptions.ratio, DEFAULT_BLOCK)
    # qnr takes its ratio from the images
    args = parser.parse_args(["qnr", "--ms", "m", "--pan", "p", "--fused",
                              "f", "--out", "o"])
    assert args.block_size == DEFAULT_BLOCK
    args = parser.parse_args(["fuse", "--method", "atwt", "--ms", "m",
                              "--pan", "p", "--out", "o"])
    assert FusionConfig(args.method, args.resample,
                        args.levels) == FusionConfig("atwt")


def test_report_lists_dropped_columns(tmp_path):
    records = [QiRecord(candidate_id=c, category1={"mean": v},
                        category2={"post_class_change": v},
                        category3={"cross_aura": v},
                        category4={"binary_contour": 0.5},
                        process={"wall_seconds": v, "n_free_parameters": 1})
               for c, v in (("a", 1.0), ("b", 2.0), ("c", 4.0))]
    with pytest.warns(UserWarning, match="binary_contour"):
        table = aggregate(records)
    write_report(records, table, tmp_path / "report.json")
    report = json.loads((tmp_path / "report.json").read_text("utf-8"))
    assert report["dropped_columns"] == ["category4.binary_contour"]
    assert "dropped_columns" not in report["ranks"]
    assert report["ranks"]["pdfr_case_a"] == [1, 2, 3]


def test_candidate_may_carry_fuser_meta(tmp_path, rng):
    # a candidate entry may be a `panqa fuse --process-meta` file plus its
    # id and path
    ms = MultibandImage(np.moveaxis(rng.uniform(0.1, 0.9, (8, 8, 4)), 2, 0))
    meta = pansharpen(ms, MultibandImage(rng.uniform(0.1, 0.9, (1, 32, 32))),
                      FusionConfig(method="cn"), tmp_path / "cn")
    doc = {"reference": "ref", "ratio": 4,
           "candidates": [{"id": "cn", "path": "cn", **meta},
                          {"id": "pca", "path": "pca"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cand, _ = RunManifest.from_json(path).candidates
    assert cand.process == process_costs(meta)


def fresh_record(reference, candidate, opts):
    """evaluate_candidate with the candidate featurized afresh."""
    with mock.patch.object(pipeline, "_same_samples", lambda a, b: False):
        return evaluate_candidate(reference, candidate, opts, "c")


def test_candidate_equal_to_reference_reuses_its_features(rng,
                                                          monkeypatch):
    opts = EvalOptions(gl=8)
    ref = MultibandImage(np.moveaxis(rng.uniform(-0.1, 1.1, (16, 16, 4)),
                                     2, 0))
    reference = image_features(ref, opts)
    oracle = MultibandImage(ref.planes.copy())
    want = fresh_record(reference, oracle, opts)
    # nothing is computed for it: not even its PCCs, which are 1
    calls = [count_calls(monkeypatch, fn) for fn in
             (pipeline.image_features, spectral.pcc, spectral.centre)]
    record = evaluate_candidate(reference, oracle, opts, "c")
    assert calls == [[], [], []]
    costs = [v for group in record.categories().values()
             for v in group.values()]
    assert bits(costs) == bits([0.0] * len(costs))
    # featurized afresh, the same record but for 1 - PCC's rounding
    assert abs(want.category2["inverse_pcc"]) <= 1e-15
    want.category2["inverse_pcc"] = 0.0
    assert bits(costs) == bits([v for group in want.categories().values()
                                for v in group.values()])
    assert record == want


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e160])
def test_features_take_each_band_pcc_with_its_reference(rng, scale):
    # without a reference, an image is the reference: each band's PCC
    # with itself is 1
    opts = EvalOptions(gl=8)
    ref = MultibandImage(rng.uniform(0.0, 1.0, (4, 16, 16)) * scale)
    cand = MultibandImage(ref.planes + rng.normal(0.0, 0.1 * scale,
                                                  ref.shape))
    reference = image_features(ref, opts)
    assert reference.pccs == [1.0] * 4
    features = image_features(cand, opts, reference)
    assert bits(features.pccs) == bits(
        [pcc_of(ref.band(b), cand.band(b)) for b in range(4)])
    # the moments taken in the pass's work planes, scaled or not, are the
    # ones taken in arrays of their own
    for img, got in ((ref, reference), (cand, features)):
        assert bits(got.stats) == bits(
            [spectral.summary_stats(*spectral.centre(img.band(b)),
                                    glcm3.quantize_gray_levels(img.band(b), 8))
             for b in range(4)])


def test_reference_features_take_no_pcc(rng, monkeypatch):
    # a candidate featurized against the reference takes one per band
    opts = EvalOptions(gl=8)
    ref, cand = (MultibandImage(rng.uniform(0.0, 1.0, (4, 16, 16)))
                 for _ in range(2))
    pccs = count_calls(monkeypatch, spectral.pcc)
    reference = image_features(ref, opts)
    assert pccs == []
    image_features(cand, opts, reference)
    assert len(pccs) == 4


def test_features_of_a_raster_file_read_each_band_once(tmp_path, rng):
    # the reference reads each band once, and takes no PCC; a
    # candidate featurized against it reads, band after band, its own band
    # and the reference's band once each, every band into the same work
    # plane of the pass, never a new array
    for name in ("ref", "cand"):
        save_image(MultibandImage(rng.uniform(0.0, 1.0, (4, 16, 16))),
                   tmp_path / name, sample_type="f32")
    ref, cand = RasterFile(tmp_path / "ref"), RasterFile(tmp_path / "cand")
    signature = inspect.signature(RasterFile.rows)

    def reads():
        """Each rows() call as (image, b, start, stop, out's address)."""
        out = []
        for c in rows.call_args_list:
            arg = signature.bind(*c.args, **c.kwargs).arguments
            address = (None if arg.get("out") is None
                       else arg["out"].ctypes.data)
            out.append((arg["self"], arg["b"], arg["start"], arg["stop"],
                        address))
        rows.reset_mock()
        return out

    opts = EvalOptions(gl=8)
    with mock.patch.object(RasterFile, "rows", autospec=True,
                           side_effect=RasterFile.rows) as rows:
        reference = image_features(ref, opts)
        own = reads()
        features = image_features(cand, opts, reference)
        both = reads()
    assert [r[:4] for r in own] == [(ref, b, 0, 16) for b in range(4)]
    assert [r[:4] for r in both] == [
        (img, b, 0, 16) for b in range(4) for img in (cand, ref)]
    for log in (own, both[0::2], both[1::2]):
        assert len({r[4] for r in log}) == 1 and log[0][4] is not None
    assert both[0][4] != both[1][4]
    planes = {name: load_image(tmp_path / name).planes
              for name in ("ref", "cand")}
    assert reference.pccs == [1.0] * 4
    assert bits(features.pccs) == bits(
        [pcc_of(planes["ref"][b], planes["cand"][b]) for b in range(4)])


def test_flat_band_refused_before_its_texture(rng, monkeypatch):
    planes = rng.uniform(0.0, 1.0, (4, 16, 16))
    planes[2] = 0.3
    glcms = count_calls(monkeypatch, glcm3.tims_glcm)
    with pytest.raises(DegeneracyError) as exc:
        image_features(MultibandImage(planes), EvalOptions(gl=8))
    assert str(exc.value) == "band 2: zero variance"
    assert len(glcms) == 2


@pytest.mark.parametrize("level", LEVELS)
def test_features_keep_the_category2_label_plane(rng, level):
    # of the label stack, only the plane the category-2 change count
    # reads outlives image_features
    opts = EvalOptions(gl=8, category2_level=level)
    ref, cand = (MultibandImage(rng.uniform(0.0, 1.0, (4, 16, 16)))
                 for _ in range(2))
    reference = image_features(ref, opts)
    want = quantize_spectral(ref).level(level)
    assert np.array_equal(reference.labels, want)
    changed = np.count_nonzero(quantize_spectral(cand).level(level) != want)
    record = evaluate_candidate(reference, cand, opts, "c")
    assert record.category2["post_class_change"] == changed


@pytest.mark.parametrize("pixel", [(2, 0, 5), (3, 15, 15)])
def test_candidate_one_sample_off_is_featurized(rng, monkeypatch, pixel):
    # one sample off in the first row, then in the last
    opts = EvalOptions(gl=8)
    ref = MultibandImage(np.moveaxis(rng.uniform(0.1, 0.9, (16, 16, 4)),
                                     2, 0))
    reference = image_features(ref, opts)
    planes = ref.planes.copy()
    planes[pixel] = np.nextafter(planes[pixel], 1.0)
    calls = count_calls(monkeypatch, pipeline.image_features)
    evaluate_candidate(reference, MultibandImage(planes), opts, "c")
    assert len(calls) == 1


# a 4-band reference with samples outside [0, 1] and on its ends, saved
# as f32
_REFERENCE = np.moveaxis(
    np.random.default_rng(7).uniform(-0.1, 1.1, (12, 12, 4))
    .astype(np.float32).astype(np.float64), 2, 0)
_REFERENCE[:, 0, 0], _REFERENCE[:, 0, 1] = 0.0, 1.0
# (sample type, DN range, gain range) of a stored candidate; its samples
# reach from about -0.2 to above 1
_STORED = {"u8": ("<u1", 255, (1e-3, 5e-3)),
           "u16": ("<u2", 65535, (1e-5, 2e-5)),
           "f32": ("<f4", 1.0, (0.5, 1.5))}


@st.composite
def candidate_files(draw):
    """(kind, writer): writer(ref_path, path) stores a candidate at path."""
    kind = draw(st.sampled_from(["u8", "u16", "f32", "copy", "leading"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "copy":
        def write(ref, path):
            for ext in (".json", ".raw"):
                shutil.copyfile(ref.with_suffix(ext), path.with_suffix(ext))
    elif kind == "leading":
        # equal to the reference in its first 1 to 3 bands only
        same = draw(st.integers(1, 3))

        def write(ref, path):
            planes = _REFERENCE.copy()
            noise = np.random.default_rng(seed).normal(
                0.0, 0.05, (12, 12, 4 - same))
            planes[same:] += np.moveaxis(noise, 2, 0)
            save_image(MultibandImage(planes), path)
    else:
        dtype, top, (lo, hi) = _STORED[kind]
        gain = draw(st.lists(st.floats(lo, hi), min_size=4, max_size=4))
        offset = draw(st.lists(st.floats(-0.2, 0.2), min_size=4,
                               max_size=4))

        def write(ref, path):
            dn = np.random.default_rng(seed).uniform(0.0, top, (4, 12, 12))
            path.with_suffix(".json").write_text(json.dumps(
                {"width": 12, "height": 12, "bands": 4, "dtype": kind,
                 "gain": gain, "offset": offset}))
            dn.astype(dtype).tofile(path.with_suffix(".raw"))
    return kind, write


@settings(max_examples=60, deadline=None)
@given(case=candidate_files())
def test_raster_file_candidate_scores_as_loaded(case):
    # read band by band from disk or loaded whole, a candidate gets the
    # same record, its clipped_fraction the mean of its mask exactly
    kind, write = case
    opts = EvalOptions(gl=8)
    with tempfile.TemporaryDirectory() as tmp:
        ref_path, path = Path(tmp) / "ref", Path(tmp) / "cand"
        save_image(MultibandImage(_REFERENCE), ref_path)
        write(ref_path, path)
        reference = image_features(load_image(ref_path), opts)
        loaded = load_image(path)
        want = evaluate_candidate(reference, loaded, opts, "c")
        got = evaluate_candidate(reference, RasterFile(path), opts, "c")
    assert got == want
    if kind == "copy":
        assert got == evaluate_candidate(reference, reference.image, opts,
                                         "c")
    s = loaded.planes
    assert want.clipped_fraction == float(np.mean((s < 0.0) | (s > 1.0)))


@settings(max_examples=30, deadline=None)
@given(case=candidate_files(), budget=st.sampled_from([1, 512 << 10]))
def test_files_score_as_loaded_images(case, budget):
    # the reference and the candidate both read from disk give the record
    # and the classic metrics of the loaded images, float for float,
    # whether the metrics read one block row or the whole image per strip
    kind, write = case
    opts = EvalOptions(gl=8)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(raster, "STRIP_BYTES", budget):
        ref_path, path = Path(tmp) / "ref", Path(tmp) / "cand"
        save_image(MultibandImage(_REFERENCE), ref_path)
        write(ref_path, path)
        ref, cand = load_image(ref_path), load_image(path)
        want = (evaluate_candidate(image_features(ref, opts), cand, opts, "c"),
                classic_metrics(ref, cand, opts))
        ref, cand = RasterFile(ref_path), RasterFile(path)
        got = (evaluate_candidate(image_features(ref, opts), cand, opts, "c"),
               classic_metrics(ref, cand, opts))
    assert got == want


def _drawn_planes(rng, shape, kind):
    """(bands, height, width) samples of one kind: reflectances reaching
    beyond [0, 1], a skewed heavy tail, 8-bit DNs with many ties, or a
    near-constant scene with two outliers, on one side of it (large
    skewness and kurtosis) or on both (kurtosis alone)."""
    if kind == "uniform":
        return rng.uniform(-0.2, 1.2, shape)
    if kind == "lognormal":
        return rng.lognormal(-2.0, 1.0, shape)
    if kind == "dn":
        return rng.integers(0, 256, shape) / 255
    planes = rng.normal(0.3 if kind == "spike" else 0.5, 1e-3, shape)
    planes[:, 0, 0], planes[:, -1, -1] = 0.9, 0.1
    return planes


_KINDS = ("uniform", "lognormal", "dn", "spike", "twin")


@st.composite
def image_pairs(draw):
    """(reference, candidate, gl): two images of a drawn shape, 1 to 8
    bands of 8 to 40 rows and columns; the candidate is drawn alone, is
    the reference plus noise, or is its copy."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(8, 40)),
             draw(st.integers(8, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reference = _drawn_planes(rng, shape, draw(st.sampled_from(_KINDS)))
    how = draw(st.sampled_from(["drawn", "noisy", "copy"]))
    if how == "drawn":
        candidate = _drawn_planes(rng, shape, draw(st.sampled_from(_KINDS)))
    elif how == "noisy":
        sigma = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1]))
        candidate = reference + rng.normal(0.0, sigma, shape)
    else:
        candidate = reference.copy()
    return reference, candidate, draw(st.sampled_from([8, 32, 64]))


# 9 eps: the largest difference over 6,000 draws was 9.5e-16
COST_RTOL = 2e-15


@settings(max_examples=80, deadline=None)
@given(case=image_pairs())
def test_costs_match_the_reference_scorer(case):
    # every cost recomputed from its formula on the whole images: the
    # mean, std and entropy costs, the label change count, the cross-aura
    # and the binary contour bit for bit, the others within COST_RTOL of
    # their feature's scale, the largest over the bands of both images of
    # mean |z|**3 for the skewness, and of the kurtosis and each GLCM3
    # feature for theirs, and 1 for the inverse PCC, since |PCC| <= 1.
    # At gl 64 the triple keys are uint32
    reference, candidate, gl = case
    opts = EvalOptions(gl=gl)
    record = evaluate_candidate(
        image_features(MultibandImage(reference), opts),
        MultibandImage(candidate), opts)
    want = category1_costs(reference, candidate, gl)
    bands = np.concatenate([reference, candidate])
    scale = {"skewness": max(np.mean(np.abs((b - b.mean()) / b.std())**3)
                             for b in bands),
             "kurtosis": max(band_features(b, gl)[3] for b in bands)}
    for key in CATEGORY1_KEYS:
        if key in scale:
            assert (abs(record.category1[key] - want[key])
                    <= COST_RTOL * scale[key]), key
        else:
            assert record.category1[key] == want[key], key
    assert (abs(record.category2["inverse_pcc"]
                - inverse_pcc(reference, candidate)) <= COST_RTOL)
    assert record.category2["post_class_change"] == post_class_change(
        reference, candidate)
    want = category3_costs(reference, candidate, gl, opts.radii)
    texture = [glcm_features(b, gl, opts.radii) for b in bands]
    for k, key in enumerate(GLCM_KEYS):
        assert (abs(record.category3[key] - want[key])
                <= COST_RTOL * max(f[k] for f in texture)), key
    assert record.category3["cross_aura"] == want["cross_aura"]
    assert record.category4["binary_contour"] == category4_cost(
        reference, candidate)
