import json

import pytest

from panqa.errors import InputError
from panqa.cli import build_parser
from panqa.pipeline import (Candidate, EvalOptions, RunManifest, run_manifest,
                            write_report)
from panqa.protocol import QiRecord, aggregate
from panqa.raster import MultibandImage, save_image
from panqa.spectral import DEFAULT_BLOCK


def write_manifest(path, options):
    doc = {"reference": "ref", "ratio": 4,
           "candidates": [{"id": "cand", "path": "cand"}],
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
        save_image(MultibandImage(rng.uniform(0.1, 0.9, (12, 12, 4))),
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


def test_defaults_have_one_definition(tmp_path):
    assert EvalOptions().block_size == DEFAULT_BLOCK
    opts = RunManifest.from_json(write_manifest(tmp_path / "m.json",
                                                {})).options
    assert opts == EvalOptions(ratio=4)
    parser = build_parser()
    for command in (["eval", "--reference", "r", "--candidate", "c"],
                    ["qnr", "--ms", "m", "--pan", "p", "--fused", "f"]):
        args = parser.parse_args(command + ["--out", "o"])
        assert (args.ratio, args.block_size) == (EvalOptions.ratio,
                                                 DEFAULT_BLOCK)


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
