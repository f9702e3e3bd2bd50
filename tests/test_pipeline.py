import json

import pytest

from panqa.errors import InputError
from panqa.pipeline import Candidate, EvalOptions, RunManifest, run_manifest
from panqa.raster import MultibandImage, save_image


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
        reference=str(tmp_path / "ref"), ratio=4,
        candidates=[Candidate(id=c, path=str(tmp_path / c))
                    for c in ("a", "b")],
        options=EvalOptions(ratio=2, gl=8))
    run_manifest(manifest, tmp_path / "out")
    assert manifest.options == EvalOptions(ratio=2, gl=8)
    assert (tmp_path / "out" / "ranks.csv").exists()
