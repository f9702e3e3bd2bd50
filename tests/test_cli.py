import csv
import json
import re
import sys

import numpy as np
import pytest

from panqa import pipeline, quantizer
from panqa.cli import build_parser, main
from panqa.raster import MultibandImage, load_image, save_image
from panqa.resample import DEFAULT_MTF_GAIN_PAN, degrade, mtf_gaussian_kernel
from panqa.spectral import qnr


@pytest.fixture
def scene(tmp_path):
    """Small synthetic scene plus its 4x-degraded multispectral image."""
    ms = tmp_path / "ms"
    pan = tmp_path / "pan"
    ms_l = tmp_path / "ms_l"
    assert main(["synth", "--seed", "7", "--width", "64", "--height", "64",
                 "--out-ms", str(ms), "--out-pan", str(pan)]) == 0
    assert main(["degrade", "--input", str(ms), "--ratio", "4",
                 "--out", str(ms_l)]) == 0
    return tmp_path


def test_synth_shapes_and_determinism(tmp_path):
    for name in ("a", "b"):
        assert main(["synth", "--seed", "3", "--width", "32",
                     "--height", "24", "--out-ms", str(tmp_path / f"ms{name}"),
                     "--out-pan", str(tmp_path / f"pan{name}")]) == 0
    ms = load_image(tmp_path / "msa")
    pan = load_image(tmp_path / "pana")
    assert ms.samples.shape == (24, 32, 4)
    assert pan.samples.shape == (24, 32, 1)
    assert np.array_equal(ms.samples, load_image(tmp_path / "msb").samples)
    assert (tmp_path / "msa.json").exists()
    assert (tmp_path / "msa.raw").exists()


def test_degrade_shape(scene):
    out = load_image(scene / "ms_l")
    assert out.samples.shape == (16, 16, 4)


@pytest.mark.parametrize("method", ["pca", "cn", "atwt"])
def test_fuse_and_eval(scene, method):
    fused = scene / f"fused_{method}"
    meta = scene / f"meta_{method}.json"
    assert main(["fuse", "--method", method, "--ms", str(scene / "ms_l"),
                 "--pan", str(scene / "pan"), "--out", str(fused),
                 "--process-meta", str(meta)]) == 0
    img = load_image(fused)
    assert img.samples.shape == (64, 64, 4)
    with open(meta, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["method"] == method
    assert doc["wall_seconds"] >= 0

    report = scene / f"eval_{method}.json"
    assert main(["eval", "--reference", str(scene / "ms"),
                 "--candidate", str(fused), "--out", str(report)]) == 0
    with open(report, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"category1", "category2", "category3", "category4",
                        "clipped_fraction", "classic"}
    assert set(doc["classic"]) == {"sam_degrees", "ergas", "q4"}
    assert doc["classic"]["ergas"] > 0


def test_eval_identity_costs_zero(scene, tmp_path):
    report = tmp_path / "self.json"
    assert main(["eval", "--reference", str(scene / "ms"),
                 "--candidate", str(scene / "ms"),
                 "--out", str(report)]) == 0
    with open(report, encoding="utf-8") as fh:
        doc = json.load(fh)
    for group in ("category1", "category2", "category3", "category4"):
        for val in doc[group].values():
            assert val == pytest.approx(0.0, abs=1e-9)
    assert doc["classic"]["q4"] == pytest.approx(1.0, abs=1e-9)


def test_qnr_subcommand(scene):
    fused = scene / "fused_cn"
    main(["fuse", "--method", "cn", "--ms", str(scene / "ms_l"),
          "--pan", str(scene / "pan"), "--out", str(fused)])
    out = scene / "qnr.json"
    argv = ["qnr", "--ms", str(scene / "ms_l"), "--pan", str(scene / "pan"),
            "--fused", str(fused), "--out", str(out)]
    assert build_parser().parse_args(argv).mtf_gain == DEFAULT_MTF_GAIN_PAN
    assert main(argv) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert 0.0 <= doc["qnr"] <= 1.0
    assert 0.0 <= doc["d_lambda"] <= 1.0
    assert 0.0 <= doc["d_s"] <= 1.0
    pan = load_image(scene / "pan")
    pan_l = degrade(pan, 4, mtf_gaussian_kernel(4, DEFAULT_MTF_GAIN_PAN))
    want = qnr(load_image(scene / "ms_l"), load_image(fused), pan.band(0),
               pan_l.band(0))
    assert (doc["qnr"], doc["d_lambda"], doc["d_s"]) == want


def test_qnr_single_band_is_input_error(tmp_path, capsys, rng):
    for name, size in (("ms", 8), ("pan", 32), ("fused", 32)):
        save_image(MultibandImage(rng.uniform(0.1, 0.9, (size, size, 1))),
                   tmp_path / name)
    assert main(["qnr", "--ms", str(tmp_path / "ms"),
                 "--pan", str(tmp_path / "pan"),
                 "--fused", str(tmp_path / "fused"),
                 "--out", str(tmp_path / "qnr.json")]) == 2
    assert "at least 2 bands" in capsys.readouterr().err
    assert not (tmp_path / "qnr.json").exists()


# the README quick start, command for command, with its example manifest
README_MANIFEST = {
    "reference": "ms",
    "ratio": 4,
    "candidates": [
        {"id": "pca", "path": "fused_pca", "wall_seconds": 0.8,
         "n_free_parameters": 1},
        {"id": "cn", "path": "fused_cn", "wall_seconds": 0.5,
         "n_free_parameters": 1},
    ],
    "options": {"gl": 32, "block_size": 8},
}


def test_readme_quickstart(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(README_MANIFEST),
                                            encoding="utf-8")
    commands = [
        "synth --seed 7 --width 256 --height 256 --out-ms ms --out-pan pan",
        "degrade --input ms --ratio 4 --out ms_l",
        "degrade --input pan --ratio 4 --mtf-gain 0.15 --out pan_l",
        *(f"fuse --method {m} --ms ms_l --pan pan --out fused_{m}"
          for m in ("pca", "cn", "atwt")),
        "eval --reference ms --candidate fused_pca --out eval_pca.json",
        "qnr --ms ms_l --pan pan --fused fused_pca --out qnr.json",
        "rank --manifest manifest.json --out-dir results/",
    ]
    codes = {cmd: main(cmd.split()) for cmd in commands}
    codes["srcc"] = main(["srcc", "--table", "results/ranks.csv",
                          "--col-a", "PDFR case A", "--col-b", "PDFR case C"])
    assert codes == dict.fromkeys(codes, 0), capsys.readouterr().err


def test_glcm3_subcommand(scene):
    out = scene / "glcm.json"
    dump = scene / "glcm.csv"
    assert main(["glcm3", "--input", str(scene / "ms"), "--gl", "8",
                 "--out", str(out), "--dump-matrix", str(dump)]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    # 58*58 valid centers, 24 tuples per center
    assert doc["total_tuples"] == 58 * 58 * 24
    with open(dump, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(int(r["count"]) for r in rows) == doc["total_tuples"]
    assert all(int(r["row"]) <= int(r["col"]) for r in rows)


def test_quantize_contours_roundtrip(scene):
    stack_a = scene / "labels_a"
    stack_b = scene / "labels_b"
    assert main(["quantize", "--input", str(scene / "ms"),
                 "--out", str(stack_a)]) == 0
    # perturbed copy flips some labels
    img = load_image(scene / "ms")
    shifted = MultibandImage(np.clip(img.samples + 0.08, 0.0, 1.0))
    save_image(shifted, scene / "ms_shift")
    assert main(["quantize", "--input", str(scene / "ms_shift"),
                 "--out", str(stack_b)]) == 0

    out = scene / "contours.json"
    assert main(["contours", "--a", str(stack_a), "--b", str(stack_a),
                 "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["cross_aura_cost"] == 0.0
    assert doc["binary_contour_cost"] == 0.0
    assert doc["post_class_change_coarse"] == 0

    assert main(["contours", "--a", str(stack_a), "--b", str(stack_b),
                 "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["post_class_change_coarse"] > 0

    saved = quantizer.load_stack(stack_a)
    want = quantizer.quantize_spectral(img)
    for level in quantizer.LEVELS:
        assert np.array_equal(saved.level(level), want.level(level))


@pytest.mark.parametrize("band, value, sample_type, message", [
    (0, 2.5, "f32", "non-integral fine"),
    (0, 300.0, "u16", r"fine labels outside \[0, 64\)"),
    (1, 8.0, "u16", r"intermediate labels outside \[0, 8\)"),
    (2, 2.0, "u16", r"coarse labels outside \[0, 2\)"),
])
def test_contours_rejects_invalid_stack(tmp_path, capsys, band, value,
                                        sample_type, message):
    good = np.zeros((6, 6, 3))
    bad = good.copy()
    bad[3, 2, band] = value
    save_image(MultibandImage(good), tmp_path / "good", sample_type="u16")
    save_image(MultibandImage(bad), tmp_path / "bad", sample_type=sample_type)
    assert main(["contours", "--a", str(tmp_path / "good"),
                 "--b", str(tmp_path / "bad"),
                 "--out", str(tmp_path / "c.json")]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "c.json").exists()


def test_rank_pipeline_and_determinism(scene):
    for method in ("pca", "cn", "atwt"):
        main(["fuse", "--method", method, "--ms", str(scene / "ms_l"),
              "--pan", str(scene / "pan"),
              "--out", str(scene / f"fused_{method}")])
    manifest = {
        "reference": str(scene / "ms"),
        "ratio": 4,
        "candidates": [
            {"id": m, "path": str(scene / f"fused_{m}"), "method": m,
             "wall_seconds": 0.1 * (i + 1), "n_free_parameters": i + 1}
            for i, m in enumerate(("pca", "cn", "atwt"))
        ],
        "options": {"gl": 8},
    }
    mpath = scene / "manifest.json"
    with open(mpath, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)

    for run in ("run1", "run2"):
        assert main(["rank", "--manifest", str(mpath),
                     "--out-dir", str(scene / run)]) == 0
    csv1 = (scene / "run1" / "ranks.csv").read_bytes()
    csv2 = (scene / "run2" / "ranks.csv").read_bytes()
    assert csv1 == csv2
    with open(scene / "run1" / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert [c["id"] for c in report["candidates"]] == ["pca", "cn", "atwt"]
    assert sorted(report["ranks"]["pdfr_case_a"]) in ([1, 2, 3], [1, 1, 3],
                                                      [1, 2, 2], [1, 1, 1])
    with open(scene / "run1" / "ranks.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["candidate"] for r in rows] == ["pca", "cn", "atwt"]
    assert all(r["PPFR case B"] for r in rows)


@pytest.mark.parametrize("key", ["reference", "ratio", "candidates", "id",
                                 "path"])
def test_rank_manifest_missing_key(tmp_path, capsys, key):
    manifest = {"reference": "ms", "ratio": 4,
                "candidates": [{"id": "a", "path": "a"},
                               {"id": "b", "path": "b"}]}
    if key in manifest:
        del manifest[key]
        where = "manifest"
    else:
        del manifest["candidates"][1][key]
        where = "manifest candidate 1"
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert (capsys.readouterr().err.strip()
            == f"error: {where} is missing key {key!r}")


@pytest.mark.parametrize("candidates, message", [
    ({"id": "a", "path": "a"}, "manifest candidates must be a JSON list"),
    (["a"], "manifest candidate 0 must be a JSON object"),
])
def test_rank_manifest_malformed_candidates(tmp_path, capsys, candidates,
                                            message):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"reference": "ms", "ratio": 4,
                                 "candidates": candidates}),
                     encoding="utf-8")
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` wherever a panqa module binds it; return the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "panqa":
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_rank_featurizes_each_image_once(scene, monkeypatch):
    for method in ("pca", "cn", "atwt"):
        main(["fuse", "--method", method, "--ms", str(scene / "ms_l"),
              "--pan", str(scene / "pan"),
              "--out", str(scene / f"fused_{method}")])
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": m, "path": str(scene / f"fused_{m}")}
                               for m in ("pca", "cn", "atwt")]}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")

    monkeypatch.delenv("PANQA_THREADS", raising=False)
    features = count_calls(monkeypatch, pipeline.image_features)
    auras = count_calls(monkeypatch, quantizer.cross_aura)
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(scene / "serial")]) == 0
    assert (len(features), len(auras)) == (4, 4)

    monkeypatch.setenv("PANQA_THREADS", "2")
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(scene / "pooled")]) == 0
    assert ((scene / "serial" / "ranks.csv").read_bytes()
            == (scene / "pooled" / "ranks.csv").read_bytes())


def test_srcc_subcommand(tmp_path, capsys):
    table = tmp_path / "ranks.csv"
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["candidate", "x", "y"])
        for i, (a, b) in enumerate(zip([1, 2, 3, 4], [1, 2, 4, 3])):
            writer.writerow([f"c{i}", a, b])
    assert main(["srcc", "--table", str(table), "--col-a", "x",
                 "--col-b", "y"]) == 0
    assert capsys.readouterr().out.strip() == "0.8000"


def test_srcc_missing_column(tmp_path, capsys):
    table = tmp_path / "ranks.csv"
    with open(table, "w", newline="", encoding="utf-8") as fh:
        fh.write("candidate,x\nc0,1\nc1,2\n")
    assert main(["srcc", "--table", str(table), "--col-a", "x",
                 "--col-b", "nope"]) == 2


def test_mos_subcommand(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    with open(scores, "w", newline="", encoding="utf-8") as fh:
        fh.write("good,1.0,1.1,0.9\nbad1,5.0,5.2,4.9\nbad2,5.1,5.0,5.1\n")
    assert main(["mos", "--scores", str(scores)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("good,A")


def test_exit_code_missing_input(tmp_path):
    assert main(["degrade", "--input", str(tmp_path / "nope"), "--ratio", "4",
                 "--out", str(tmp_path / "out")]) == 2


def test_exit_code_bad_ratio(scene):
    # 64 is not divisible by 5 * decimation; expect a clean input error
    assert main(["degrade", "--input", str(scene / "ms"), "--ratio", "5",
                 "--out", str(scene / "bad")]) == 2


def test_exit_code_degenerate(tmp_path):
    flat = MultibandImage(np.full((16, 16, 4), 0.5))
    save_image(flat, tmp_path / "flat")
    assert main(["eval", "--reference", str(tmp_path / "flat"),
                 "--candidate", str(tmp_path / "flat"),
                 "--out", str(tmp_path / "r.json")]) == 3
