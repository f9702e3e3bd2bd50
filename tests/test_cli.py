import csv
import dataclasses
import json
import re
import shutil
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from panqa import fusion, glcm3, pipeline, quantizer, raster
from panqa.cli import build_parser, main
from panqa.errors import DegeneracyError
from panqa.protocol import bin_subjective_scores
from panqa.raster import (MultibandImage, RasterFile, load_image, raster_paths,
                          save_image)
from panqa.resample import DEFAULT_MTF_GAIN_PAN, degrade, mtf_gaussian_kernel
from panqa.spectral import qnr
from test_layout import traced_peak


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
    assert ms.planes.shape == (4, 24, 32)
    assert pan.planes.shape == (1, 24, 32)
    assert np.array_equal(ms.planes, load_image(tmp_path / "msb").planes)
    assert (tmp_path / "msa.json").exists()
    assert (tmp_path / "msa.raw").exists()


def test_degrade_shape(scene):
    out = load_image(scene / "ms_l")
    assert out.planes.shape == (4, 16, 16)


@pytest.mark.parametrize("method", ["pca", "cn", "atwt"])
def test_fuse_and_eval(scene, method):
    fused = scene / f"fused_{method}"
    meta = scene / f"meta_{method}.json"
    assert main(["fuse", "--method", method, "--ms", str(scene / "ms_l"),
                 "--pan", str(scene / "pan"), "--out", str(fused),
                 "--process-meta", str(meta)]) == 0
    img = load_image(fused)
    assert img.planes.shape == (4, 64, 64)
    with open(meta, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["method"] == method
    assert doc["wall_seconds"] >= 0

    report = scene / f"eval_{method}.json"
    assert main(["eval", "--reference", str(scene / "ms"),
                 "--candidate", str(fused), "--out", str(report)]) == 0
    with open(report, encoding="utf-8") as fh:
        doc = json.load(fh)
    # report.json's entry for the candidate, its id its path, plus classic
    assert set(doc) == {"id", "category1", "category2", "category3",
                        "category4", "process", "clipped_fraction", "classic"}
    assert doc["id"] == str(fused)
    assert doc["process"] == {"wall_seconds": 0.0, "n_free_parameters": 1}
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


def test_eval_holds_no_whole_candidate(tmp_path):
    # a 512x512 4-band image is 8.4 MB as float64: panqa eval loads the
    # reference and reads the candidate from disk a band or a strip at a
    # time. Loading both whole peaked at 23.6 MB, streaming the candidate
    # at 16.9 MB
    ms, pan, fused = (str(tmp_path / name) for name in ("ms", "pan", "f"))
    assert main(["synth", "--width", "512", "--height", "512",
                 "--out-ms", ms, "--out-pan", pan]) == 0
    assert main(["degrade", "--input", ms, "--ratio", "4",
                 "--out", ms + "_l"]) == 0
    assert main(["fuse", "--method", "pca", "--ms", ms + "_l", "--pan", pan,
                 "--out", fused]) == 0
    rc, peak = traced_peak(main, ["eval", "--reference", ms, "--candidate",
                                  fused, "--out", str(tmp_path / "e.json")])
    assert rc == 0
    assert peak < 18e6, peak / 1e6


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
    want = qnr(load_image(scene / "ms_l"), load_image(fused), pan, pan_l)
    assert (doc["qnr"], doc["d_lambda"], doc["d_s"]) == want
    # an integral float flag is read as a manifest's 8.0 is: as 8
    assert main(argv + ["--block-size", "8.0"]) == 0
    assert json.loads(out.read_text("utf-8")) == doc


def test_qnr_takes_its_ratio_from_the_images(tmp_path):
    # a ratio-2 pair: the PAN is degraded at the ratio of the two shapes
    assert main(["synth", "--seed", "7", "--width", "64", "--height", "64",
                 "--out-ms", str(tmp_path / "ms"),
                 "--out-pan", str(tmp_path / "pan")]) == 0
    assert main(["degrade", "--input", str(tmp_path / "ms"), "--ratio", "2",
                 "--out", str(tmp_path / "ms_l")]) == 0
    assert main(["fuse", "--method", "cn", "--ms", str(tmp_path / "ms_l"),
                 "--pan", str(tmp_path / "pan"),
                 "--out", str(tmp_path / "fused")]) == 0
    out = tmp_path / "qnr.json"
    assert main(["qnr", "--ms", str(tmp_path / "ms_l"),
                 "--pan", str(tmp_path / "pan"),
                 "--fused", str(tmp_path / "fused"), "--out", str(out)]) == 0
    pan = load_image(tmp_path / "pan")
    pan_l = degrade(pan, 2, mtf_gaussian_kernel(2, DEFAULT_MTF_GAIN_PAN))
    want = qnr(load_image(tmp_path / "ms_l"), load_image(tmp_path / "fused"),
               pan, pan_l)
    doc = json.loads(out.read_text("utf-8"))
    assert (doc["qnr"], doc["d_lambda"], doc["d_s"]) == want


@pytest.mark.parametrize("argv, message", [
    (["fuse", "--method", "cn", "--ms", "ms_l", "--pan", "pan",
      "--out", "out"], "pan dimensions must be integer multiples of ms"),
    (["qnr", "--ms", "ms_l", "--pan", "pan", "--fused", "ms",
      "--out", "out.json"], "pan dimensions must be integer multiples of ms"),
    (["fuse", "--method", "cn", "--ms", "ms_wide", "--pan", "pan32",
      "--out", "out"], "pan/ms ratio differs between axes"),
    (["fuse", "--method", "pca", "--ms", "ms_one", "--pan", "pan32",
      "--out", "out"], "PCA fusion needs at least two bands"),
], ids=["argv0", "argv1", "ratio-differs", "pca-one-band"])
def test_pan_not_a_multiple_of_ms(tmp_path, monkeypatch, capsys, rng, argv,
                                  message):
    # 30 is no multiple of 8: fuse and qnr refuse the pair alike. A 32^2
    # pan is 4 times an 8^2 MS but 2 times an 8x16 one, and PCA needs a
    # second band
    for name, shape in (("ms_l", (8, 8, 4)), ("pan", (30, 30, 1)),
                        ("ms", (30, 30, 4)), ("pan32", (32, 32, 1)),
                        ("ms_wide", (8, 16, 4)), ("ms_one", (8, 8, 1))):
        samples = rng.uniform(0.1, 0.9, shape)
        save_image(MultibandImage(np.moveaxis(samples, 2, 0)),
                   tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not any(tmp_path.glob("out*"))


def test_qnr_single_band_is_input_error(tmp_path, capsys, rng):
    for name, size in (("ms", 8), ("pan", 32), ("fused", 32)):
        save_image(MultibandImage(rng.uniform(0.1, 0.9, (1, size, size))),
                   tmp_path / name)
    assert main(["qnr", "--ms", str(tmp_path / "ms"),
                 "--pan", str(tmp_path / "pan"),
                 "--fused", str(tmp_path / "fused"),
                 "--out", str(tmp_path / "qnr.json")]) == 2
    assert "at least 2 bands" in capsys.readouterr().err
    assert not (tmp_path / "qnr.json").exists()


def test_qnr_multiband_pan_is_input_error(scene, capsys):
    # the 4-band MS passed as the PAN is refused, not cut to its band 0
    out = scene / "qnr.json"
    assert main(["qnr", "--ms", str(scene / "ms_l"),
                 "--pan", str(scene / "ms"), "--fused", str(scene / "ms"),
                 "--out", str(out)]) == 2
    assert (capsys.readouterr().err.strip()
            == "error: pan image must have exactly one band")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["degrade", "--input", "ms", "--ratio", "4", "--out", ""],
    ["eval", "--reference", "", "--candidate", "ms", "--out", "eval.json"],
    # '..' names a directory: as a raster name it would be '...json'
    ["degrade", "--input", "ms", "--ratio", "4", "--out", ".."],
    ["degrade", "--input", "ms", "--ratio", "4", "--out", "ms/.."],
])
def test_empty_raster_path_is_input_error(scene, capsys, monkeypatch, argv):
    monkeypatch.chdir(scene)
    before = sorted(scene.parent.iterdir()), sorted(scene.iterdir())
    assert main(argv) == 2
    bad = next(a for a in argv if not a or a.endswith(".."))
    assert (capsys.readouterr().err.strip()
            == f"error: raster path has no file name: {bad!r}")
    assert (sorted(scene.parent.iterdir()), sorted(scene.iterdir())) == before


# the README quick start, command for command, with its example manifest
README_MANIFEST = {
    "reference": "ms",
    "ratio": 4,
    "candidates": [
        {"id": "pca", "path": "fused_pca", "wall_seconds": 0.8,
         "n_free_parameters": 1},
        {"id": "cn", "path": "fused_cn", "wall_seconds": 0.5,
         "n_free_parameters": 1},
        {"id": "atwt", "path": "fused_atwt", "wall_seconds": 0.6,
         "n_free_parameters": 2},
    ],
    "options": {"gl": 32, "block_size": 8},
}


def readme_commands(width: int, height: int) -> list[str]:
    """The README quick start on a width x height scene, run in a
    directory that holds README_MANIFEST as manifest.json."""
    return [
        f"synth --seed 7 --width {width} --height {height} --out-ms ms "
        "--out-pan pan",
        "degrade --input ms --ratio 4 --out ms_l",
        "degrade --input pan --ratio 4 --mtf-gain 0.15 --out pan_l",
        *(f"fuse --method {m} --ms ms_l --pan pan --out fused_{m}"
          for m in ("pca", "cn", "atwt")),
        "eval --reference ms --candidate fused_pca --out eval_pca.json",
        "qnr --ms ms_l --pan pan --fused fused_pca --out qnr.json",
        "rank --manifest manifest.json --out-dir results/",
    ]


def test_readme_quickstart(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(README_MANIFEST),
                                            encoding="utf-8")
    codes = {cmd: main(cmd.split()) for cmd in readme_commands(256, 256)}
    codes["srcc"] = main(["srcc", "--table", "results/ranks.csv",
                          "--col-a", "PDFR case A", "--col-b", "PDFR case C"])
    assert codes == dict.fromkeys(codes, 0), capsys.readouterr().err


def test_readme_library_example(tmp_path, monkeypatch, capsys):
    # the README's one python block, after its quick start at 64x64; a
    # warning is an error (pyproject.toml's filterwarnings)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(README_MANIFEST),
                                            encoding="utf-8")
    for cmd in readme_commands(64, 64):
        assert main(cmd.split()) == 0, (cmd, capsys.readouterr().err)
    readme = Path(__file__).parents[1] / "README.md"
    (block,) = re.findall(r"^```python\n(.*?)^```",
                          readme.read_text(encoding="utf-8"), re.M | re.S)
    exec(compile(block, str(readme), "exec"), {})


def test_strip_budget_changes_no_output(tmp_path, monkeypatch, capsys):
    # every strip loop sizes its strips from raster.STRIP_BYTES when it
    # runs, and no reduction is partitioned by them. Each scene runs at
    # the default budget and at a small one. At 64x64 the default makes
    # one strip of each loop, and 1 byte makes each strip one sample, one
    # row or one block row. At 2048x64 the default makes 4 strips of the
    # save, binning, SAM and Q4 loops; at 64x2048 the fusers run 32
    # blocks of resample.BLOCK_ROWS (upsample, PAN statistics and ATWT
    # smoothing) and each degrade 8. Both run at 4 KiB, as 1 byte takes
    # minutes there. Every file written is the same
    for width, height, small in ((64, 64, 1), (2048, 64, 4096),
                                 (64, 2048, 4096)):
        commands = readme_commands(width, height) + [
            "quantize --input fused_pca --out labels_pca",
            "glcm3 --input fused_pca --gl 32 --out glcm3.json "
            "--dump-matrix glcm3_counts.csv",
        ]
        outputs = []
        for budget in (raster.STRIP_BYTES, small):
            run = tmp_path / f"{width}x{height}_budget{budget}"
            run.mkdir()
            monkeypatch.chdir(run)
            (run / "manifest.json").write_text(json.dumps(README_MANIFEST),
                                               encoding="utf-8")
            with mock.patch.object(raster, "STRIP_BYTES", budget):
                for cmd in commands:
                    assert main(cmd.split()) == 0, (cmd,
                                                    capsys.readouterr().err)
            outputs.append({p.relative_to(run).as_posix(): p.read_bytes()
                            for p in run.rglob("*") if p.is_file()})
        default, small_budget = outputs
        assert sorted(small_budget) == sorted(default)
        assert [name for name in default
                if small_budget[name] != default[name]] == [], (width, height)


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
    # flags are read as a manifest's values: --gl 8.0 is 8
    written = out.read_bytes(), dump.read_bytes()
    assert main(["glcm3", "--input", str(scene / "ms"), "--gl", "8.0",
                 "--radii", "1,2.0,3", "--out", str(out),
                 "--dump-matrix", str(dump)]) == 0
    assert (out.read_bytes(), dump.read_bytes()) == written


def test_quantize_contours_roundtrip(scene):
    # a saved stack, read back as an image, holds quantize_spectral's
    # labels, a u16 band per level named after the source band count
    assert main(["quantize", "--input", str(scene / "ms"),
                 "--out", str(scene / "labels")]) == 0
    saved = RasterFile(scene / "labels")
    want = quantizer.quantize_spectral(load_image(scene / "ms"))
    assert saved.band_names == ["fine:4", "intermediate:4", "coarse:4"]
    assert saved.header.dtype == "u16"
    for b, level in enumerate(quantizer.LEVELS):
        assert np.array_equal(saved.band(b), want.level(level))


def test_saved_stacks_give_evals_label_map_costs(tmp_path, monkeypatch,
                                                  capsys):
    # the three label-map costs, taken between the saved stacks of the
    # reference and of a fused image, are eval's bit for bit
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(README_MANIFEST),
                                            encoding="utf-8")
    methods = ("pca", "cn", "atwt")
    commands = readme_commands(64, 64) + [
        f"quantize --input {name} --out labels_{name}"
        for name in ("ms", *(f"fused_{m}" for m in methods))] + [
        # the quick start evaluates pca
        f"eval --reference ms --candidate fused_{m} --out eval_{m}.json"
        for m in methods[1:]]
    for cmd in commands:
        assert main(cmd.split()) == 0, (cmd, capsys.readouterr().err)

    def saved_stack(name):
        img = RasterFile(f"labels_{name}")
        return quantizer.LabelMapStack(*(img.band(b) for b in range(3)),
                                       bands=4)

    ref = saved_stack("ms")
    ref_plane, ref_mean = quantizer.cross_aura(ref)
    for m in methods:
        stack = saved_stack(f"fused_{m}")
        plane, mean = quantizer.cross_aura(stack)
        with open(f"eval_{m}.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert [quantizer.post_classification_change_count(ref.coarse,
                                                           stack.coarse),
                abs(ref_mean - mean),
                quantizer.binary_contour_cost(ref_plane, plane)] == [
            doc["category2"]["post_class_change"],
            doc["category3"]["cross_aura"],
            doc["category4"]["binary_contour"]], m


def test_five_band_stack_round_trip(tmp_path, rng):
    # 4^5 fine labels: u16 samples, saved and read back as such
    planes = rng.random((5, 12, 12))
    planes[:, 0, 0] = 0.9    # the top fine label, 1023
    save_image(MultibandImage(planes), tmp_path / "ms")
    assert main(["quantize", "--input", str(tmp_path / "ms"),
                 "--out", str(tmp_path / "labels")]) == 0
    saved = RasterFile(tmp_path / "labels")
    assert saved.band_names == ["fine:5", "intermediate:5", "coarse:5"]
    assert saved.header.dtype == "u16"
    assert saved.band(0)[0, 0] == 1023
    want = quantizer.quantize_spectral(load_image(tmp_path / "ms"))
    for b, level in enumerate(quantizer.LEVELS):
        assert np.array_equal(saved.band(b), want.level(level))


def test_quantize_refuses_nine_bands(tmp_path, capsys):
    save_image(MultibandImage(np.zeros((9, 4, 4))), tmp_path / "nine",
               sample_type="u8")
    assert main(["quantize", "--input", str(tmp_path / "nine"),
                 "--out", str(tmp_path / "nine_labels")]) == 2
    assert "not 9" in capsys.readouterr().err
    assert not any(tmp_path.glob("nine_labels*"))
    assert not any(tmp_path.glob("*.part"))


@pytest.mark.parametrize("argv, header, samples, key", [
    # two negatives multiply to a size the 64-byte payload matches
    (["degrade", "--input", "r", "--ratio", "2", "--out", "out"],
     {"width": -4, "height": -4, "bands": 1, "dtype": "f32"}, 16, "width"),
    (["glcm3", "--input", "r", "--out", "out.json"],
     {"width": 4, "height": 0, "bands": 1, "dtype": "f32"}, 0, "height"),
], ids=["degrade-negative", "glcm3-zero-height"])
def test_header_dimension_below_one_is_input_error(tmp_path, monkeypatch,
                                                   capsys, argv, header,
                                                   samples, key):
    (tmp_path / "r.json").write_text(json.dumps(header))
    np.zeros(samples, dtype="<f4").tofile(tmp_path / "r.raw")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"{key} must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.glob("out*"))


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


RANKS_CSV_HEADER = [
    "candidate", "SPCTRL PDPR", "SPCTRL&SPTL1(i) PDPR",
    "SPCTRL&SPTL1(ii) PDPR", "SPCTRL&SPTL2 PDPR", "SPCTRL&SPTL1&SPTL2 PDPR",
    "PSPR1", "PSPR2", "Sum case A", "PDFR case A", "Sum case C",
    "PDFR case C", "Sum case B", "PPFR case B", "Sum case D", "PPFR case D"]


def test_rank_output_schema(scene):
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": "self", "path": str(scene / "ms"),
                                "wall_seconds": 0.2},
                               {"id": "noisy", "path": str(scene / "noisy")}],
                "options": {"gl": 8}}
    img = load_image(scene / "ms")
    noise = np.random.default_rng(5).normal(0.0, 0.05, (64, 64, 4))
    save_image(MultibandImage(img.planes + np.moveaxis(noise, 2, 0)),
               scene / "noisy")
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    with warnings.catch_warnings():
        # the schema holds whether or not a column is degenerate
        warnings.simplefilter("ignore")
        assert main(["rank", "--manifest", str(mpath),
                     "--out-dir", str(scene / "out")]) == 0
    with open(scene / "out" / "ranks.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RANKS_CSV_HEADER
    assert [r[0] for r in rows[1:]] == ["self", "noisy"]
    report = json.loads((scene / "out" / "report.json").read_text("utf-8"))
    assert list(report) == ["candidates", "dropped_columns", "ranks"]
    assert list(report["ranks"]) == [
        "pdfr_case_a", "pdfr_case_c", "pdpr", "ppfr_case_b", "ppfr_case_d",
        "pspr1", "pspr2", "sum_case_a", "sum_case_b", "sum_case_c",
        "sum_case_d"]
    assert list(report["ranks"]["pdpr"]) == [
        "category1", "category2_i", "category2_ii", "category3", "category4"]


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


@pytest.mark.parametrize("change, message", [
    (lambda m: m.update(ratio="four"), "wrong type for ratio: 'four'"),
    (lambda m: m["candidates"][1].update(n_free_parameters="one"),
     "manifest candidate 'b': wrong type for n_free_parameters: 'one'"),
    (lambda m: m["candidates"][0].update(wall_seconds=[1]),
     "manifest candidate 'a': wrong type for wall_seconds: [1]"),
    (lambda m: m.update(options={"gl": None}), "wrong type for gl: None"),
    (lambda m: m.update(options={"radii": 3}), "wrong type for radii: 3"),
    (lambda m: m.update(options={"gl": 31.7}), "wrong type for gl: 31.7"),
    (lambda m: m.update(options={"radii": [1.5, 2.9]}),
     "wrong type for radii: 1.5"),
    (lambda m: m.update(options={"radii": "123"}),
     "wrong type for radii: '123'"),
    (lambda m: m.update(ratio="4"), "wrong type for ratio: '4'"),
    (lambda m: m.update(options={"block_size": True}),
     "wrong type for block_size: True"),
    (lambda m: m["candidates"][0].update(wall_seconds="0.8"),
     "manifest candidate 'a': wrong type for wall_seconds: '0.8'"),
    (lambda m: m["candidates"][0].update(wall_seconds=10**400),
     "manifest candidate 'a': out of range for wall_seconds: an integer "
     "too large for a float"),
    # unknown keys at every level, and process costs out of range, are
    # refused as the manifest is read, before any image is loaded
    (lambda m: m.update(optoins={"gl": 8}),
     "manifest has unknown keys ['optoins']"),
    (lambda m: m["candidates"][1].update(wall_second=9.0),
     "manifest candidate 1 has unknown keys ['wall_second']"),
    (lambda m: m.update(options={"gll": 8}),
     "manifest options has unknown keys ['gll']"),
    (lambda m: m.update(options=[8]),
     "manifest options must be a JSON object"),
    # ERGAS's h/l is 1/ratio: no option sets it apart
    (lambda m: m.update(options={"ergas_factor": 0.25}),
     "manifest options has unknown keys ['ergas_factor']"),
    (lambda m: m["candidates"][1].update(n_free_parameters=0),
     "manifest candidate 'b': n_free_parameters must be >= 1"),
    (lambda m: m["candidates"][0].update(wall_seconds=-5),
     "manifest candidate 'a': wall_seconds must be finite and >= 0: -5.0"),
    # options out of range, though panqa rank itself reads none of them
    (lambda m: m.update(ratio=0), "ratio must be >= 1: 0"),
    (lambda m: m.update(options={"block_size": 1}),
     "block_size must be >= 2"),
    (lambda m: m.update(options={"gl": 1}), "gl must be in [2, 256]: 1"),
    (lambda m: m.update(options={"gl": 70000}),
     "gl must be in [2, 256]: 70000"),
    (lambda m: m.update(options={"radii": [3, 2]}),
     "radii must be strictly increasing, min >= 1"),
    (lambda m: m.update(options={"radii": [0, 1]}),
     "radii must be strictly increasing, min >= 1"),
    # raster paths and ids are JSON strings, and a path names a file
    (lambda m: m.update(reference=5), "wrong type for reference: 5"),
    (lambda m: m["candidates"][1].update(path=7),
     "manifest candidate 1: wrong type for path: 7"),
    (lambda m: m["candidates"][0].update(id=["x"]),
     "manifest candidate 0: wrong type for id: ['x']"),
    (lambda m: m["candidates"][1].update(id=3),
     "manifest candidate 1: wrong type for id: 3"),
    (lambda m: m.update(reference=""), "raster path has no file name: ''"),
    # the protocol z-scores costs across candidates: one is not enough
    (lambda m: m.update(candidates=[]),
     "manifest needs at least 2 candidates, has 0"),
    (lambda m: m["candidates"].pop(),
     "manifest needs at least 2 candidates, has 1"),
    (lambda m: m["candidates"][1].update(id="a"),
     "duplicate candidate ids in manifest"),
])
def test_rank_manifest_wrong_type(tmp_path, capsys, change, message):
    manifest = {"reference": "ms", "ratio": 4,
                "candidates": [{"id": "a", "path": "a"},
                               {"id": "b", "path": "b"}]}
    change(manifest)
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    # a failed run writes nothing, not even its --out-dir
    assert not (tmp_path / "out").exists()


def test_rank_missing_candidate_names_id(scene, capsys):
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": "self", "path": str(scene / "ms")},
                               {"id": "ghost", "path": str(scene / "gone")},
                               {"id": "again", "path": str(scene / "ms")}]}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    out = scene / "out"
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(out)]) == 2
    assert (capsys.readouterr().err.strip()
            == f"error: candidate 'ghost': missing header {scene / 'gone'}"
               ".json")
    assert not out.exists()


def test_rank_candidate_shrunk_after_opening(scene, monkeypatch, capsys):
    # the payload passes the size check when it is opened, then loses its
    # last sample: its first read, of the first row that the byte-copy
    # check compares, is refused, and no band is read short
    ms = load_image(scene / "ms")
    save_image(MultibandImage(ms.planes * 0.9), scene / "dim")
    payload = scene / "dim.raw"

    class Shrinking(RasterFile):
        def __init__(self, path):
            super().__init__(path)
            if self.payload_path == payload:
                with open(payload, "r+b") as fh:
                    fh.truncate(payload.stat().st_size - 4)

    monkeypatch.setattr(pipeline, "RasterFile", Shrinking)
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": "self", "path": str(scene / "ms")},
                               {"id": "dim", "path": str(scene / "dim")}]}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    out = scene / "out"
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: candidate 'dim': payload {payload} changed since it was "
        "opened")
    assert not out.exists()


def test_rank_one_candidate_refused_before_featurizing(scene, monkeypatch,
                                                       capsys):
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": "self", "path": str(scene / "ms")}]}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    calls = count_calls(monkeypatch, pipeline.image_features)
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(scene / "out" / "sub")]) == 2
    assert (capsys.readouterr().err.strip()
            == "error: manifest needs at least 2 candidates, has 1")
    assert calls == []
    # not even the parent of its --out-dir
    assert not (scene / "out").exists()


@pytest.mark.parametrize("last, message", [
    ("gone", "missing header {path}.json"),
    ("short", "length mismatch: payload {path}.raw has 65532 bytes, header "
     "implies 65536"),
    ("small", "shape mismatch: (4, 16, 16) against (4, 64, 64)"),
], ids=["gone", "short", "small"])
def test_rank_bad_last_candidate_refused_before_featurizing(
        scene, monkeypatch, capsys, last, message):
    # every candidate is opened, and its shape checked, before any is
    # featurized: only the reference is
    planes = load_image(scene / "ms").planes
    for name, gain in (("dim", 0.9), ("dimmer", 0.8)):
        save_image(MultibandImage(planes * gain), scene / name)
    shutil.copyfile(scene / "ms.json", scene / "short.json")
    (scene / "short.raw").write_bytes((scene / "ms.raw").read_bytes()[:-4])
    shutil.copyfile(scene / "ms_l.json", scene / "small.json")
    shutil.copyfile(scene / "ms_l.raw", scene / "small.raw")
    path = scene / last
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": "dim", "path": str(scene / "dim")},
                               {"id": "dimmer",
                                "path": str(scene / "dimmer")},
                               {"id": last, "path": str(path)}]}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    calls = count_calls(monkeypatch, pipeline.image_features)
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(scene / "out")]) == 2
    assert (capsys.readouterr().err.strip()
            == f"error: candidate {last!r}: " + message.format(path=path))
    assert calls == ["image_features"]
    assert not (scene / "out").exists()


def save_flat_band(scene, name="flat", value=0.5, **storage):
    """scene/<name>: the scene's MS with every sample of band 2 value, of
    zero variance, so that it has no PCC; storage is save_image's
    sample_type and gain."""
    planes = load_image(scene / "ms").planes.copy()
    planes[2] = value
    save_image(MultibandImage(planes), scene / name, **storage)


def test_flat_reference_band_refused_first(scene, capsys):
    # named before any candidate is opened: the first one does not exist.
    # flat_u16 stores reflectance x 10^4 as u16 with gain 1e-4, its band 2
    # all DN 3000: the samples are all equal, and their mean rounds
    save_flat_band(scene)
    save_flat_band(scene, "flat_u16", 0.3, sample_type="u16",
                   gain=[1e-4] * 4)
    band = load_image(scene / "flat_u16").band(2)
    assert np.ptp(band) == 0.0 and band.mean() != band[0, 0]
    for name in ("flat", "flat_u16"):
        manifest = {"reference": str(scene / name), "ratio": 4,
                    "candidates": [{"id": "ghost",
                                    "path": str(scene / "gone")},
                                   {"id": "ms", "path": str(scene / "ms")}]}
        mpath = scene / "manifest.json"
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["rank", "--manifest", str(mpath),
                     "--out-dir", str(scene / "out")]) == 3
        assert (capsys.readouterr().err.strip()
                == "error: reference band 2: zero variance")
        assert not (scene / "out").exists()
        assert main(["eval", "--reference", str(scene / name),
                     "--candidate", str(scene / "ms"),
                     "--out", str(scene / "e.json")]) == 3
        assert (capsys.readouterr().err.strip()
                == "error: reference band 2: zero variance")
        assert not (scene / "e.json").exists()


@pytest.mark.parametrize("command", ["eval", "rank"])
def test_reference_named_in_its_errors(tmp_path, rng, capsys, command):
    # an error of opening the reference or of featurizing it names it, as
    # its flat band does: 4x4 images have no GLCM3 center at radius 3
    for name in ("ref", "a", "b"):
        save_image(MultibandImage(rng.uniform(0.1, 0.9, (4, 4, 4))),
                   tmp_path / name)
    for reference, message in (
            ("ref", "reference image too small: no valid centers"),
            ("gone", f"reference missing header {tmp_path / 'gone.json'}")):
        out = tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--reference", str(tmp_path / reference),
                    "--candidate", str(tmp_path / "a"), "--out", str(out)]
        else:
            mpath = tmp_path / "manifest.json"
            mpath.write_text(json.dumps(
                {"reference": str(tmp_path / reference), "ratio": 4,
                 "candidates": [{"id": c, "path": str(tmp_path / c)}
                                for c in ("a", "b")]}), encoding="utf-8")
            argv = ["rank", "--manifest", str(mpath), "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()


def test_flat_candidate_band_named_by_id(scene, capsys):
    save_flat_band(scene)
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": "self", "path": str(scene / "ms")},
                               {"id": "pca", "path": str(scene / "flat")}]}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(scene / "out")]) == 3
    assert (capsys.readouterr().err.strip()
            == "error: candidate 'pca': band 2: zero variance")
    assert not (scene / "out").exists()
    flat = str(scene / "flat")
    assert main(["eval", "--reference", str(scene / "ms"), "--candidate",
                 flat, "--out", str(scene / "e.json")]) == 3
    assert (capsys.readouterr().err.strip()
            == f"error: candidate {flat!r}: band 2: zero variance")


@pytest.mark.parametrize("argv, message", [
    (["eval", "--reference", "ms", "--candidate", "ms_l", "--out",
      "ms_l.json"], "ms_l.json would overwrite the candidate image ms_l"),
    (["eval", "--reference", "ms", "--candidate", "ms_l", "--out",
      "ms.raw"], "ms.raw would overwrite the reference image ms"),
    (["qnr", "--ms", "ms_l", "--pan", "pan", "--fused", "ms", "--out",
      "ms.json"], "ms.json would overwrite the fused image ms"),
    (["qnr", "--ms", "ms_l", "--pan", "pan", "--fused", "ms", "--out",
      "./pan.json"], "./pan.json would overwrite the pan image pan"),
    (["glcm3", "--input", "ms", "--out", "ms.json"],
     "ms.json would overwrite the input image ms"),
    (["glcm3", "--input", "ms", "--out", "g.json", "--dump-matrix",
      "ms.raw"], "ms.raw would overwrite the input image ms"),
    (["qnr", "--ms", "ms_l", "--pan", "pan", "--fused", "ms", "--out",
      "ms_l.json"], "ms_l.json would overwrite the ms image ms_l"),
    (["fuse", "--method", "cn", "--ms", "ms_l", "--pan", "pan", "--out",
      "fused", "--process-meta", "ms_l.json"],
     "ms_l.json would overwrite the ms image ms_l"),
    (["fuse", "--method", "pca", "--ms", "ms_l", "--pan", "pan", "--out",
      "fused", "--process-meta", "pan.raw"],
     "pan.raw would overwrite the pan image pan"),
    (["rank", "--manifest", "ref_manifest.json", "--out-dir", "out"],
     "out/report.json would overwrite the reference image out/report"),
    (["rank", "--manifest", "cand_manifest.json", "--out-dir", "out"],
     "candidate 'cn': out/report.json would overwrite the candidate image "
     "out/report"),
    # a raster output over one of the command's rasters
    (["degrade", "--input", "ms", "--ratio", "2", "--out", "ms"],
     "ms.json would overwrite the input image ms"),
    (["fuse", "--method", "pca", "--ms", "ms_l", "--pan", "pan", "--out",
      "ms_l"], "ms_l.json would overwrite the ms image ms_l"),
    (["fuse", "--method", "atwt", "--ms", "ms_l", "--pan", "pan", "--out",
      "pan.raw"], "pan.json would overwrite the pan image pan"),
    (["quantize", "--input", "pan", "--out", "pan"],
     "pan.json would overwrite the input image pan"),
    (["synth", "--out-ms", "ms", "--out-pan", "ms"],
     "ms.json would overwrite the ms image ms"),
    # a number flag, read as a manifest's JSON value and checked as the
    # command line is parsed
    (["degrade", "--input", "ms", "--ratio", "4.5", "--out", "d"],
     "wrong type for ratio: 4.5"),
    (["degrade", "--input", "ms", "--ratio", "\"4\"", "--out", "d"],
     "wrong type for ratio: '4'"),
    (["degrade", "--input", "ms", "--ratio", "4", "--mtf-gain", "[0.3]",
      "--out", "d"], "wrong type for mtf_gain: [0.3]"),
    (["fuse", "--method", "atwt", "--ms", "ms_l", "--pan", "pan",
      "--levels", "2.5", "--out", "fused"], "wrong type for levels: 2.5"),
    (["fuse", "--method", "atwt", "--ms", "ms_l", "--pan", "pan",
      "--levels", "two", "--out", "fused"], "wrong type for levels: 'two'"),
    (["qnr", "--ms", "ms_l", "--pan", "pan", "--fused", "ms", "--mtf-gain",
      "false", "--out", "q.json"], "wrong type for mtf_gain: False"),
])
def test_output_over_an_input_refused(scene, monkeypatch, capsys, argv,
                                      message):
    # refused before any sample is read, every file left as it was
    monkeypatch.chdir(scene)
    # rank's manifests: the reference, or a candidate, is out/report
    (scene / "out").mkdir()
    for ext in (".json", ".raw"):
        shutil.copyfile(scene / f"ms{ext}", scene / "out" / f"report{ext}")
    for name, ref, cand in (("ref", "out/report", "ms"),
                            ("cand", "ms", "out/report")):
        (scene / f"{name}_manifest.json").write_text(json.dumps(
            {"reference": ref, "ratio": 4,
             "candidates": [{"id": "pca", "path": "ms"},
                            {"id": "cn", "path": cand}]}), encoding="utf-8")

    def no_read(*args):
        raise AssertionError("a sample was read")

    def files():
        return {f: f.read_bytes() if f.is_file() else None
                for f in scene.rglob("*")}

    monkeypatch.setattr(RasterFile, "rows", no_read)
    before = files()
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert files() == before


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
    # the oracle is a byte copy of the reference: it shares its features
    for ext in (".json", ".raw"):
        shutil.copyfile(scene / f"ms{ext}", scene / f"oracle{ext}")
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": m, "path": str(scene / f"fused_{m}")}
                               for m in ("pca", "cn", "atwt")]
                + [{"id": "oracle", "path": str(scene / "oracle")}]}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")

    features = count_calls(monkeypatch, pipeline.image_features)
    auras = count_calls(monkeypatch, quantizer.cross_aura)
    gray_maps = count_calls(monkeypatch, glcm3.quantize_gray_levels)
    # the reference is read from disk as the candidates are, never loaded
    loads = count_calls(monkeypatch, raster.load_image)
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(scene / "out")]) == 0
    assert (len(features), len(auras)) == (4, 4)
    assert len(gray_maps) == 4 * 4     # one per band of each 4-band image
    assert loads == []
    assert main(["eval", "--reference", str(scene / "ms"), "--candidate",
                 str(scene / "fused_pca"), "--out",
                 str(scene / "eval.json")]) == 0
    assert (len(features), loads) == (6, [])


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


GOOD_HEADER = {"width": 2, "height": 2, "bands": 1, "dtype": "u8",
               "gain": [1.0], "offset": [0.0]}


@pytest.mark.parametrize("header, message", [
    ("{bad", "malformed header {path}: Expecting property name"),
    (json.dumps(dict(GOOD_HEADER, width="sixteen")),
     "header {path}: wrong type for width: 'sixteen'"),
    (json.dumps(dict(GOOD_HEADER, gain="abcd")),
     "header {path}: wrong type for gain: 'abcd'"),
    ("[2, 2]", "header {path} must be a JSON object"),
    (json.dumps(dict(GOOD_HEADER, width=8.7)),
     "header {path}: wrong type for width: 8.7"),
    (json.dumps(dict(GOOD_HEADER, height=True)),
     "header {path}: wrong type for height: True"),
    (json.dumps(dict(GOOD_HEADER, gain=["1.0"])),
     "header {path}: wrong type for gain: '1.0'"),
    (json.dumps(dict(GOOD_HEADER, offset=[False])),
     "header {path}: wrong type for offset: False"),
    (json.dumps(dict(GOOD_HEADER, nodata="abc")),
     "header {path}: wrong type for nodata: 'abc'"),
    (json.dumps(dict(GOOD_HEADER, band_names=5)),
     "header {path}: band_names must be null or a list of 1 strings: 5"),
    (json.dumps(dict(GOOD_HEADER, gain=[10**400])),
     "header {path}: out of range for gain: an integer too large for a "
     "float"),
    # a gain of 0 would load every sample as the offset
    (json.dumps(dict(GOOD_HEADER, gain=[0.0])),
     "header {path}: gain must be finite and nonzero: [0.0]"),
    (json.dumps(dict(GOOD_HEADER, gain=[float("inf")])),
     "header {path}: gain must be finite and nonzero: [inf]"),
    (json.dumps(dict(GOOD_HEADER, offset=[0.0, 0.0])),
     "header {path}: gain/offset length must equal band count"),
    (json.dumps(dict(GOOD_HEADER, offset=[float("nan")])),
     "header {path}: offset must be finite: [nan]"),
    (json.dumps({k: v for k, v in GOOD_HEADER.items() if k != "width"}),
     "header {path} is missing key 'width'"),
    (json.dumps(dict(GOOD_HEADER, colour="red")),
     "header {path} has unknown keys ['colour']"),
])
def test_degrade_malformed_header(tmp_path, capsys, header, message):
    (tmp_path / "img.json").write_text(header, encoding="utf-8")
    (tmp_path / "img.raw").write_bytes(bytes(4))
    assert main(["degrade", "--input", str(tmp_path / "img"), "--ratio", "2",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(
        "error: " + message.format(path=tmp_path / "img.json"))
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.raw").exists()


def test_degrade_f32_overflow_refused(tmp_path, capsys):
    # DN 1e30 at gain 1e10 loads as 1e40, beyond float32's range: the
    # degraded image cannot be saved as f32, and nothing is written
    header = {"width": 4, "height": 4, "bands": 1, "dtype": "f32",
              "gain": [1e10], "offset": [0.0]}
    (tmp_path / "big.json").write_text(json.dumps(header), encoding="utf-8")
    np.full(16, 1e30, dtype="<f4").tofile(tmp_path / "big.raw")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["degrade", "--input", str(tmp_path / "big"),
                     "--ratio", "2", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: band 0: sample out of range for f32")
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.raw").exists()


def test_rank_manifest_not_json(tmp_path, capsys):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(README_MANIFEST)[:-1], encoding="utf-8")
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: malformed manifest {mpath}: Expecting ',' delimiter")


def test_rank_ignores_panqa_threads(scene, monkeypatch):
    # candidates are scored on one serial path and PANQA_THREADS is not
    # read, so even a value that is no number leaves ranks.csv unchanged
    assert main(["fuse", "--method", "cn", "--ms", str(scene / "ms_l"),
                 "--pan", str(scene / "pan"),
                 "--out", str(scene / "fused_cn")]) == 0
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": "self", "path": str(scene / "ms")},
                               {"id": "cn", "path": str(scene / "fused_cn")}]}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    monkeypatch.delenv("PANQA_THREADS", raising=False)
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(scene / "unset")]) == 0
    monkeypatch.setenv("PANQA_THREADS", "abc")
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(scene / "abc")]) == 0
    assert ((scene / "unset" / "ranks.csv").read_bytes()
            == (scene / "abc" / "ranks.csv").read_bytes())


def test_exit_code_missing_input(tmp_path):
    assert main(["degrade", "--input", str(tmp_path / "nope"), "--ratio", "4",
                 "--out", str(tmp_path / "out")]) == 2


def test_exit_code_bad_ratio(scene):
    # 64 is not divisible by 5 * decimation; expect a clean input error
    assert main(["degrade", "--input", str(scene / "ms"), "--ratio", "5",
                 "--out", str(scene / "bad")]) == 2


@pytest.mark.parametrize("option, message", [
    (["--seed", "-1"], "seed must be 0 or more, not -1"),
    (["--width", "-4"], "width must be a positive multiple of 4, not -4"),
    (["--height", "0"], "height must be a positive multiple of 4, not 0"),
    (["--width", "6"], "width must be a positive multiple of 4, not 6"),
    # a flag's text is read as a manifest's JSON value would be
    (["--width", "6.0"], "width must be a positive multiple of 4, not 6"),
    (["--seed", "1.5"], "wrong type for seed: 1.5"),
    (["--width", "64.5"], "wrong type for width: 64.5"),
    (["--height", "x"], "wrong type for height: 'x'"),
    (["--seed", "1e400"], "wrong type for seed: inf"),
])
def test_synth_bad_argument(tmp_path, capsys, option, message):
    assert main(["synth", *option, "--out-ms", str(tmp_path / "ms"),
                 "--out-pan", str(tmp_path / "pan")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (tmp_path / "ms.json").exists()


def test_exit_code_degenerate(tmp_path):
    flat = MultibandImage(np.full((4, 16, 16), 0.5))
    save_image(flat, tmp_path / "flat")
    assert main(["eval", "--reference", str(tmp_path / "flat"),
                 "--candidate", str(tmp_path / "flat"),
                 "--out", str(tmp_path / "r.json")]) == 3


@pytest.mark.parametrize("text", ["candidate,y\n", ""])
def test_srcc_names_a_missing_column_with_no_data_row(tmp_path, capsys,
                                                      text):
    # the header names the columns, read before any cell; an empty table
    # has no header
    table = tmp_path / "ranks.csv"
    table.write_text(text, encoding="utf-8")
    assert main(["srcc", "--table", str(table), "--col-a", "x",
                 "--col-b", "y"]) == 2
    assert capsys.readouterr().err.strip() == "error: column 'x' not in table"


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf"])
def test_srcc_non_number_cell(tmp_path, capsys, cell):
    table = tmp_path / "ranks.csv"
    table.write_text(f"candidate,x,y\nc0,1,2\nc1,{cell},1\nc2,3,3\n",
                     encoding="utf-8")
    assert main(["srcc", "--table", str(table), "--col-a", "x",
                 "--col-b", "y"]) == 2
    assert (capsys.readouterr().err.strip()
            == f"error: line 3, column 'x': not a number: '{cell}'")


@pytest.mark.parametrize("text, message", [
    ("good,1.0,1.1\nbad,5.0,abc\n", "line 2, column 3: not a number: 'abc'"),
    ("good,1.0,nan\nbad,5.0,4.0\n", "line 1, column 3: not a number: 'nan'"),
    ("good,inf,1.1\nbad,5.0,4.0\n", "line 1, column 2: not a number: 'inf'"),
    ("good,1.0,1.1\nbad,-inf,4.0\n",
     "line 2, column 2: not a number: '-inf'"),
    ("good,1.0,1.1\nbad,5.0\n", "rows differ in their number of cells"),
])
def test_mos_malformed_scores(tmp_path, capsys, text, message):
    scores = tmp_path / "scores.csv"
    scores.write_text(text, encoding="utf-8")
    assert main(["mos", "--scores", str(scores)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("text, message", [
    ("pca,4,5,3\ncn,3,5,2\natwt,5,5,5\n",
     "column 3: every candidate has the same score"),
    # equal scores whose mean rounds, so that their std is 1.4e-17
    ("a,0.1,1\nb,0.1,2\nc,0.1,3\n",
     "column 2: every candidate has the same score"),
], ids=["column-3", "mean-rounds"])
def test_mos_same_score_for_every_candidate(tmp_path, capsys, text,
                                            message):
    scores = tmp_path / "scores.csv"
    scores.write_text(text, encoding="utf-8")
    assert main(["mos", "--scores", str(scores)]) == 3
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {message}"
    assert captured.out == ""


def test_subjective_scores_same_for_every_candidate():
    # the library refuses the column that panqa mos refuses: three 0.1s
    # are equal, though their std is 1.4e-17, and bin as no labels
    with pytest.raises(DegeneracyError, match="of values 0.1 to 0.1"):
        bin_subjective_scores([[0.1, 1], [0.1, 2], [0.1, 3]])


@pytest.mark.parametrize("case, method", [
    ("nan", "atwt"), ("overflow", "atwt"), ("nan", "pca"), ("nan", "cn")],
    ids=["nan", "overflow", "nan-pca", "nan-cn"])
def test_fuse_refused_mid_stream_leaves_nothing(tmp_path, rng, capsys,
                                                monkeypatch, case, method):
    # the PAN's last sample NaN, or its last row beyond float32's range
    # once calibrated: ATWT refuses it in its last block of rows, after
    # it has written the others; PCA and CN read the PAN for their stats
    # before they yield a block
    save_image(MultibandImage(rng.uniform(0.1, 0.9, (4, 40, 40))),
               tmp_path / "ms")
    pan = rng.uniform(0.1, 0.9, (160, 160))
    save_image(MultibandImage(pan[None]), tmp_path / "pan")
    header = {"width": 160, "height": 160, "bands": 1, "dtype": "f32"}
    if case == "nan":
        pan[-1, -1] = np.nan
        message = "error: non-finite samples"
    else:
        header["gain"] = [1e10]
        pan /= 1e10
        pan[-1] = 1e30
        message = "error: band 0: sample out of range for f32"
    (tmp_path / "bad.json").write_text(json.dumps(header), encoding="utf-8")
    pan.astype("<f4").tofile(tmp_path / "bad.raw")
    yielded = []
    fuser, n_free_parameters = fusion._FUSERS[method]

    def counted(ms, pan, cfg):
        for rows, block in fuser(ms, pan, cfg):
            yielded.append(rows)
            yield rows, block

    monkeypatch.setitem(fusion._FUSERS, method, (counted, n_free_parameters))
    argv = ["fuse", "--method", method, "--ms", str(tmp_path / "ms")]
    assert main(argv + ["--pan", str(tmp_path / "pan"),
                        "--out", str(tmp_path / "earlier")]) == 0
    saved = {p.name: p.read_bytes() for p in tmp_path.glob("earlier*")}
    assert sorted(saved) == ["earlier.json", "earlier.raw"]
    for out in ("fresh", "earlier"):
        yielded.clear()
        assert main(argv + ["--pan", str(tmp_path / "bad"),
                            "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        # ATWT wrote blocks of rows first, PCA and CN none
        assert len(yielded) >= 2 if method == "atwt" else not yielded
    assert not list(tmp_path.glob("fresh*"))
    assert not list(tmp_path.glob("*.part"))
    assert {p.name: p.read_bytes()
            for p in tmp_path.glob("earlier*")} == saved


def test_dotted_names_are_two_rasters(tmp_path, rng):
    # a dot in a name starts no suffix: gain1.02 and gain1.05 are two
    # images, and only a .json or .raw suffix is dropped
    assert raster_paths("out/gain1.02") == (
        Path("out/gain1.02.json"), Path("out/gain1.02.raw"))
    assert raster_paths("fused.v2.raw")[0] == Path("fused.v2.json")
    planes = {name: rng.uniform(0.1, 0.9, (2, 8, 8))
              for name in ("gain1.02", "gain1.05")}
    for name, p in planes.items():
        save_image(MultibandImage(p), tmp_path / name)
    saved = {f: f.read_bytes() for f in tmp_path.iterdir()}
    for name, p in planes.items():
        assert np.array_equal(RasterFile(tmp_path / name).band(1),
                              p[1].astype(np.float32))
        assert main(["degrade", "--input", str(tmp_path / name),
                     "--ratio", "2", "--out",
                     str(tmp_path / f"{name}_l.v2")]) == 0
        want = degrade(load_image(tmp_path / name), 2).planes
        got = load_image(tmp_path / f"{name}_l.v2").planes
        assert np.array_equal(got, want.astype(np.float32))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}{ext}" for name in ("gain1.02", "gain1.05", "gain1.02_l.v2",
                                    "gain1.05_l.v2")
        for ext in (".json", ".raw"))
    assert {f: f.read_bytes() for f in saved} == saved


@pytest.mark.parametrize("meta", ["fused.json", "fused.raw",
                                  "sub/../fused.json"])
def test_fuse_refuses_meta_over_output(scene, capsys, meta):
    (scene / "sub").mkdir()
    out = scene / "fused"
    assert main(["fuse", "--method", "cn", "--ms", str(scene / "ms_l"),
                 "--pan", str(scene / "pan"), "--out", str(out),
                 "--process-meta", str(scene / meta)]) == 2
    assert "would overwrite the fused image" in capsys.readouterr().err
    assert not (scene / "fused.json").exists()
    assert not (scene / "fused.raw").exists()


@pytest.mark.parametrize("argv", [
    ["qnr", "--ms", "ms_l", "--pan", "pan", "--fused", "ms", "--block-size",
     "1", "--out", "qnr.json"],
    ["eval", "--reference", "ms", "--candidate", "ms", "--block-size", "1",
     "--out", "eval.json"],
    # read as a manifest's 1.0 is: as 1
    ["qnr", "--ms", "ms_l", "--pan", "pan", "--fused", "ms", "--block-size",
     "1.0", "--out", "qnr.json"],
    ["eval", "--reference", "ms", "--candidate", "ms", "--block-size", "1.0",
     "--out", "eval.json"],
])
def test_block_size_below_two(scene, monkeypatch, capsys, argv):
    # the truth ms stands in for a fused image on the PAN grid
    monkeypatch.chdir(scene)
    assert main(argv) == 2
    assert (capsys.readouterr().err.strip()
            == "error: block_size must be >= 2")
    assert not (scene / argv[-1]).exists()


@pytest.mark.parametrize("option, message", [
    (["--ratio", "0"], "ratio must be >= 1: 0"),
    (["--block-size", "1"], "block_size must be >= 2"),
    (["--radii", "0,1"], "radii must be strictly increasing, min >= 1"),
    (["--gl", "1"], "gl must be in [2, 256]: 1"),
    (["--gl", "257"], "gl must be in [2, 256]: 257"),
    (["--radii", "3,2"], "radii must be strictly increasing, min >= 1"),
    (["--category2-level", "medium"], "unknown category2_level 'medium'"),
    # a flag's text is read as a manifest's JSON value would be
    (["--gl", "31.7"], "wrong type for gl: 31.7"),
    (["--gl", "1.0"], "gl must be in [2, 256]: 1"),
    (["--ratio", "4.5"], "wrong type for ratio: 4.5"),
    (["--block-size", "true"], "wrong type for block_size: True"),
    (["--radii", "x"], "wrong type for radii: 'x'"),
    (["--radii", "1,2.5"], "wrong type for radii: 2.5"),
])
def test_eval_option_out_of_range(tmp_path, capsys, option, message):
    # refused before either image is read: neither exists. A manifest
    # that sets the same value is refused with the same message
    argv = ["eval", "--reference", str(tmp_path / "ref"),
            "--candidate", str(tmp_path / "cand"), *option,
            "--out", str(tmp_path / "eval.json")]
    key = option[0][2:].replace("-", "_")
    value = getattr(build_parser().parse_args(argv), key)
    manifest = {"reference": str(tmp_path / "ref"), "ratio": 4,
                "candidates": [{"id": c, "path": str(tmp_path / c)}
                               for c in ("a", "b")]}
    if key == "ratio":
        manifest["ratio"] = value
    else:
        manifest["options"] = {key: value}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (tmp_path / "eval.json").exists()
    assert main(["rank", "--manifest", str(mpath),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (tmp_path / "out").exists()


def test_eval_has_a_flag_per_option():
    # every manifest option is an eval flag, defaulting to the same value
    args = build_parser().parse_args(["eval", "--reference", "r",
                                      "--candidate", "c", "--out", "e"])
    assert {f.name: getattr(args, f.name, None)
            for f in dataclasses.fields(pipeline.EvalOptions)} == {
        f.name: f.default for f in dataclasses.fields(pipeline.EvalOptions)}


@pytest.mark.parametrize("key, value", [
    *(("category2_level", level) for level in quantizer.LEVELS),
    ("gl", 16), ("radii", [1, 4]), ("block_size", 4), ("gl", 16.0)])
def test_eval_writes_the_rank_entry(scene, key, value):
    # eval's JSON less classic is report.json's entry for the candidate of
    # a manifest whose ids are the paths and that has no process keys
    paths = []
    for m in ("pca", "cn"):
        paths.append(str(scene / f"fused_{m}"))
        assert main(["fuse", "--method", m, "--ms", str(scene / "ms_l"),
                     "--pan", str(scene / "pan"), "--out", paths[-1]]) == 0
    manifest = {"reference": str(scene / "ms"), "ratio": 4,
                "candidates": [{"id": p, "path": p} for p in paths],
                "options": {key: value}}
    mpath = scene / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    # pca and cn keep the band means, so their mean costs differ only by
    # the f32 samples' rounding
    with pytest.warns(UserWarning, match=r"'category1\.mean': rounding "
                      "noise"):
        assert main(["rank", "--manifest", str(mpath),
                     "--out-dir", str(scene / "out")]) == 0
    entries = json.loads((scene / "out" / "report.json").read_text(
        encoding="utf-8"))["candidates"]
    flag = ",".join(map(str, value)) if key == "radii" else str(value)
    for path, entry in zip(paths, entries, strict=True):
        out = scene / "eval.json"
        assert main(["eval", "--reference", str(scene / "ms"),
                     "--candidate", path, f"--{key.replace('_', '-')}", flag,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        del doc["classic"]
        assert doc == entry


def test_eval_has_no_ergas_factor(tmp_path, capsys):
    # ERGAS's h/l is 1/ratio: --ratio is the one knob
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--reference", str(tmp_path / "ref"), "--candidate",
              str(tmp_path / "cand"), "--ergas-factor", "0.25", "--out",
              str(tmp_path / "eval.json")])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --ergas-factor 0.25"
            in capsys.readouterr().err)
    assert not (tmp_path / "eval.json").exists()


def test_degrade_ratio_one_copies(scene):
    assert main(["degrade", "--input", str(scene / "ms"), "--ratio", "1",
                 "--out", str(scene / "copy")]) == 0
    assert np.array_equal(load_image(scene / "copy").planes,
                          load_image(scene / "ms").planes)


def test_number_flags_read_as_manifest_values(scene):
    # --ratio 4.0 runs as a manifest's 4.0 does, as 4, and the flags of
    # perfbench parse to the numbers that int() and float() gave
    assert main(["degrade", "--input", str(scene / "ms"), "--ratio", "4.0",
                 "--out", str(scene / "ms_l4")]) == 0
    for ext in (".json", ".raw"):
        assert ((scene / f"ms_l4{ext}").read_bytes()
                == (scene / f"ms_l{ext}").read_bytes())
    parse = build_parser().parse_args
    args = parse(["degrade", "--input", "i", "--ratio", "4",
                  "--mtf-gain", "0.15", "--out", "o"])
    assert (args.ratio, args.mtf_gain) == (4, 0.15)
    args = parse(["synth", "--seed", "12", "--width", "1024",
                  "--height", "512.0", "--out-ms", "m", "--out-pan", "p"])
    assert [(type(v), v) for v in (args.seed, args.width, args.height)] == [
        (int, 12), (int, 1024), (int, 512)]
    args = parse(["fuse", "--method", "atwt", "--ms", "m", "--pan", "p",
                  "--levels", "3.0", "--out", "o"])
    assert (type(args.levels), args.levels) == (int, 3)


def test_glcm3_radii_not_increasing(scene, capsys):
    assert main(["glcm3", "--input", str(scene / "ms"), "--radii", "2,1",
                 "--out", str(scene / "glcm.json")]) == 2
    assert (capsys.readouterr().err.strip()
            == "error: radii must be strictly increasing, min >= 1")


@pytest.mark.parametrize("option, message", [
    (["--gl", "300"], "gl must be in [2, 256]: 300"),
    (["--radii", "0,1"], "radii must be strictly increasing, min >= 1"),
    (["--gl", "31.7"], "wrong type for gl: 31.7"),
    (["--gl", "1.0"], "gl must be in [2, 256]: 1"),
    (["--radii", "x"], "wrong type for radii: 'x'"),
    (["--band", "0.5"], "wrong type for band: 0.5"),
    (["--band", "true"], "wrong type for band: True")])
def test_glcm3_options_checked_before_read(tmp_path, capsys, option,
                                           message):
    # the input does not exist: the option is refused first
    assert main(["glcm3", "--input", str(tmp_path / "gone"), *option,
                 "--out", str(tmp_path / "glcm.json")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_glcm3_gl_too_large(scene, capsys):
    # refused before the (gl, gl, gl) table is allocated: at 70000 levels
    # it would take petabytes
    assert main(["glcm3", "--input", str(scene / "ms"), "--gl", "70000",
                 "--out", str(scene / "glcm.json")]) == 2
    assert (capsys.readouterr().err.strip()
            == "error: gl must be in [2, 256]: 70000")
    assert not (scene / "glcm.json").exists()
