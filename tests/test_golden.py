"""Golden outputs of the README chain on four small scenes.

Each 128x128 `synth` scene (seeds 0-3) goes through the README quick
start: `degrade` the MS, `fuse` it back with pca, cn and atwt, `eval` and
`qnr` each fused image, and `rank` the three plus an oracle (a byte copy
of the reference). The fixture `golden_outputs.json` records what the
code produced: `ranks.csv` byte for byte, and every cost of `report.json`,
of the `eval` JSON and of the `qnr` JSON. Ranks must match exactly; each
number within REL_TOL of its recorded value, so that a numpy or BLAS
build that rounds differently in the last bits still passes; an exact 0,
such as every cost of the oracle, must be 0. Each scene's ranks.csv and
dropped columns must also equal those that reference_scorer recomputes
from its report's costs.

The fixture records what the code does, not what is right. A change that
alters outputs on purpose regenerates it in the same commit:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import reference_scorer
from panqa.cli import main

FIXTURE = Path(__file__).with_name("golden_outputs.json")
SEEDS = (0, 1, 2, 3)
SIZE = 128
METHODS = ("pca", "cn", "atwt")
# a few hundred ulps of the largest cost; the costs are sums over 16k
# samples, so a different summation order moves them far less than this
REL_TOL = 1e-12


def _cli(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise AssertionError(f"panqa {argv[0]} exited {code}")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_chain(workdir: Path) -> dict:
    """Every scene's ranks.csv text and its report, eval and qnr JSON."""
    out = {}
    for seed in SEEDS:
        d = workdir / f"scene{seed}"
        d.mkdir()
        ms, pan, ms_l = d / "ms", d / "pan", d / "ms_l"
        _cli("synth", "--seed", seed, "--width", SIZE, "--height", SIZE,
             "--out-ms", ms, "--out-pan", pan)
        _cli("degrade", "--input", ms, "--ratio", 4, "--out", ms_l)
        scene = {"eval": {}, "qnr": {}}
        for m in METHODS:
            fused = d / f"fused_{m}"
            _cli("fuse", "--method", m, "--ms", ms_l, "--pan", pan,
                 "--out", fused)
            _cli("eval", "--reference", ms, "--candidate", fused,
                 "--out", d / f"eval_{m}.json")
            _cli("qnr", "--ms", ms_l, "--pan", pan, "--fused", fused,
                 "--out", d / f"qnr_{m}.json")
            scene["eval"][m] = _read(d / f"eval_{m}.json")
            # eval's id is its candidate's path, a tmp path: not recorded
            assert scene["eval"][m].pop("id") == str(fused)
            scene["qnr"][m] = _read(d / f"qnr_{m}.json")
        for ext in (".json", ".raw"):
            shutil.copyfile(f"{ms}{ext}", d / f"oracle{ext}")
        manifest = {
            "reference": str(ms), "ratio": 4,
            "candidates": [{"id": c, "path": str(d / f"fused_{c}")}
                           for c in METHODS]
            + [{"id": "oracle", "path": str(d / "oracle")}],
            "options": {"gl": 32, "block_size": 8},
        }
        (d / "manifest.json").write_text(json.dumps(manifest),
                                         encoding="utf-8")
        _cli("rank", "--manifest", d / "manifest.json", "--out-dir", d / "r")
        scene["ranks_csv"] = (d / "r" / "ranks.csv").read_text(
            encoding="utf-8")
        scene["report"] = _read(d / "r" / "report.json")
        out[str(seed)] = scene
    return out


def _mismatches(got, want, where: str) -> list[str]:
    """Where got differs from want: floats beyond REL_TOL, and anything
    else (ints, strings, keys, lengths) at all."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=REL_TOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k],
                                                      f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want and type(got) is type(want) else [
        f"{where}: {got!r} != {want!r}"]


def test_readme_chain_matches_golden_outputs(tmp_path):
    want = _read(FIXTURE)
    got = run_chain(tmp_path)
    assert got.keys() == want.keys()
    for seed in want:
        assert got[seed]["ranks_csv"] == want[seed]["ranks_csv"], seed
    bad = [m for seed in want
           for part in ("report", "eval", "qnr")
           for m in _mismatches(got[seed][part], want[seed][part],
                                f"seed {seed} {part}")]
    assert not bad, "\n".join(bad)
    for seed, scene in got.items():
        candidates = scene["report"]["candidates"]
        assert (list(csv.reader(io.StringIO(scene["ranks_csv"])))
                == reference_scorer.ranks_csv_rows(candidates)), seed
        assert (scene["report"]["dropped_columns"]
                == reference_scorer.score(candidates)[1]), seed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = run_chain(Path(tmp))
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
