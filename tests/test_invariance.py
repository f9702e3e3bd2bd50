"""Metamorphic invariants of `panqa rank`: changes to the inputs that
cannot change any quality must not change any rank.

Manifest order: permuting a manifest's candidates permutes the rows of
ranks.csv and the per-candidate lists of report.json (its candidates and
every rank column), and changes nothing else. The scenes are 64x64
`synth` scenes with the README fusers and an oracle, a byte copy of the
reference.
"""

import csv
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import _cli

CANDIDATES = ("pca", "cn", "atwt", "oracle")


def _rank(workdir, ids, out):
    """ranks.csv rows and report.json of `panqa rank` over the candidates
    ids, in that order, each with its own process costs."""
    manifest = {
        "reference": str(workdir / "ms"), "ratio": 4,
        "candidates": [{"id": c, "path": str(workdir / c),
                        "wall_seconds": 0.1 * (CANDIDATES.index(c) + 1),
                        "n_free_parameters": CANDIDATES.index(c) % 2 + 1}
                       for c in ids],
        "options": {"gl": 32, "block_size": 8},
    }
    path = workdir / f"{out}.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    _cli("rank", "--manifest", path, "--out-dir", workdir / out)
    with open(workdir / out / "ranks.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(workdir / out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    return rows, report


def _permuted(ranks, order):
    """report.json's ranks with every candidate list in the given order;
    the partial ranks are one level down, a list per column."""
    if isinstance(ranks, dict):
        return {col: _permuted(value, order) for col, value in ranks.items()}
    return [ranks[k] for k in order]


@pytest.fixture(scope="module", params=[0, 3])
def scene(tmp_path_factory, request):
    """A seeded scene's directory and its ranks in CANDIDATES order."""
    d = tmp_path_factory.mktemp("scene")
    _cli("synth", "--seed", request.param, "--width", 64, "--height", 64,
         "--out-ms", d / "ms", "--out-pan", d / "pan")
    _cli("degrade", "--input", d / "ms", "--ratio", 4, "--out", d / "ms_l")
    for m in CANDIDATES[:3]:
        _cli("fuse", "--method", m, "--ms", d / "ms_l", "--pan", d / "pan",
             "--out", d / m)
    for ext in (".json", ".raw"):
        shutil.copyfile(d / f"ms{ext}", d / f"oracle{ext}")
    return d, _rank(d, CANDIDATES, "ranks")


@settings(max_examples=8, deadline=None)
@given(order=st.permutations(range(len(CANDIDATES))))
def test_manifest_order_permutes_ranks_and_nothing_else(scene, order):
    workdir, (rows, report) = scene
    ids = [CANDIDATES[k] for k in order]
    got_rows, got = _rank(workdir, ids, "permuted")
    assert got_rows[0] == rows[0]
    assert got_rows[1:] == [rows[1 + k] for k in order]
    assert got == {**report,
                   "candidates": [report["candidates"][k] for k in order],
                   "ranks": _permuted(report["ranks"], order)}
