"""Metamorphic invariants of `panqa rank`: changes to the inputs that
cannot change any quality must not change any rank.

Manifest order: permuting a manifest's candidates permutes the rows of
ranks.csv and the per-candidate lists of report.json (its candidates and
every rank column), and changes nothing else. The scenes are 64x64
`synth` scenes with the README fusers and an oracle, a byte copy of the
reference.

Band order: permuting the bands of the reference and of every candidate
in the same way changes no rank column, since every label measure
compares labels only for equality and every other cost is per band. The
scenes are 256x256 `synth` scenes, seeds 0-3, with the README fusers and
the oracle.

Copies: a byte copy of a candidate, with its process costs, ties with it
in every column, and the reference itself, listed as a candidate beside
the README fusers, ranks first in every rank column. These use the 64x64
scenes.

Flips: transposing, mirroring or rotating by 180 degrees every image in
the same way changes neither PDFR case A nor case C. This holds in exact
arithmetic: the GLCM3 rings, the cross-aura 8-neighbourhood and the 8x8
Q4 blocks map onto themselves, and every other cost is a sum over
pixels. The candidates are a gain ladder, the reference with band 4
scaled by 1.02, 1.05, 1.10 and 1.20, on 256x256 scenes, seeds 0-3.

Ladders (ROADMAP item 1): the gain ladder, and an offset ladder, the
reference with every band offset by 0.005, 0.01, 0.02 and 0.04, ranked
as they are and transposed, held in memory and saved as f32 files. The
costs that rounding alone spreads are dropped as noise, and no other, so
cases A and C follow the ladder: the gain ladder on seeds 0-3, the offset
ladder on seeds 1-3. Offset seed 0 is a binning blind spot, recorded
with its ranks.
"""

import csv
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panqa.pipeline import EvalOptions, evaluate_candidate, image_features
from panqa.protocol import aggregate
from panqa.raster import MultibandImage, RasterFile, load_image, save_image
from panqa.synth import synth_scene
from test_golden import _cli

CANDIDATES = ("pca", "cn", "atwt", "oracle")
# ROADMAP item 1's ladders, in order of distortion: band 4 scaled by each
# gain, or every band offset by each offset
STEPS = {"gain": (1.02, 1.05, 1.10, 1.20),
         "offset": (0.005, 0.01, 0.02, 0.04)}
# each a map of an image's (bands, height, width) planes
FLIPS = {
    "transpose": lambda p: p.transpose(0, 2, 1),
    "mirror_lr": lambda p: p[:, :, ::-1],
    "mirror_ud": lambda p: p[:, ::-1],
    "rotate_180": lambda p: p[:, ::-1, ::-1],
}


def _rank(workdir, ids, out, names=CANDIDATES, copies={}):
    """ranks.csv rows and report.json of `panqa rank` over the candidates
    ids, in that order, each with its own process costs, given by its
    place in names; an id in copies takes the costs of the one it
    maps to."""
    place = lambda c: names.index(copies.get(c, c))
    manifest = {
        "reference": str(workdir / "ms"), "ratio": 4,
        "candidates": [{"id": c, "path": str(workdir / c),
                        "wall_seconds": 0.1 * (place(c) + 1),
                        "n_free_parameters": place(c) % 2 + 1}
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


def _fused_scene(d, seed, size):
    """A seeded scene's reference ms, its README fusions and the oracle,
    a byte copy of ms, in directory d."""
    _cli("synth", "--seed", seed, "--width", size, "--height", size,
         "--out-ms", d / "ms", "--out-pan", d / "pan")
    _cli("degrade", "--input", d / "ms", "--ratio", 4, "--out", d / "ms_l")
    for m in CANDIDATES[:3]:
        _cli("fuse", "--method", m, "--ms", d / "ms_l", "--pan", d / "pan",
             "--out", d / m)
    for ext in (".json", ".raw"):
        shutil.copyfile(d / f"ms{ext}", d / f"oracle{ext}")


def _transformed(src, dst, names, transform):
    """Each image names[k] of directory src, its planes mapped by
    transform, saved in directory dst; f32 samples round-trip exactly."""
    dst.mkdir(exist_ok=True)
    for name in names:
        planes = transform(load_image(src / name).planes)
        save_image(MultibandImage(np.ascontiguousarray(planes)), dst / name)


@pytest.fixture(scope="module", params=[0, 3])
def scene(tmp_path_factory, request):
    """A seeded scene's directory and its ranks in CANDIDATES order."""
    d = tmp_path_factory.mktemp("scene")
    _fused_scene(d, request.param, 64)
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


def test_byte_copy_ties_in_every_column(scene):
    # a byte copy of a candidate, with the same process costs, has every
    # cost of it, so every sum and rank column ties the two
    workdir, _ = scene
    for ext in (".json", ".raw"):
        shutil.copyfile(workdir / f"cn{ext}", workdir / f"copy{ext}")
    rows, _ = _rank(workdir, CANDIDATES + ("copy",), "copied",
                    copies={"copy": "cn"})
    by_id = {row[0]: row[1:] for row in rows[1:]}
    assert by_id["copy"] == by_id["cn"]


def test_reference_as_candidate_ranks_first(scene):
    # the reference itself, beside the fusers and with the least process
    # costs, is first in every partial and final rank column
    workdir, _ = scene
    rows, _ = _rank(workdir, ("ms",) + CANDIDATES[:3], "self",
                    names=("ms",) + CANDIDATES)
    header, first = rows[0], rows[1]
    assert first[0] == "ms"
    ranks = [k for k, col in enumerate(header) if k and
             not col.startswith("Sum")]
    assert len(ranks) == 11
    assert [first[k] for k in ranks] == ["1"] * len(ranks)
    # no fuser ties it on quality; a process-cost rank (PSPR) may tie
    quality = [k for k in ranks if header[k].endswith("PDPR")]
    assert all(row[k] != "1" for row in rows[2:] for k in quality)


@pytest.fixture(scope="module", params=[0, 1, 2, 3])
def large_scene(tmp_path_factory, request):
    """A 256x256 seeded scene's directory and its ranks."""
    d = tmp_path_factory.mktemp("large")
    _fused_scene(d, request.param, 256)
    return d, _rank(d, CANDIDATES, "ranks")


@settings(max_examples=4, deadline=None)
@given(order=st.permutations(range(4)))
def test_band_order_changes_no_rank(large_scene, order):
    workdir, (rows, report) = large_scene
    _transformed(workdir, workdir / "bands", ("ms",) + CANDIDATES,
                 lambda p: p[list(order)])
    got_rows, got = _rank(workdir / "bands", CANDIDATES, "ranks")
    assert got_rows == rows
    assert got["ranks"] == report["ranks"]


def _ladder_table(ms, transform, kind="gain", tmp=None):
    """The rank table of a STEPS ladder of the reference planes ms, every
    image mapped by transform; the images are held in memory, as float64
    planes, or saved to directory tmp as f32 files and read from there,
    and ranked as run_manifest ranks them."""
    opts = EvalOptions(gl=32, block_size=8)

    def image(planes, name):
        img = MultibandImage(np.ascontiguousarray(transform(planes)))
        if tmp is None:
            return img
        save_image(img, tmp / name)
        return RasterFile(tmp / name)

    reference = image_features(image(ms, "ms"), opts)
    records = []
    for k, step in enumerate(STEPS[kind]):
        planes = ms.copy()
        if kind == "gain":
            planes[3] *= step
        else:
            planes += step
        records.append(evaluate_candidate(
            reference, image(planes, f"{kind}{k}"), opts, f"{kind}{k}",
            {"wall_seconds": 1.0, "n_free_parameters": 1}))
    return aggregate(records)


def _ladder_ranks(ms, transform, kind="gain", tmp=None):
    """PDFR cases A and C of _ladder_table."""
    table = _ladder_table(ms, transform, kind, tmp)
    return table.pdfr_case_a, table.pdfr_case_c


@pytest.fixture(scope="module")
def ladder(request):
    """A 256x256 seeded scene's reference planes and its ladder's ranks."""
    ms = synth_scene(request.param, 256, 256)[0].planes
    return ms, _ladder_ranks(ms, lambda p: p)


# the noise columns, which rounding alone spreads, warn as they are dropped
quiet = pytest.mark.filterwarnings("ignore:dropping degenerate QI column")


@quiet
@pytest.mark.parametrize("ladder, flip", [
    (seed, flip) for seed in range(4) for flip in FLIPS],
    indirect=["ladder"])
def test_flips_change_no_final_rank(ladder, flip):
    ms, ranks = ladder
    assert _ladder_ranks(ms, FLIPS[flip]) == ranks


# the costs whose value is the same at every step in exact arithmetic: a
# gain keeps the moments past the std, an offset the std too, and both
# keep each band's PCC at 1
NOISE = {
    "gain": {"category1.skewness", "category1.kurtosis",
             "category2.inverse_pcc"},
    "offset": {"category1.std", "category1.skewness", "category1.kurtosis",
               "category2.inverse_pcc"},
}


@pytest.fixture(scope="module")
def scene_planes():
    """The 256x256 seeded reference planes, by seed."""
    return {seed: synth_scene(seed, 256, 256)[0].planes for seed in range(4)}


def _case(scene_planes, kind, seed, flip, files, tmp_path):
    transform = FLIPS["transpose"] if flip else (lambda p: p)
    return _ladder_table(scene_planes[seed], transform, kind,
                         tmp_path if files else None)


@quiet
@pytest.mark.parametrize("files", [False, True], ids=["memory", "f32"])
@pytest.mark.parametrize("flip", [False, True], ids=["as_is", "transposed"])
@pytest.mark.parametrize("kind, seed", [
    *(("gain", seed) for seed in range(4)),
    *(("offset", seed) for seed in (1, 2, 3))])
def test_ladder_ranks_in_order(scene_planes, kind, seed, flip, files,
                               tmp_path):
    # ROADMAP item 1: the columns that rounding alone spreads are dropped
    # as noise, and no other, so cases A and C follow the ladder
    table = _case(scene_planes, kind, seed, flip, files, tmp_path)
    assert set(table.dropped_columns) == NOISE[kind]
    assert (table.pdfr_case_a, table.pdfr_case_c) == ([1, 2, 3, 4],) * 2


@quiet
@pytest.mark.parametrize("files", [False, True], ids=["memory", "f32"])
@pytest.mark.parametrize("flip", [False, True], ids=["as_is", "transposed"])
def test_offset_seed_0_is_a_binning_blind_spot(scene_planes, flip, files,
                                               tmp_path):
    # recorded, not endorsed (ROADMAP items 4 and 30): with the noise
    # dropped, category 1 keeps mean and entropy, whose entropy costs are
    # not monotone on this scene, nor are category 3's cross_aura costs,
    # so the last two rungs tie
    table = _case(scene_planes, "offset", 0, flip, files, tmp_path)
    assert set(table.dropped_columns) == NOISE["offset"]
    assert (table.pdfr_case_a, table.pdfr_case_c) == ([1, 2, 3, 3],) * 2
