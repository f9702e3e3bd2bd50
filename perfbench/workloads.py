"""Workload definitions: scene sizes, candidate sets, ops and output checks.

An op is what a user runs: one ``panqa rank`` (rank-large), one
``panqa eval`` (eval-one), or the reduced-resolution protocol chain
``degrade`` x2, ``fuse`` x3, ``qnr`` x3 (protocol). Each op is a list of
argv lists for ``panqa.cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_panqa():
    """Import panqa from this checkout's ``src``, never from elsewhere."""
    init = SRC / "panqa" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a panqa "
                         "checkout")
    sys.path.insert(0, str(SRC))
    import panqa
    if Path(panqa.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported panqa from {panqa.__file__}, "
                         f"not {init}")
    return panqa


# the README's fusers, each candidate named after its method
README_SET = ("pca", "cn", "atwt")

# Fixed process costs (PSPR1/PSPR2 inputs) so that the same seed always
# gives byte-identical manifests; measured fuse times would not.
_PROCESS_COST = {"pca": (0.8, 1), "cn": (0.5, 1), "atwt": (1.2, 2),
                 "oracle": (0.0, 1)}


def process_cost(candidate_id: str) -> dict:
    wall, free = _PROCESS_COST[candidate_id]
    return {"wall_seconds": wall, "n_free_parameters": free}


@dataclass(frozen=True)
class Workload:
    kind: str              # "rank", "eval" or "protocol"
    size: int              # scene width = height
    scenes: int            # consecutive scene seeds drawn per set-up batch
    op_s: float            # a successful op's wall time on a 2-vCPU host
    candidates: tuple = ()

    def successes(self, seconds: float) -> int:
        """Successful ops a run measures: about ``seconds`` of work on the
        host that ``op_s`` was taken on, and a fixed count everywhere."""
        return max(1, round(seconds / self.op_s))


WORKLOADS = {
    "rank-large": Workload("rank", 512, 8, 5.0, README_SET),
    "eval-one": Workload("eval", 512, 4, 1.2, README_SET),
    "protocol": Workload("protocol", 1024, 4, 4.6),
}


@dataclass
class Op:
    key: str               # scene seed, plus candidate for eval ops
    seed: int
    candidate: str
    steps: list            # argv lists for panqa.cli.main
    mpx: float             # candidate megapixels scored or fused
    outputs: list          # files digested after a successful op


def build_ops(wl: Workload, scene: dict) -> list[Op]:
    d = Path(scene["dir"])
    mpx = wl.size * wl.size / 1e6
    if wl.kind == "rank":
        out = d / "rank_out"
        return [Op(f"scene{scene['seed']}", scene["seed"], "",
                   [["rank", "--manifest", scene["manifest"],
                     "--out-dir", str(out)]],
                   mpx * len(scene["candidates"]),
                   [out / "ranks.csv", out / "report.json"])]
    if wl.kind == "eval":
        ops = []
        for cand in scene["candidates"]:
            out = d / f"eval_{cand['id']}.json"
            ops.append(Op(f"scene{scene['seed']}/{cand['id']}", scene["seed"],
                          cand["id"],
                          [["eval", "--reference", scene["ms"],
                            "--candidate", cand["path"], "--out", str(out)]],
                          mpx, [out]))
        return ops
    p = d / "protocol"
    ms_l, pan_l = str(p / "ms_l"), str(p / "pan_l")
    steps = [["degrade", "--input", scene["ms"], "--ratio", "4",
              "--out", ms_l],
             ["degrade", "--input", scene["pan"], "--ratio", "4",
              "--mtf-gain", "0.15", "--out", pan_l]]
    outputs = [Path(ms_l + ".json"), Path(ms_l + ".raw"),
               Path(pan_l + ".json"), Path(pan_l + ".raw")]
    for m in ("pca", "cn", "atwt"):
        fused = str(p / f"fused_{m}")
        steps.append(["fuse", "--method", m, "--ms", ms_l,
                      "--pan", scene["pan"], "--out", fused])
        outputs += [Path(fused + ".json"), Path(fused + ".raw")]
    for m in ("pca", "cn", "atwt"):
        steps.append(["qnr", "--ms", ms_l, "--pan", scene["pan"],
                      "--fused", str(p / f"fused_{m}"),
                      "--out", str(p / f"qnr_{m}.json")])
        outputs.append(p / f"qnr_{m}.json")
    p.mkdir(exist_ok=True)
    return [Op(f"scene{scene['seed']}", scene["seed"], "", steps, 3 * mpx,
               outputs)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``panqa`` command: (exit code, captured stderr)."""
    from panqa import cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue().strip()


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check_success(wl: Workload, op: Op) -> list[str]:
    """Workload-specific checks on a successful op's outputs."""
    problems = []
    if wl.kind == "rank":
        with open(op.outputs[0], newline="", encoding="utf-8") as fh:
            rows = {r["candidate"]: r for r in csv.DictReader(fh)}
        for col in ("PDFR case A", "PDFR case C"):
            if rows["oracle"][col] != "1":
                problems.append(f"oracle has {col} {rows['oracle'][col]}")
    elif wl.kind == "protocol":
        for out in op.outputs[-3:]:
            doc = json.loads(Path(out).read_text(encoding="utf-8"))
            for name in ("qnr", "d_lambda", "d_s"):
                if not 0.0 <= doc[name] <= 1.0:
                    problems.append(f"{Path(out).name} {name}={doc[name]}")
    return problems
