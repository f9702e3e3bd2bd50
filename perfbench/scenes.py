"""Benchmark set-up: seeded scenes, fused candidates and run manifests.

Run as a child process of run.py so that the memory set-up needs does not
show in the measured process's peak RSS:

    python3 perfbench/scenes.py --workload rank-large --first 0 --count 8 \
        --workdir .perfbench-work/x

Every input is made through ``panqa.cli.main`` with the README quickstart's
commands (synth, degrade, fuse), so the candidates are exactly what a user
following the README gets, overshoot included. Prints one JSON object with
the scene list and the set-up timings on stdout.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

workloads.import_panqa()
import panqa.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _T_START


def _must(argv: list[str]) -> None:
    rc, msg = workloads.run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {rc}: {msg}")


def make_scene(wl: workloads.Workload, seed: int, workdir: Path) -> dict:
    d = workdir / f"scene{seed}"
    d.mkdir(parents=True, exist_ok=True)
    ms, pan, ms_l = str(d / "ms"), str(d / "pan"), str(d / "ms_l")
    n = str(wl.size)
    _must(["synth", "--seed", str(seed), "--width", n, "--height", n,
           "--out-ms", ms, "--out-pan", pan])
    scene = {"seed": seed, "dir": str(d), "ms": ms, "pan": pan,
             "candidates": []}
    if wl.kind == "protocol":
        return scene
    _must(["degrade", "--input", ms, "--ratio", "4", "--out", ms_l])
    for method in wl.candidates:
        out = str(d / method)
        _must(["fuse", "--method", method, "--ms", ms_l, "--pan", pan,
               "--out", out])
        scene["candidates"].append({"id": method, "path": out})
    if wl.kind == "rank":
        for ext in (".json", ".raw"):
            shutil.copyfile(ms + ext, str(d / "oracle") + ext)
        scene["candidates"].append({"id": "oracle", "path": str(d / "oracle")})
        manifest = {
            "reference": ms,
            "ratio": 4,
            "candidates": [dict(cand, **workloads.process_cost(cand["id"]))
                           for cand in scene["candidates"]],
            "options": {"gl": 32, "block_size": 8},
        }
        scene["manifest"] = str(d / "manifest.json")
        with open(scene["manifest"], "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return scene


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--first", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    scenes, per_scene_s = [], []
    for seed in range(args.first, args.first + args.count):
        t0 = time.perf_counter()
        scenes.append(make_scene(wl, seed, workdir))
        per_scene_s.append(time.perf_counter() - t0)
    doc = {"import_s": IMPORT_S, "per_scene_s": per_scene_s,
           "scenes": scenes}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
