"""panqa benchmark: drives ``panqa.cli.main`` in-process, as a user runs it.

    python3 perfbench/run.py --workload rank-large --seed 0 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each run sets up its scenes in a child process (scenes.py), then runs ops
in this process until a fixed number of them has succeeded, about
--seconds of work (see Workload.successes), checks every op's outputs,
and prints a readable report followed by one JSON line. --trace 0
reports the end-to-end metrics; --trace 1 runs the same op sequence
untraced once and traced twice, and reports per-layer metrics.
--workload all runs every workload with both settings in child processes.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# BLAS and panqa's candidate pool are pinned before numpy is imported,
# here and in every child.
BLAS_THREADS = "1"
PANQA_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["PANQA_THREADS"] = PANQA_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = workloads.ROOT / ".perfbench-work"
# a window of consecutive seeds may hold no scene whose op succeeds; the
# set-up then draws the next seeds, up to this many batches in all
MAX_BATCHES = 4
PROBE = ("pipeline", "evaluate_candidate")
PROBE_NAME = ".".join(PROBE)
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("mpx_per_s", "Mpx/s"),
              ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"))
# printed with every result but not bounded (see README.md)
EXTRA = (("ops_succeeded", "count"), ("failed_ops", "share"),
         ("mpx_per_s_all_ops", "Mpx/s"))


@dataclass
class Result:
    op: workloads.Op
    rc: int
    message: str
    step: str
    wall: float
    cpu: float
    candidate: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Runner:
    def __init__(self, name: str, seed: int, trace: int):
        self.name = name
        self.wl = workloads.WORKLOADS[name]
        self.seed = seed
        self.workdir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
        self.scenes, self.ops = [], []
        self.import_s, self.per_scene_s = [], []
        self.outcomes = {}       # op key -> first outcome seen
        # Untraced runs wrap evaluate_candidate alone (a few microseconds
        # per candidate) to name the candidate that made a rank op fail.
        self.tracer = tracer.Tracer(targets=(PROBE,))
        self.tracer.install()
        self.n_ops = 0

    def instrument(self, t: tracer.Tracer) -> None:
        """Replace the installed tracer with ``t``."""
        self.tracer.uninstall()
        t.install()
        self.tracer = t

    # -- set-up ---------------------------------------------------------
    def setup_batch(self) -> None:
        wl = self.wl
        cmd = [sys.executable, str(HERE / "scenes.py"), "--workload",
               self.name, "--first", str(self.seed + len(self.scenes)),
               "--count", str(wl.scenes), "--workdir", str(self.workdir)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=workloads.ROOT, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.import_s.append(doc["import_s"])
        self.per_scene_s += doc["per_scene_s"]
        for scene in doc["scenes"]:
            self.scenes.append(scene)
            self.ops += workloads.build_ops(wl, scene)

    def setup_s(self) -> float:
        """Set-up time of one batch: the child's import time plus a batch's
        scene count times the median over every scene set up."""
        return (statistics.median(self.import_s)
                + self.wl.scenes * statistics.median(self.per_scene_s))

    # -- ops --------------------------------------------------------------
    def run_op(self, op: workloads.Op, op_id=None) -> Result:
        rc, msg, step = 0, "", ""
        self.n_ops += 1
        self.tracer.begin_op(self.n_ops if op_id is None else op_id)
        first_span = len(self.tracer.spans)
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        for argv in op.steps:
            rc, msg = workloads.run_cli(argv)
            if rc != 0:
                step = argv[0]
                break
        wall = time.perf_counter() - t0
        res = Result(op, rc, msg, step, wall, _cpu_seconds() - c0)
        if rc != 0:
            res.candidate = op.candidate or ",".join(sorted(
                sp.label for sp in self.tracer.spans[first_span:]
                if sp.name == PROBE_NAME and not sp.ok))
        res.problems = self.check(res)
        return res

    def check(self, res: Result) -> list[str]:
        op = res.op
        problems = []
        if res.rc == 0:
            outcome = ("ok", workloads.digest(op.outputs))
            problems += workloads.check_success(self.wl, op)
        else:
            outcome = ("exit", res.rc, res.message)
        if self.outcomes.setdefault(op.key, outcome) != outcome:
            problems.append("output differs from the op's first run")
        return [f"{op.key}: {p}" for p in problems]

    def measure(self, successes: int) -> list[Result]:
        """Closed loop, one client: ops in scene order, round robin, until
        ``successes`` of them have succeeded. Which ops run depends on the
        seed alone, never on timing, so every run of a seed attempts and
        fails the same ops."""
        results, done, i = [], 0, 0
        while done < successes:
            if i == len(self.ops) and not done:
                if len(self.scenes) >= MAX_BATCHES * self.wl.scenes:
                    raise SystemExit(f"error: no op succeeded on "
                                     f"{len(self.scenes)} scenes")
                self.setup_batch()
            res = self.run_op(self.ops[i % len(self.ops)])
            results.append(res)
            done += res.rc == 0
            i += 1
        return results

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- reporting ------------------------------------------------------------
def machine() -> dict:
    import numpy as np
    info = {"nproc": os.cpu_count(), "cpu_model": "", "caches": {},
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": "", "blas_threads": int(BLAS_THREADS),
            "panqa_threads": int(PANQA_THREADS)}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")), "")
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name', '')} {blas.get('version', '')}"
    except (KeyError, TypeError):
        pass
    return info


def failures(results: list[Result]) -> list[dict]:
    """One entry per distinct failing op key, with its count."""
    seen = {}
    for r in results:
        if r.ok:
            continue
        entry = seen.get(r.op.key)
        if entry is None:
            entry = seen[r.op.key] = {
                "scene_seed": r.op.seed, "op": r.op.key, "exit_code": r.rc,
                "step": r.step, "message": r.message,
                "problems": r.problems, "count": 0,
                "candidate": r.candidate}
        entry["count"] += 1
    return list(seen.values())


def end_to_end(runner: Runner, results: list[Result]) -> dict:
    good = [r for r in results if r.rc == 0]
    return {
        "setup_s": runner.setup_s(),
        "op_s_p50": statistics.median(r.wall for r in good),
        "mpx_per_s": sum(r.op.mpx for r in good) / sum(r.wall for r in good),
        "cpu_s_per_op": statistics.median(r.cpu for r in good),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_untraced(runner: Runner, seconds: float) -> dict:
    results = runner.measure(runner.wl.successes(seconds))
    metrics = end_to_end(runner, results)
    good = [r for r in results if r.rc == 0]
    busy = sum(r.wall for r in results)
    extra = {
        "ops_succeeded": len(good),
        "failed_ops": sum(not r.ok for r in results) / len(results),
        # failed ops' wall time counts here, but they add no work
        "mpx_per_s_all_ops": sum(r.op.mpx for r in good) / busy,
    }
    return {"results": results, "metrics": metrics, "extra": extra}


def run_traced(runner: Runner, seconds: float) -> dict:
    untraced = runner.measure(runner.wl.successes(seconds / 3.0))
    sequence = [r.op for r in untraced]
    t = tracer.Tracer()
    runner.instrument(t)
    passes = [[runner.run_op(op, (p, k)) for k, op in enumerate(sequence)]
              for p in range(2)]
    by_op = defaultdict(list)
    for s in t.spans:
        by_op[s.op].append(s)
    profiles = [[tracer.op_profile(by_op[(p, k)])
                 for k in range(len(sequence))] for p in range(2)]
    # Every op is compared, failed ones too: candidates are evaluated in
    # order on one thread, so a failure stops at the same call each time.
    mismatched = [op.key for k, op in enumerate(sequence)
                  if tracer.counts_of(profiles[0][k])
                  != tracer.counts_of(profiles[1][k])]
    # a failed op's profile stops part way, so only successful ops count
    good = [k for k, r in enumerate(passes[0]) if r.rc == 0]
    metrics = tracer.per_layer_metrics(
        [profiles[p][k] for p in (0, 1) for k in good])
    traced_p50 = statistics.median(
        [passes[p][k].wall for p in (0, 1) for k in good])
    metrics["trace.op_s_p50"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(
        r.wall for r in untraced if r.rc == 0)
    results = untraced + passes[0] + passes[1]
    return {"results": results, "metrics": metrics, "spans": t.spans,
            "self_check": {"ops_compared": len(sequence),
                           "mismatched": mismatched},
            "extra": {"ops_succeeded": sum(r.rc == 0 for r in results),
                      "failed_ops": sum(not r.ok for r in results)
                      / len(results)}}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args) -> int:
    workloads.import_panqa()
    import panqa.cli  # noqa: F401  (imported before anything is timed)
    runner = Runner(args.workload, args.seed, args.trace)
    try:
        runner.setup_batch()
        out = (run_traced if args.trace else run_untraced)(runner,
                                                           args.seconds)
        results = out["results"]
        fails = failures(results)
    finally:
        runner.cleanup()
    units = dict(END_TO_END)
    if args.trace:
        units = dict(tracer.per_layer_names())
    problems = [p for r in results for p in r.problems]
    if args.trace and out["self_check"]["mismatched"]:
        problems.append("traced counts differ between the two passes: "
                        + ", ".join(out["self_check"]["mismatched"]))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(),
        "scene_seeds": [s["seed"] for s in runner.scenes],
        "setup": {"import_s": runner.import_s,
                  "per_scene_s": runner.per_scene_s},
        "metrics": out["metrics"], "extra": out["extra"],
        "failures": fails, "problems": problems,
        "ops": [{"key": r.op.key, "rc": r.rc, "wall_s": r.wall,
                 "cpu_s": r.cpu, "ok": r.ok} for r in results],
    }
    if args.trace:
        record["self_check"] = out["self_check"]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(results_dir / f"{stem}-spans.jsonl", "w",
                  encoding="utf-8") as fh:
            for s in out["spans"]:
                fh.write(json.dumps({"id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     "thread": s.thread, "ok": s.ok}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"scenes {record['scene_seeds']}")
    print("machine " + json.dumps(record["machine"]))
    for name, value in out["metrics"].items():
        print(f"  {name:44s} {_fmt(value):>14s} {units[name]}")
    for name, value in out["extra"].items():
        print(f"  {name:44s} {_fmt(value):>14s} {dict(EXTRA)[name]}")
    print(f"  ops {len(results)}, failed {sum(not r.ok for r in results)}")
    for f in fails:
        print(f"  FAILED scene {f['scene_seed']} candidate "
              f"{f['candidate'] or '-'} x{f['count']}: exit {f['exit_code']}"
              f" in {f['step'] or '-'}: {f['message']}"
              + (f" {f['problems']}" if f["problems"] else ""))
    for p in problems:
        print(f"  CHECK FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in out["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=workloads.ROOT,
                timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and last["correct"]
            summary[f"{name}/trace{trace}"] = last
    cols = [n for n, _ in END_TO_END] + ["failed_ops"]
    print("\nsummary (untraced runs)")
    print(f"{'workload':12s}" + "".join(f"{c:>14s}" for c in cols))
    print(f"{'':12s}" + "".join(f"{u:>14s}" for _, u in END_TO_END)
          + f"{'share':>14s}")
    for name in workloads.WORKLOADS:
        last = summary.get(f"{name}/trace0")
        if last is None:
            print(f"{name:12s}  (run failed)")
            continue
        vals = [last["metrics"][c]["value"] for c in cols[:-1]]
        vals.append(last["failed"] / last["attempted"])
        print(f"{name:12s}" + "".join(f"{_fmt(v):>14s}" for v in vals))
    print(json.dumps({"correct": ok, "runs": summary}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
