"""In-memory span tracing of panqa's public functions, from outside.

Each traced function is wrapped by object identity wherever any loaded
``panqa.*`` module binds it, so a call is seen whether it goes through
``pipeline``'s ``from .spectral import summary_stats`` or through
``quantizer``'s own module global. A function that is missing or that no
caller reaches simply records no spans.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TARGETS = (
    ("cli", "main"),
    ("pipeline", "run_manifest"),
    ("pipeline", "evaluate_candidate"),
    ("pipeline", "classic_metrics"),
    ("spectral", "summary_stats"),
    ("spectral", "inverse_pcc_cost"),
    ("spectral", "sam_mean"),
    ("spectral", "ergas"),
    ("spectral", "q4"),
    ("spectral", "q_index"),
    ("spectral", "qnr"),
    ("glcm3", "quantize_gray_levels"),
    ("glcm3", "tims_glcm"),
    ("glcm3", "glcm3_features"),
    ("quantizer", "quantize_spectral"),
    ("quantizer", "cross_aura"),
    ("quantizer", "binary_contour_cost"),
    ("quantizer", "post_classification_change_count"),
    ("resample", "degrade"),
    ("resample", "upsample"),
    ("fusion", "pansharpen"),
    ("raster", "load_image"),
    ("raster", "save_image"),
    ("protocol", "aggregate"),
)
# functions whose repeated input content within one op is wasted work
DUP_TARGETS = ("spectral.summary_stats", "glcm3.tims_glcm",
               "quantizer.quantize_spectral", "quantizer.cross_aura",
               "resample.degrade")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = []
    for mod, fn in TARGETS:
        names += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    names += [(f"{n}.dup_ratio", "ratio") for n in DUP_TARGETS]
    names += [("glcm3.tims_glcm.tuples", "count"),
              ("raster.load_image.bytes", "B"),
              ("raster.save_image.bytes", "B"),
              ("pipeline.evaluate_candidate.wait_s", "s"),
              ("pipeline.evaluate_candidate.cpu_ratio", "ratio"),
              ("trace.op_s_p50", "s"),
              ("trace.overhead_s", "s")]
    return names


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(str((value.dtype, value.shape)).encode())
        h.update(np.ascontiguousarray(value).data)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for v in value:
            _feed(h, v)
    else:
        h.update(repr(value).encode())


def content_digest(args, kwargs) -> str:
    h = hashlib.sha1()
    _feed(h, args)
    _feed(h, sorted(kwargs.items()))
    return h.hexdigest()


def _raster_bytes(path) -> int:
    base = str(path)
    if base.endswith((".json", ".raw")):
        base = base[:-len(Path(base).suffix)]
    return sum(os.path.getsize(base + ext) for ext in (".json", ".raw")
               if os.path.exists(base + ext))


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    cpu_s: float
    ok: bool
    hash_s: float = 0.0    # hashing its children's inputs: tracing cost
    digest: str | None = None
    tuples: int = 0
    nbytes: int = 0
    label: str = ""


class Tracer:
    """Records one span per call of each target function."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []
        self._root_stack = None
        self.op = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "panqa"
                                         or name.startswith("panqa."))]
        for mod_name, fn_name in self.targets:
            owner = sys.modules.get(f"panqa.{mod_name}")
            orig = getattr(owner, fn_name, None)
            if orig is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._root_stack = self._stack()

    def _wrap(self, name, fn):
        tracer = self
        dup = name in DUP_TARGETS

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # first call in a pool thread: caused by the op's caller
                root = tracer._root_stack
                parent = root[-1] if root else None
            dig = None
            if dup:
                h0 = time.perf_counter()
                dig = content_digest(args, kwargs)
                if stack:  # hashing is tracing cost, not the caller's work
                    parent.hash_s += time.perf_counter() - h0
            span = Span(next(tracer._ids), name, 0.0, 0.0,
                        parent.id if parent else None, tracer.op,
                        threading.get_ident(), 0.0, False, digest=dig)
            stack.append(span)
            if name == "raster.load_image":
                span.nbytes = _raster_bytes(args[0] if args
                                            else kwargs["path"])
            elif name == "pipeline.evaluate_candidate":
                span.label = str(kwargs.get("candidate_id", args[3]
                                            if len(args) > 3 else ""))
            c0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                return result
            finally:
                span.end = time.perf_counter()
                span.cpu_s = time.thread_time() - c0
                stack.pop()
                if span.ok and name == "glcm3.tims_glcm":
                    span.tuples = result.total_tuples
                elif span.ok and name == "raster.save_image":
                    span.nbytes = _raster_bytes(args[1] if len(args) > 1
                                                else kwargs["path"])
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced


def _covered(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def op_profile(spans: list[Span]) -> dict:
    """Counts and times of one op's spans, keyed by metric name."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    calls, self_s, digests = defaultdict(int), defaultdict(float), \
        defaultdict(set)
    prof = {"tuples": 0, "load_bytes": 0, "save_bytes": 0,
            "waits": [], "eval_cpu": 0.0, "eval_wall": 0.0}
    for s in spans:
        calls[s.name] += 1
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children[s.id]]
        self_s[s.name] += (s.end - s.start - s.hash_s) - _covered(
            [k for k in kids if k[1] > k[0]])
        if s.digest is not None:
            digests[s.name].add(s.digest)
        prof["tuples"] += s.tuples
        if s.name == "raster.load_image":
            prof["load_bytes"] += s.nbytes
        elif s.name == "raster.save_image":
            prof["save_bytes"] += s.nbytes
        elif s.name == "pipeline.evaluate_candidate":
            anc = by_id.get(s.parent)
            while anc is not None and anc.name != "pipeline.run_manifest":
                anc = by_id.get(anc.parent)
            if anc is not None:
                prof["waits"].append(s.start - anc.start)
            prof["eval_cpu"] += s.cpu_s
            prof["eval_wall"] += s.end - s.start
    prof["calls"] = dict(calls)
    prof["self_s"] = dict(self_s)
    prof["dups"] = {n: calls[n] - len(d) for n, d in digests.items()}
    return prof


def counts_of(prof: dict) -> dict:
    """The parts of a profile that must repeat exactly for the same op."""
    return {"calls": prof["calls"], "dups": prof["dups"],
            "tuples": prof["tuples"], "load_bytes": prof["load_bytes"],
            "save_bytes": prof["save_bytes"]}


def per_layer_metrics(profiles: list[dict]) -> dict:
    """Per-op means over the given (successful) ops' profiles."""
    n = len(profiles)
    out = {}
    for mod, fn in TARGETS:
        name = f"{mod}.{fn}"
        out[f"{name}.calls"] = sum(p["calls"].get(name, 0)
                                   for p in profiles) / n
        out[f"{name}.self_s"] = sum(p["self_s"].get(name, 0.0)
                                    for p in profiles) / n
    for name in DUP_TARGETS:
        calls = sum(p["calls"].get(name, 0) for p in profiles)
        dups = sum(p["dups"].get(name, 0) for p in profiles)
        out[f"{name}.dup_ratio"] = dups / calls if calls else 0.0
    out["glcm3.tims_glcm.tuples"] = sum(p["tuples"] for p in profiles) / n
    out["raster.load_image.bytes"] = sum(p["load_bytes"]
                                         for p in profiles) / n
    out["raster.save_image.bytes"] = sum(p["save_bytes"]
                                         for p in profiles) / n
    waits = [w for p in profiles for w in p["waits"]]
    out["pipeline.evaluate_candidate.wait_s"] = (statistics.fmean(waits)
                                                 if waits else 0.0)
    wall = sum(p["eval_wall"] for p in profiles)
    out["pipeline.evaluate_candidate.cpu_ratio"] = (
        sum(p["eval_cpu"] for p in profiles) / wall if wall else 0.0)
    return out
