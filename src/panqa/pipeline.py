"""Image featurization, candidate evaluation and the ranking run.

image_features() computes one image's quality indicators; evaluate_candidate()
turns a featurized reference and a candidate image into the full battery of
scalar costs; run_manifest() featurizes the reference once, evaluates every
candidate of a run manifest, aggregates the costs into rank tables for
cases A-D and serializes ranks.csv / report.json.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError
from .glcm3 import DEFAULT_GL, DEFAULT_RADII, RingSpec, band_texture
from .protocol import (CATEGORY_KEYS, QiRecord, RankTable, aggregate,
                       process_costs)
from .quantizer import (LEVELS, LabelMapStack, binary_contour_cost,
                        cross_aura, post_classification_change_count,
                        quantize_spectral)
from .raster import MultibandImage, load_image
from .spectral import (DEFAULT_BLOCK, BlockSpec, ergas, inverse_pcc_cost,
                       mdb_cost, q4, sam_mean, summary_stats)


@dataclass
class EvalOptions:
    ratio: int = 4
    ergas_factor: float | None = None
    block_size: int = DEFAULT_BLOCK
    gl: int = DEFAULT_GL
    radii: tuple[int, ...] = DEFAULT_RADII
    category2_level: str = "coarse"

    def __post_init__(self):
        # manifest values arrive as JSON numbers and lists
        self.ratio, self.block_size, self.gl = (
            int(self.ratio), int(self.block_size), int(self.gl))
        self.radii = tuple(self.radii)
        if self.category2_level not in LEVELS:
            raise InputError(
                f"unknown category2_level {self.category2_level!r}")


# manifest "options" keys; the ratio is a top-level manifest key
_OPTION_KEYS = {f.name for f in dataclasses.fields(EvalOptions)} - {"ratio"}


def _require_keys(doc, keys, what: str) -> None:
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise InputError(f"{what} is missing key {key!r}")


@dataclass
class Candidate:
    id: str
    path: str
    process: dict = field(default_factory=dict)   # read by process_costs


@dataclass
class RunManifest:
    reference: str
    candidates: list[Candidate]
    options: EvalOptions = field(default_factory=EvalOptions)

    @classmethod
    def from_json(cls, path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        _require_keys(doc, ("reference", "ratio", "candidates"), "manifest")
        if not isinstance(doc["candidates"], list):
            raise InputError("manifest candidates must be a JSON list")
        for n, c in enumerate(doc["candidates"]):
            _require_keys(c, ("id", "path"), f"manifest candidate {n}")
        opts = doc.get("options", {})
        unknown = set(opts) - _OPTION_KEYS
        if unknown:
            raise InputError(f"unknown manifest options {sorted(unknown)}")
        options = EvalOptions(ratio=doc["ratio"], **opts)
        cands = [Candidate(id=c["id"], path=c["path"],
                           process=process_costs(c))
                 for c in doc["candidates"]]
        ids = [c.id for c in cands]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate candidate ids in manifest")
        return cls(reference=doc["reference"], candidates=cands,
                   options=options)


@dataclass
class ImageFeatures:
    """One image's quality indicators, computed once and compared to many."""

    image: MultibandImage
    stats: list[tuple[float, ...]]               # summary_stats per band
    texture: list[tuple[float, float, float]]    # GLCM3 features per band
    labels: LabelMapStack
    aura_mean: float
    contour: np.ndarray                          # cross-aura plane > 0


def image_features(img: MultibandImage, opts: EvalOptions) -> ImageFeatures:
    """Per-band moments and texture, label stack and cross-aura contour."""
    rings = RingSpec(opts.radii)
    stats = [summary_stats(img.band(b), opts.gl).as_tuple()
             for b in range(img.bands)]
    # the quantizer's range check runs before the costlier texture work
    labels = quantize_spectral(img)
    texture = [band_texture(img.band(b), opts.gl, rings)
               for b in range(img.bands)]
    plane, aura_mean = cross_aura(labels)
    return ImageFeatures(image=img, stats=stats, texture=texture,
                         labels=labels, aura_mean=aura_mean,
                         contour=plane > 0)


def evaluate_candidate(reference: ImageFeatures, candidate: MultibandImage,
                       opts: EvalOptions, candidate_id: str = "",
                       process: dict | None = None) -> QiRecord:
    """Collect every product cost for one candidate against the reference."""
    if reference.image.samples.shape != candidate.samples.shape:
        raise InputError("reference/candidate shape mismatch")
    cand = image_features(candidate, opts)
    # each category's values in its CATEGORY_KEYS order
    values = (
        _mdb_costs(reference.stats, cand.stats),
        [float(post_classification_change_count(
            reference.labels, cand.labels, opts.category2_level)),
         inverse_pcc_cost(reference.image, candidate)],
        _mdb_costs(reference.texture, cand.texture)
        + [abs(reference.aura_mean - cand.aura_mean)],
        [binary_contour_cost(reference.contour, cand.contour)],
    )
    costs = {name: dict(zip(keys, vals, strict=True))
             for (name, keys), vals in zip(CATEGORY_KEYS.items(), values,
                                           strict=True)}
    s = candidate.samples
    return QiRecord(candidate_id=candidate_id, process=process or {},
                    clipped_fraction=float(np.mean((s < 0.0) | (s > 1.0))),
                    **costs)


def _mdb_costs(ref_rows, cand_rows) -> list[float]:
    """mdb_cost of each feature column; a row holds one band's features."""
    return [mdb_cost(ref, cand)
            for ref, cand in zip(zip(*ref_rows), zip(*cand_rows))]


def classic_metrics(reference: MultibandImage, candidate: MultibandImage,
                    opts: EvalOptions) -> dict:
    """SAM / ERGAS / Q4 comparison report entries."""
    sam_deg, _ = sam_mean(reference, candidate)
    out = {
        "sam_degrees": sam_deg,
        "ergas": ergas(reference, candidate, opts.ratio, opts.ergas_factor),
    }
    if reference.bands == 4:
        out["q4"] = q4(reference, candidate, BlockSpec(opts.block_size))
    return out


def _max_workers() -> int:
    env = os.environ.get("PANQA_THREADS", "")
    try:
        n = int(env)
    except ValueError:
        n = 0
    return max(1, n)


def run_manifest(manifest: RunManifest, out_dir) -> RankTable:
    """Featurize the reference once, evaluate all candidates, aggregate,
    write ranks.csv + report.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    opts = manifest.options
    reference = image_features(load_image(manifest.reference), opts)

    def one(cand: Candidate) -> QiRecord:
        return evaluate_candidate(reference, load_image(cand.path), opts,
                                  candidate_id=cand.id, process=cand.process)

    workers = _max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(one, manifest.candidates))
    else:
        records = [one(c) for c in manifest.candidates]

    table = aggregate(records)
    write_rank_csv(table, out_dir / "ranks.csv")
    write_report(records, table, out_dir / "report.json")
    return table


_CSV_COLUMNS = (
    ("SPCTRL PDPR", lambda t, i: t.pdpr["category1"][i]),
    ("SPCTRL&SPTL1(i) PDPR", lambda t, i: t.pdpr["category2_i"][i]),
    ("SPCTRL&SPTL1(ii) PDPR", lambda t, i: t.pdpr["category2_ii"][i]),
    ("SPCTRL&SPTL2 PDPR", lambda t, i: t.pdpr["category3"][i]),
    ("SPCTRL&SPTL1&SPTL2 PDPR", lambda t, i: t.pdpr["category4"][i]),
    ("PSPR1", lambda t, i: t.pspr1[i]),
    ("PSPR2", lambda t, i: t.pspr2[i]),
    ("Sum case A", lambda t, i: t.sum_case_a[i]),
    ("PDFR case A", lambda t, i: t.pdfr_case_a[i]),
    ("Sum case C", lambda t, i: t.sum_case_c[i]),
    ("PDFR case C", lambda t, i: t.pdfr_case_c[i]),
    ("Sum case B", lambda t, i: t.sum_case_b[i]),
    ("PPFR case B", lambda t, i: t.ppfr_case_b[i]),
    ("Sum case D", lambda t, i: t.sum_case_d[i]),
    ("PPFR case D", lambda t, i: t.ppfr_case_d[i]),
)


def write_rank_csv(table: RankTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["candidate"] + [name for name, _ in _CSV_COLUMNS])
        for i in range(len(table.candidate_ids)):
            writer.writerow([table.candidate_ids[i]]
                            + [fn(table, i) for _, fn in _CSV_COLUMNS])


def write_json(path, doc: dict, sort_keys: bool = False) -> None:
    """Write doc as 2-space indented JSON plus a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_report(records: list[QiRecord], table: RankTable, path) -> None:
    doc = {
        "candidates": [{"id": r.candidate_id, **r.categories(),
                        "process": r.process,
                        "clipped_fraction": r.clipped_fraction}
                       for r in records],
        "ranks": {f.name: getattr(table, f.name)
                  for f in dataclasses.fields(table)
                  if f.name not in ("candidate_ids", "dropped_columns")},
        "dropped_columns": table.dropped_columns,
    }
    write_json(path, doc, sort_keys=True)
