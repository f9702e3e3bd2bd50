"""Standardize, combine and rank cost indexes across fusion candidates.

Costs are grouped into four product categories plus two process costs.
Within a category each cost column is z-scored across candidates and the
standardized columns are summed, less any column whose values are all
equal or differ only by rounding (ROUNDING, NOISE_K); category sums are
converted to partial ranks (PDPR), partial ranks are summed, and the
sums ranked again to give final ranks. Category 2 exists in two
flavours: with the inverse-PCC column (cases A/B) and without it (cases
C/D). Process costs contribute two further partial ranks (PSPR) in cases
B/D.

Competition ("1224") ranking throughout: ties share the minimal rank.
Category sums tie within their rounding (TIE_ULPS); every other rank
compares its values exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, InputError, checked

# The cost keys of each product category, in the order their z-scores are
# summed. Cases C/D leave category 2's inverse_pcc column out.
CATEGORY_KEYS = {
    "category1": ("mean", "std", "skewness", "kurtosis", "entropy"),
    "category2": ("post_class_change", "inverse_pcc"),
    "category3": ("glcm_contrast", "glcm_energy", "glcm_lne", "cross_aura"),
    "category4": ("binary_contour",),
}

# Each cost's rounding scale, in units of eps, the relative rounding of
# the samples as read (raster.Image.eps). None marks an mdb_cost, which
# rounds with its feature: eps times the feature's largest magnitude over
# both images' bands. A cost taken from counts has scale 0, since equal
# counts compare exactly.
ROUNDING = {
    "mean": None, "std": None, "skewness": None, "kurtosis": None,
    "entropy": None, "post_class_change": 0.0, "inverse_pcc": 1.0,
    "glcm_contrast": None, "glcm_energy": None, "glcm_lne": None,
    "cross_aura": 0.0, "binary_contour": 0.0,
}


class PartialRank(NamedTuple):
    """One partial-rank (PDPR) column: the category whose costs it sums,
    those cost keys in summing order, and its ranks.csv header."""

    category: str
    keys: tuple[str, ...]
    header: str


# The five partial-rank columns, in ranks.csv order, which is also the
# order of combine_partial_ranks's arguments
PARTIAL_RANKS = {
    "category1": PartialRank("category1", CATEGORY_KEYS["category1"],
                             "SPCTRL PDPR"),
    "category2_i": PartialRank("category2", CATEGORY_KEYS["category2"],
                               "SPCTRL&SPTL1(i) PDPR"),
    "category2_ii": PartialRank("category2", ("post_class_change",),
                                "SPCTRL&SPTL1(ii) PDPR"),
    "category3": PartialRank("category3", CATEGORY_KEYS["category3"],
                             "SPCTRL&SPTL2 PDPR"),
    "category4": PartialRank("category4", CATEGORY_KEYS["category4"],
                             "SPCTRL&SPTL1&SPTL2 PDPR"),
}


def process_costs(meta: dict) -> dict[str, float]:
    """The two process costs read from meta (a manifest candidate or fuser
    metadata); a missing one defaults to 0 s and 1 free parameter."""
    wall = checked(float, meta.get("wall_seconds", 0.0), "wall_seconds")
    if not 0.0 <= wall < math.inf:
        raise InputError(f"wall_seconds must be finite and >= 0: {wall!r}")
    n_free = checked(int, meta.get("n_free_parameters", 1),
                     "n_free_parameters")
    if n_free < 1:
        raise InputError("n_free_parameters must be >= 1")
    return {"wall_seconds": wall, "n_free_parameters": n_free}


@dataclass
class QiRecord:
    """All scalar costs collected for one candidate. Lower is better."""

    candidate_id: str
    category1: dict[str, float]   # keyed as in CATEGORY_KEYS
    category2: dict[str, float]
    category3: dict[str, float]
    category4: dict[str, float]
    process: dict[str, float]     # read through process_costs
    # share of the candidate's samples outside [0, 1]; not a cost
    clipped_fraction: float = 0.0
    # each cost key's rounding scale (ROUNDING), 0 where absent; not a
    # cost, and not in entry()
    scales: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.process = process_costs(self.process)
        if not (set(self.scales) <= set(ROUNDING) and all(
                0.0 <= s < math.inf for s in self.scales.values())):
            raise InputError("rounding scales must be finite and >= 0, "
                             f"keyed by cost: {self.scales}")
        for name, group in self.categories().items():
            unknown = set(group) - set(CATEGORY_KEYS[name])
            if unknown:
                raise InputError(f"unknown {name} costs {sorted(unknown)}")
            for key in CATEGORY_KEYS[name]:
                if key not in group:
                    raise InputError(f"candidate {self.candidate_id!r} "
                                     f"has no {name}.{key} cost")
                if not math.isfinite(group[key]):
                    raise InputError(f"non-finite cost {key}")

    def categories(self) -> dict[str, dict[str, float]]:
        """The four product-cost groups, keyed by category name."""
        return {name: getattr(self, name) for name in CATEGORY_KEYS}

    def entry(self) -> dict:
        """The candidate's report.json entry; `panqa eval` writes it too."""
        return {"id": self.candidate_id, **self.categories(),
                "process": self.process,
                "clipped_fraction": self.clipped_fraction}


def _csv(header: str):
    """A RankTable rank column written to ranks.csv under header."""
    return field(metadata={"csv": header})


@dataclass
class RankTable:
    candidate_ids: list[str]
    pdpr: dict[str, list[int]]        # per PARTIAL_RANKS column -> ranks
    pspr1: list[int] = _csv("PSPR1")
    pspr2: list[int] = _csv("PSPR2")
    sum_case_a: list[int] = _csv("Sum case A")
    pdfr_case_a: list[int] = _csv("PDFR case A")
    sum_case_c: list[int] = _csv("Sum case C")
    pdfr_case_c: list[int] = _csv("PDFR case C")
    sum_case_b: list[int] = _csv("Sum case B")
    ppfr_case_b: list[int] = _csv("PPFR case B")
    sum_case_d: list[int] = _csv("Sum case D")
    ppfr_case_d: list[int] = _csv("PPFR case D")
    # degenerate QI columns left out of a category sum, "category<n>.<cost>"
    dropped_columns: list[str] = field(default_factory=list)

    def columns(self) -> dict[str, list[int]]:
        """Every rank column keyed by its ranks.csv header, in file order."""
        cols = {col.header: self.pdpr[name]
                for name, col in PARTIAL_RANKS.items()}
        cols.update((f.metadata["csv"], getattr(self, f.name))
                    for f in fields(self) if "csv" in f.metadata)
        return cols


def zscore(values) -> np.ndarray:
    """Population standard score; raises on fewer than 2 values, on
    values that are all equal (their std is 1e-17 where the mean rounds),
    and on a std that underflows to 0 or overflows."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise InputError("need at least 2 values to standardize")
    std = x.std()
    if x.min() == x.max() or std in (0.0, math.inf):
        raise DegeneracyError(f"degenerate QI: std {std} of values "
                              f"{x.min()} to {x.max()}")
    return (x - x.mean()) / std


def rank(values, tol: float = 0.0) -> list[int]:
    """Competition ranking, lower is better: 1 + the number of values
    smaller by more than tol, so values within tol of each other tie."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 1:
        raise InputError("empty value list")
    if np.isnan(x).any():
        raise InputError("cannot rank a NaN value")
    return [int(v) for v in 1 + np.searchsorted(np.sort(x), x - tol)]


# a category sum of K z-scores, max|z| the largest of them, is rounded by
# at most TIE_ULPS * eps * K * max|z|: sums that cancel exactly (columns
# a and 1.7 - a, a on a 2^-30 grid in [0, 1], 3-14 candidates, 600,000
# seeded draws) spread by up to 2.12 of these units, about half TIE_ULPS
TIE_ULPS = 4.0


# a column whose std is at most NOISE_K times its largest rounding scale
# differs only by rounding, and is dropped. On ROADMAP item 1's ladders
# (128^2 to 512^2, seeds 0-3, in memory and as f32 files) the columns
# that rounding alone spreads reach 3.9 scales and the others span at
# least 549; on the README fusers' scenes every column spans >= 6,672
NOISE_K = 32.0


def _zscores(records: list[QiRecord], column: str
             ) -> tuple[list[np.ndarray], dict[str, str]]:
    """The z-scores of one PARTIAL_RANKS column's kept costs, in summing
    order, and the "category<n>.<cost>" names of the costs left out, each
    with its reason: "all equal" (zscore's DegeneracyError) or "rounding
    noise" (a std within NOISE_K rounding scales)."""
    if column not in PARTIAL_RANKS:
        raise InputError(f"unknown partial-rank column {column!r}")
    category, keys, _ = PARTIAL_RANKS[column]
    zs, dropped = [], {}
    for key in keys:
        name = f"{category}.{key}"
        values = np.array([getattr(r, category)[key] for r in records])
        try:
            z = zscore(values)
        except DegeneracyError:
            dropped[name] = "all equal"
            continue
        if values.std() <= NOISE_K * max(r.scales.get(key, 0.0)
                                         for r in records):
            dropped[name] = "rounding noise"
        else:
            zs.append(z)
    return zs, dropped


def partial_rank(records: list[QiRecord], column: str
                 ) -> tuple[list[int], dict[str, str]]:
    """One PARTIAL_RANKS column's ranks of the category sums, which tie
    within their rounding, and the costs left out of them, each with its
    reason."""
    zs, dropped = _zscores(records, column)
    tol = (TIE_ULPS * np.finfo(np.float64).eps * len(zs)
           * max((np.abs(z).max() for z in zs), default=0.0))
    return rank(sum(zs, np.zeros(len(records))), tol), dropped


def combine_partial_ranks(pdpr1, pdpr2_i, pdpr2_ii, pdpr3, pdpr4,
                          pspr1, pspr2) -> dict[str, list[int]]:
    """Rank-combination stage: sums of partial ranks and final ranks for
    cases A/C (product only) and B/D (product and process)."""
    cols = [np.asarray(c, dtype=np.int64)
            for c in (pdpr1, pdpr2_i, pdpr2_ii, pdpr3, pdpr4, pspr1, pspr2)]
    if len({c.size for c in cols}) != 1:
        raise InputError("partial rank columns differ in length")
    p1, p2i, p2ii, p3, p4, s1, s2 = cols
    sum_a = p1 + p2i + p3 + p4
    sum_c = p1 + p2ii + p3 + p4
    sum_b = sum_a + s1 + s2
    sum_d = sum_c + s1 + s2
    return {
        "sum_case_a": list(map(int, sum_a)), "pdfr_case_a": rank(sum_a),
        "sum_case_c": list(map(int, sum_c)), "pdfr_case_c": rank(sum_c),
        "sum_case_b": list(map(int, sum_b)), "ppfr_case_b": rank(sum_b),
        "sum_case_d": list(map(int, sum_d)), "ppfr_case_d": rank(sum_d),
    }


def aggregate(records: list[QiRecord]) -> RankTable:
    """Full aggregation: z-score, category sums, partial and final ranks.
    Each degenerate cost left out of a sum is warned about once."""
    ids = [r.candidate_id for r in records]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate candidate ids")
    pdpr, dropped = {}, {}
    for column in PARTIAL_RANKS:
        pdpr[column], lost = partial_rank(records, column)
        # category 2's shared costs are standardized twice: keep one name
        dropped.update(lost)
    for name, reason in dropped.items():
        warnings.warn(f"dropping degenerate QI column {name!r}: {reason}",
                      stacklevel=2)
    pspr1 = rank([r.process["wall_seconds"] for r in records])
    pspr2 = rank([r.process["n_free_parameters"] for r in records])
    return RankTable(candidate_ids=ids, pdpr=pdpr, pspr1=pspr1, pspr2=pspr2,
                     dropped_columns=list(dropped),
                     **combine_partial_ranks(*pdpr.values(), pspr1, pspr2))


def srcc(ranks_a, ranks_b) -> float:
    """Tie-corrected Spearman correlation: Pearson on tie-averaged ranks."""
    a = np.asarray(ranks_a, dtype=np.float64)
    b = np.asarray(ranks_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("rank vectors must be 1-D and equal length")
    if a.size < 2:
        raise InputError("need at least 2 ranks")
    # a value's tie-averaged rank: the mean of its first place, rank(x),
    # and its last, n + 1 - rank(-x)
    fa, fb = ((np.add(rank(x), x.size + 1) - rank(-x)) / 2.0 for x in (a, b))
    da, db = fa - fa.mean(), fb - fb.mean()
    denom = math.sqrt(np.sum(da**2) * np.sum(db**2))
    if denom == 0.0:
        raise DegeneracyError("zero rank variance")
    return float(np.sum(da * db) / denom)


# bins of the standardized subjective-score range, labeled from 'A'
N_BINS = 7
# a runner-up bin within this fraction of the winner's count: a dual label
DUAL_FRACTION = 0.10


def bin_subjective_scores(scores) -> list[str]:
    """Winner-take-all letter labels from a candidates x subjects score
    matrix (lower scores better).

    Each subject's scores are standardized across candidates, the pooled
    standardized range is split into N_BINS equal-width bins labeled from
    'A', and each candidate is labeled with its most populated bin. A
    runner-up bin within DUAL_FRACTION of the winner count yields a dual
    label ordered best-first.
    """
    m = np.asarray(scores, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 2:
        raise InputError("need a candidates x subjects matrix, >= 2 subjects")
    z = np.column_stack([zscore(m[:, s]) for s in range(m.shape[1])])
    edges = np.linspace(z.min(), z.max(), N_BINS + 1)
    labels = []
    for c in range(m.shape[0]):
        idx = np.clip(np.searchsorted(edges, z[c], side="right") - 1,
                      0, N_BINS - 1)
        counts = np.bincount(idx, minlength=N_BINS)
        labels.append(winner_label(counts))
    return labels


def winner_label(counts) -> str:
    """Letter of the most populated bin; runner-up within DUAL_FRACTION of
    the winner count gives a dual label like "B/C", best-first."""
    counts = np.asarray(counts)
    order = np.argsort(-counts, kind="stable")
    best, second = int(order[0]), int(order[1])
    if counts[second] > counts[best] * (1.0 - DUAL_FRACTION):
        lo_bin, hi_bin = sorted((best, second))
        return f"{chr(ord('A') + lo_bin)}/{chr(ord('A') + hi_bin)}"
    return chr(ord("A") + best)
