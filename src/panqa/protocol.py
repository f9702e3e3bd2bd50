"""Standardize, combine and rank cost indexes across fusion candidates.

Costs are grouped into four product categories plus two process costs.
Within a category each cost column is z-scored across candidates and the
standardized columns are summed; category sums are converted to partial
ranks (PDPR), partial ranks are summed, and the sums ranked again to give
final ranks. Category 2 exists in two flavours: with the inverse-PCC
column (cases A/B) and without it (cases C/D). Process costs contribute
two further partial ranks (PSPR) in cases B/D.

Competition ("1224") ranking throughout: ties share the minimal rank.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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


def process_costs(meta: dict) -> dict[str, float]:
    """The two process costs read from meta (a manifest candidate or fuser
    metadata); a missing one defaults to 0 s and 1 free parameter."""
    return {"wall_seconds": checked(float, meta.get("wall_seconds", 0.0),
                                    "wall_seconds"),
            "n_free_parameters": checked(int, meta.get("n_free_parameters", 1),
                                         "n_free_parameters")}


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

    def __post_init__(self):
        self.process = process_costs(self.process)
        for group in [*self.categories().values(), self.process]:
            for key, val in group.items():
                if not math.isfinite(val):
                    raise InputError(f"non-finite cost {key}")
        if self.process["n_free_parameters"] < 1:
            raise InputError("n_free_parameters must be >= 1")

    def categories(self) -> dict[str, dict[str, float]]:
        """The four product-cost groups, keyed by category name."""
        return {name: getattr(self, name) for name in CATEGORY_KEYS}


@dataclass
class RankTable:
    candidate_ids: list[str]
    pdpr: dict[str, list[int]]        # per category key -> ranks
    pspr1: list[int]
    pspr2: list[int]
    sum_case_a: list[int]
    pdfr_case_a: list[int]
    sum_case_c: list[int]
    pdfr_case_c: list[int]
    sum_case_b: list[int]
    ppfr_case_b: list[int]
    sum_case_d: list[int]
    ppfr_case_d: list[int]
    # degenerate QI columns left out of a category sum, "category<n>.<cost>"
    dropped_columns: list[str] = field(default_factory=list)


def zscore(values) -> np.ndarray:
    """Population standard score; raises on fewer than 2 values or zero
    spread."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise InputError("need at least 2 values to standardize")
    std = x.std()
    if std == 0.0:
        raise DegeneracyError("degenerate QI: zero variance")
    return (x - x.mean()) / std


def rank(values, lower_is_better: bool = True) -> list[int]:
    """Competition ranking: 1 + number of strictly better values."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 1:
        raise InputError("empty value list")
    if lower_is_better:
        better = x[None, :] < x[:, None]
    else:
        better = x[None, :] > x[:, None]
    return [int(v) for v in 1 + better.sum(axis=1)]


def _standardized_sum(columns: dict[str, list[float]]
                      ) -> tuple[np.ndarray, list[str]]:
    """Sum of z-scored columns and the keys of the degenerate columns left
    out of it."""
    total = None
    dropped = []
    for key, col in columns.items():
        try:
            z = zscore(col)
        except DegeneracyError:
            dropped.append(key)
            continue
        total = z if total is None else total + z
    if total is None:
        total = np.zeros(len(next(iter(columns.values()))))
    return total, dropped


def _category_columns(records: list[QiRecord], category: int,
                      case: str) -> dict[str, list[float]]:
    """One category's cost columns, keyed by cost name."""
    if len(records) < 2:
        raise InputError("need at least 2 candidates")
    if case not in ("with_ipcc", "without_ipcc"):
        raise InputError(f"unknown case {case!r}")
    group_name = f"category{category}"
    if group_name not in CATEGORY_KEYS:
        raise InputError(f"unknown category {category}")
    keys = list(getattr(records[0], group_name).keys())
    if case == "without_ipcc":
        keys = [k for k in keys if k != "inverse_pcc"]
    return {k: [getattr(r, group_name)[k] for r in records] for k in keys}


def category_sum(records: list[QiRecord], category: int,
                 case: str = "with_ipcc") -> np.ndarray:
    """Per-candidate sum of standardized costs for one category; each
    degenerate column is dropped with a warning."""
    total, lost = _standardized_sum(_category_columns(records, category, case))
    _warn_dropped([f"category{category}.{key}" for key in lost])
    return total


def _warn_dropped(names: list[str]) -> None:
    for name in names:
        warnings.warn(f"dropping degenerate QI column {name!r}", stacklevel=3)


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
    """Full aggregation: z-score, category sums, partial and final ranks."""
    if len(records) < 2:
        raise InputError("need at least 2 candidates")
    ids = [r.candidate_id for r in records]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate candidate ids")

    dropped = []

    def partial_rank(category: int, case: str = "with_ipcc") -> list[int]:
        total, lost = _standardized_sum(
            _category_columns(records, category, case))
        dropped.extend(f"category{category}.{key}" for key in lost)
        return rank(total)

    pdpr = {
        "category1": partial_rank(1),
        "category2_i": partial_rank(2, "with_ipcc"),
        "category2_ii": partial_rank(2, "without_ipcc"),
        "category3": partial_rank(3),
        "category4": partial_rank(4),
    }
    pspr1 = rank([r.process["wall_seconds"] for r in records])
    pspr2 = rank([r.process["n_free_parameters"] for r in records])
    # category 2's shared columns are standardized twice: warn once
    dropped = list(dict.fromkeys(dropped))
    _warn_dropped(dropped)
    combined = combine_partial_ranks(
        pdpr["category1"], pdpr["category2_i"], pdpr["category2_ii"],
        pdpr["category3"], pdpr["category4"], pspr1, pspr2)
    return RankTable(candidate_ids=ids, pdpr=pdpr, pspr1=pspr1, pspr2=pspr2,
                     dropped_columns=dropped,
                     **combined)


def srcc(ranks_a, ranks_b) -> float:
    """Tie-corrected Spearman correlation: Pearson on fractional ranks."""
    a = np.asarray(ranks_a, dtype=np.float64)
    b = np.asarray(ranks_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("rank vectors must be 1-D and equal length")
    if a.size < 2:
        raise InputError("need at least 2 ranks")
    fa = _fractional_ranks(a)
    fb = _fractional_ranks(b)
    da, db = fa - fa.mean(), fb - fb.mean()
    denom = math.sqrt(np.sum(da**2) * np.sum(db**2))
    if denom == 0.0:
        raise DegeneracyError("zero rank variance")
    return float(np.sum(da * db) / denom)


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """Average (fractional) ranks, ties sharing their mean position."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def bin_subjective_scores(scores, n_bins: int = 7,
                          dual_fraction: float = 0.10) -> list[str]:
    """Winner-take-all letter labels from a candidates x subjects score
    matrix (lower scores better).

    Each subject's scores are standardized across candidates, the pooled
    standardized range is split into n_bins equal-width bins labeled from
    'A', and each candidate is labeled with its most populated bin. A
    runner-up bin within dual_fraction of the winner count yields a dual
    label ordered best-first.
    """
    m = np.asarray(scores, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 2:
        raise InputError("need a candidates x subjects matrix, >= 2 subjects")
    z = np.column_stack([zscore(m[:, s]) for s in range(m.shape[1])])
    lo, hi = z.min(), z.max()
    if hi == lo:
        raise DegeneracyError("degenerate score distribution")
    edges = np.linspace(lo, hi, n_bins + 1)
    labels = []
    for c in range(m.shape[0]):
        idx = np.clip(np.searchsorted(edges, z[c], side="right") - 1,
                      0, n_bins - 1)
        counts = np.bincount(idx, minlength=n_bins)
        labels.append(winner_label(counts, dual_fraction))
    return labels


def winner_label(counts, dual_fraction: float = 0.10) -> str:
    """Letter of the most populated bin; runner-up within dual_fraction of
    the winner count gives a dual label like "B/C", best-first."""
    counts = np.asarray(counts)
    order = np.argsort(-counts, kind="stable")
    best, second = int(order[0]), int(order[1])
    if counts[second] > counts[best] * (1.0 - dual_fraction):
        lo_bin, hi_bin = sorted((best, second))
        return f"{chr(ord('A') + lo_bin)}/{chr(ord('A') + hi_bin)}"
    return chr(ord("A") + best)
