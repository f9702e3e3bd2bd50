"""The ranks of a run recomputed from the protocol's formulas alone.

score(candidates) takes the `candidates` list of a report.json (each
entry's four cost categories and its process costs) and returns every
ranks.csv column, keyed by its header in file order, and the dropped
columns. It is written from the paper's definitions, in plain numpy,
and imports nothing from panqa:

- a partial rank (PDPR) sums, from 0.0 and in the paper's key order, the
  population z-score of each of its cost columns across the candidates;
  a column whose values are all equal has no z-score and is left out,
  and named "category<n>.<cost>" among the dropped columns, once;
- PSPR1 and PSPR2 rank the wall time and the free-parameter count;
- case A sums the partial ranks of categories 1, 2(i), 3 and 4, case C
  those of 1, 2(ii), 3 and 4; cases B and D add both PSPRs to A and C;
- every rank is a competition rank: 1 + the number of strictly smaller
  values, so ties share the smallest rank.
"""

import numpy as np

# (ranks.csv header, category, cost keys in summing order) of each
# partial rank; category 2(ii) leaves out the inverse PCC
PARTIAL_RANKS = (
    ("SPCTRL PDPR", "category1",
     ("mean", "std", "skewness", "kurtosis", "entropy")),
    ("SPCTRL&SPTL1(i) PDPR", "category2",
     ("post_class_change", "inverse_pcc")),
    ("SPCTRL&SPTL1(ii) PDPR", "category2", ("post_class_change",)),
    ("SPCTRL&SPTL2 PDPR", "category3",
     ("glcm_contrast", "glcm_energy", "glcm_lne", "cross_aura")),
    ("SPCTRL&SPTL1&SPTL2 PDPR", "category4", ("binary_contour",)),
)


def competition_rank(values) -> list[int]:
    return [1 + sum(v < x for v in values) for x in values]


def score(candidates: list[dict]) -> tuple[dict[str, list], list[str]]:
    """(every ranks.csv column by header, the dropped columns)."""
    cols, dropped = {}, []
    for header, category, keys in PARTIAL_RANKS:
        total = np.zeros(len(candidates))
        for key in keys:
            x = np.array([c[category][key] for c in candidates])
            if x.min() == x.max():
                if f"{category}.{key}" not in dropped:
                    dropped.append(f"{category}.{key}")
                continue
            total = total + (x - x.mean()) / x.std()
        cols[header] = competition_rank(total)
    for header, key in (("PSPR1", "wall_seconds"),
                        ("PSPR2", "n_free_parameters")):
        cols[header] = competition_rank(
            [c["process"][key] for c in candidates])
    p1, p2i, p2ii, p3, p4 = (np.array(cols[h]) for h, _, _ in PARTIAL_RANKS)
    process = np.array(cols["PSPR1"]) + np.array(cols["PSPR2"])
    case_a, case_c = p1 + p2i + p3 + p4, p1 + p2ii + p3 + p4
    for case, final, total in (("A", "PDFR", case_a), ("C", "PDFR", case_c),
                               ("B", "PPFR", case_a + process),
                               ("D", "PPFR", case_c + process)):
        cols[f"Sum case {case}"] = total.tolist()
        cols[f"{final} case {case}"] = competition_rank(total)
    return cols, dropped


def ranks_csv_rows(candidates: list[dict]) -> list[list[str]]:
    """The rows of the ranks.csv these candidates give, as csv reads them."""
    cols, _ = score(candidates)
    return [["candidate", *cols],
            *([c["id"], *map(str, row)]
              for c, row in zip(candidates, zip(*cols.values())))]
