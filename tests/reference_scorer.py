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

category1_costs(reference, candidate, gl) and inverse_pcc(reference,
candidate) recompute a record's category-1 costs and its inverse PCC
from two whole images, each a (bands, height, width) float64 array,
with no strips and no centred copy shared between moments:

- a band's moments are its population mean, std sqrt(m2), skewness
  m3 / m2**1.5 and kurtosis m4 / m2**2, m_k the mean of the k-th powers
  of its deviations from its mean; its entropy is the Shannon entropy
  (bits) of its gray levels clip(ceil(gl * x) - 1, 0, gl - 1);
- each category-1 cost is the mean over bands of the absolute
  difference of that feature between the two images;
- the inverse PCC is the mean over bands of 1 - the Pearson correlation
  (population normalization) of the two images' bands.
"""

import math

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


CATEGORY1_KEYS = ("mean", "std", "skewness", "kurtosis", "entropy")


def band_features(band: np.ndarray, gl: int) -> tuple[float, ...]:
    """(mean, std, skewness, kurtosis, entropy) of one band."""
    mean = band.mean()
    dev = band - mean
    m2, m3, m4 = (np.mean(dev**k) for k in (2, 3, 4))
    levels = np.clip(np.ceil(band * gl) - 1, 0, gl - 1)
    _, counts = np.unique(levels, return_counts=True)
    p = counts / band.size
    entropy = 0.0 - (p * np.log2(p)).sum()
    return mean, math.sqrt(m2), m3 / m2**1.5, m4 / m2**2, entropy


def category1_costs(reference: np.ndarray, candidate: np.ndarray,
                    gl: int) -> dict[str, float]:
    """Each category-1 cost, keyed in the paper's order."""
    ref = [band_features(band, gl) for band in reference]
    cand = [band_features(band, gl) for band in candidate]
    return {key: float(np.mean(np.abs(np.subtract(
                [r[k] for r in ref], [c[k] for c in cand]))))
            for k, key in enumerate(CATEGORY1_KEYS)}


def inverse_pcc(reference: np.ndarray, candidate: np.ndarray) -> float:
    """The mean over bands of 1 - PCC."""
    pccs = []
    for a, b in zip(reference, candidate):
        da, db = a - a.mean(), b - b.mean()
        pccs.append(np.mean(da * db)
                    / math.sqrt(np.mean(da**2) * np.mean(db**2)))
    return float(np.mean([1.0 - p for p in pccs]))
