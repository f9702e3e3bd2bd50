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
- two partial-rank sums tie when they differ by at most
  4 * eps * K * m, eps float64's machine epsilon, K the number of
  z-scored columns summed and m the largest |z| among them: the
  rounding of a sum of z-scores;
- PSPR1 and PSPR2 rank the wall time and the free-parameter count;
- case A sums the partial ranks of categories 1, 2(i), 3 and 4, case C
  those of 1, 2(ii), 3 and 4; cases B and D add both PSPRs to A and C;
- every rank is a competition rank: 1 + the number of values smaller
  by more than the tie width (0 but for partial ranks), so ties share
  the smallest rank.

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

category3_costs(reference, candidate, gl, radii), category4_cost and
post_class_change recompute the texture, aura and label costs from the
same two whole images:

- a band's triple counts take every center whose largest ring lies
  inside the band; each ring of Chebyshev radius r pairs its antipodal
  positions, and each pair adds 1 at (center, low, high) of the three
  gray levels, by np.add.at; contrast, energy and large-number emphasis
  are sums over the counts' (depth, row, col) cells, taken in integers
  and divided by the total once, of p * ((d-r)^2 + (r-c)^2 + (d-c)^2),
  p^2 and p * (d^2 + r^2 + c^2), p the count over the total;
- a pixel's labels are its per-band digits at the thresholds k/4
  (fine), whether each band lies above 1/2 (intermediate), and whether
  more than half the bands do (coarse), compared only for equality;
- its cross-aura intensity counts, at the three levels, its existing
  8-neighbours with another label; the aura cost is the absolute
  difference of the two images' mean intensities, and the binary
  contour cost the fraction of pixels where exactly one image's
  intensity is above 0;
- each glcm_* cost is the mean over bands of the absolute difference of
  that feature, and post_class_change the number of pixels whose
  labels differ at one level.
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


def competition_rank(values, width: float = 0.0) -> list[int]:
    return [1 + sum(x - v > width for v in values) for x in values]


def score(candidates: list[dict]) -> tuple[dict[str, list], list[str]]:
    """(every ranks.csv column by header, the dropped columns)."""
    cols, dropped = {}, []
    for header, category, keys in PARTIAL_RANKS:
        total = np.zeros(len(candidates))
        kept, largest = 0, 0.0
        for key in keys:
            x = np.array([c[category][key] for c in candidates])
            if x.min() == x.max():
                if f"{category}.{key}" not in dropped:
                    dropped.append(f"{category}.{key}")
                continue
            z = (x - x.mean()) / x.std()
            total = total + z
            kept, largest = kept + 1, max(largest, float(np.abs(z).max()))
        eps = np.finfo(np.float64).eps
        cols[header] = competition_rank(total, 4 * eps * kept * largest)
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
GLCM_KEYS = ("glcm_contrast", "glcm_energy", "glcm_lne")
LEVELS = ("fine", "intermediate", "coarse")


def gray_levels(x: np.ndarray, gl: int) -> np.ndarray:
    """How many thresholds k/gl the samples exceed, as integers."""
    return np.clip(np.ceil(x * gl) - 1, 0, gl - 1).astype(np.int64)


def band_features(band: np.ndarray, gl: int) -> tuple[float, ...]:
    """(mean, std, skewness, kurtosis, entropy) of one band."""
    mean = band.mean()
    dev = band - mean
    m2, m3, m4 = (np.mean(dev**k) for k in (2, 3, 4))
    _, counts = np.unique(gray_levels(band, gl), return_counts=True)
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


def glcm_features(band: np.ndarray, gl: int,
                  radii: tuple[int, ...]) -> tuple[float, float, float]:
    """(contrast, energy, large-number emphasis) of one band's triples."""
    levels = gray_levels(band, gl)
    h, w = levels.shape
    m = radii[-1]
    center = levels[m:h - m, m:w - m]
    counts = np.zeros((gl, gl, gl), dtype=np.int64)
    for r in radii:
        # one position of each antipodal pair: those after the center
        for dy, dx in np.ndindex(2 * r + 1, 2 * r + 1):
            dy, dx = dy - r, dx - r
            if max(abs(dy), abs(dx)) == r and (dy, dx) > (0, 0):
                a = levels[m + dy:h - m + dy, m + dx:w - m + dx]
                b = levels[m - dy:h - m - dy, m - dx:w - m - dx]
                np.add.at(counts, (center, np.minimum(a, b),
                                   np.maximum(a, b)), 1)
    d, r, c = np.indices(counts.shape, sparse=True)
    total = int(counts.sum())
    return (int(np.sum(((d - r)**2 + (r - c)**2 + (d - c)**2) * counts))
            / total,
            int(np.sum(counts**2)) / total**2,
            int(np.sum((d**2 + r**2 + c**2) * counts)) / total)


def label_levels(image: np.ndarray) -> dict[str, np.ndarray]:
    """Each level's (height, width, k) labels of an image's pixels: two
    pixels share a label where all k entries are equal."""
    digits = np.moveaxis(gray_levels(image, 4), 0, -1)
    above = digits >= 2
    return {"fine": digits, "intermediate": above,
            "coarse": 2 * above.sum(axis=-1, keepdims=True) > len(image)}


def aura_plane(image: np.ndarray) -> np.ndarray:
    """Per pixel, the existing 8-neighbours with another label, summed
    over the three levels."""
    h, w = image.shape[1:]
    plane = np.zeros((h, w), dtype=np.int64)
    for labels in label_levels(image).values():
        for dy, dx in np.ndindex(3, 3):
            dy, dx = dy - 1, dx - 1
            if dy or dx:
                # the pixels whose (dy, dx) neighbour lies inside
                ys = slice(max(-dy, 0), h - max(dy, 0))
                xs = slice(max(-dx, 0), w - max(dx, 0))
                near = labels[ys.start + dy:ys.stop + dy,
                              xs.start + dx:xs.stop + dx]
                plane[ys, xs] += (labels[ys, xs] != near).any(axis=-1)
    return plane


def category3_costs(reference: np.ndarray, candidate: np.ndarray, gl: int,
                    radii: tuple[int, ...]) -> dict[str, float]:
    """Each category-3 cost, keyed in the paper's order."""
    ref = [glcm_features(band, gl, radii) for band in reference]
    cand = [glcm_features(band, gl, radii) for band in candidate]
    costs = {key: float(np.mean(np.abs(np.subtract(
                 [f[k] for f in ref], [f[k] for f in cand]))))
             for k, key in enumerate(GLCM_KEYS)}
    a, b = aura_plane(reference), aura_plane(candidate)
    costs["cross_aura"] = abs(int(a.sum()) / a.size - int(b.sum()) / b.size)
    return costs


def category4_cost(reference: np.ndarray, candidate: np.ndarray) -> float:
    """The binary contour cost."""
    a, b = aura_plane(reference) > 0, aura_plane(candidate) > 0
    return np.count_nonzero(a != b) / a.size


def post_class_change(reference: np.ndarray, candidate: np.ndarray,
                      level: str = "coarse") -> int:
    """The pixels whose labels at this level differ."""
    a, b = label_levels(reference)[level], label_levels(candidate)[level]
    return int(np.count_nonzero((a != b).any(axis=-1)))
