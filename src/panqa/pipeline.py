"""Image featurization, candidate evaluation and the ranking run.

image_features() computes one image's quality indicators; evaluate_candidate()
turns a featurized reference and a candidate image into the full battery of
scalar costs; score_candidates() featurizes the reference once, opens every
candidate, then evaluates each, for `panqa eval` (one candidate, its id its
path) and for run_manifest(), which aggregates the costs into rank tables
for cases A-D and serializes ranks.csv / report.json.

Images are touched only through raster.Image's shape and rows(b, start,
stop, out) (band(b, out) is the whole-band case), so an image may be a
MultibandImage in memory or a raster.RasterFile on disk.
score_candidates() opens the reference and every candidate as a
RasterFile, so no image is held whole: each band of the reference is
read once to featurize it, then once per candidate, to take that
candidate band's PCC with it; each band of a candidate is read once, to
featurize it; and the first row of band 0 of both once more, to compare
them. `panqa eval` passes both RasterFiles to classic_metrics too.

image_features() is the one place where a band meets its reference's
band. Featurizing an image holds, beside its label codes, two band-sized
float64 work planes, made once and reused for every band: the band, read
into the first, while its label digit, clipped count and uint8
gray-level map are taken, both binned a strip at a time on glcm3's one
fixed reflectance scale; then its centred samples (band - mean), made in
place and only read. summary_stats takes the second plane for the map
cast to intp, which np.bincount counts, then for its temporary; against
a reference, the PCC then reads the reference's band into it, centres
it and takes the product there. The GLCM3 counts then read the
gray-level map alone, their key planes laid in the work planes' bytes
at every gl. A band outside spectral._UNSCALED allocates its scaled
copy.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DegeneracyError, InputError, checked, checked_list,
                     named, read_json, require_keys)
from .glcm3 import (DEFAULT_GL, DEFAULT_RADII, check_glcm3_options,
                    glcm3_features, quantize_gray_levels, tims_glcm)
from .protocol import (CATEGORY_KEYS, QiRecord, RankTable, aggregate,
                       process_costs)
from .quantizer import (LEVELS, SpectralCoder, binary_contour_cost,
                        cross_aura, post_classification_change_count)
from .raster import Image, RasterFile, check_shape
from .spectral import (DEFAULT_BLOCK, SummaryStats, centre, ergas,
                       inverse_pcc_cost, mdb_cost, pcc, q4, sam_mean,
                       summary_stats)


@dataclass
class EvalOptions:
    ratio: int = 4
    block_size: int = DEFAULT_BLOCK
    gl: int = DEFAULT_GL
    radii: tuple[int, ...] = DEFAULT_RADII
    category2_level: str = "coarse"

    def __post_init__(self):
        # manifest values arrive as JSON numbers and lists
        for key in ("ratio", "block_size", "gl"):
            setattr(self, key, checked(int, getattr(self, key), key))
        if self.ratio < 1:
            raise InputError(f"ratio must be >= 1: {self.ratio!r}")
        if self.block_size < 2:
            raise InputError("block_size must be >= 2")
        self.radii = check_glcm3_options(
            self.gl, checked_list(int, self.radii, "radii"))
        if self.category2_level not in LEVELS:
            raise InputError(
                f"unknown category2_level {self.category2_level!r}")


# manifest "options" keys; the ratio is a top-level manifest key
_OPTION_KEYS = {f.name for f in dataclasses.fields(EvalOptions)} - {"ratio"}
# the optional keys of a manifest candidate: those `panqa fuse
# --process-meta` writes, so a candidate may merge its fuser's meta file
_CANDIDATE_KEYS = {"method", "resampler", "wall_seconds", "n_free_parameters"}


def _check_str(doc: dict, key: str, where: str = "") -> None:
    """doc[key] must be a JSON string; where prefixes the message."""
    if not isinstance(doc[key], str):
        raise InputError(f"{where}wrong type for {key}: {doc[key]!r}")


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
        doc = read_json(path, "manifest")
        require_keys(doc, ("reference", "ratio", "candidates"), "manifest",
                     ("options",))
        _check_str(doc, "reference")
        if not isinstance(doc["candidates"], list):
            raise InputError("manifest candidates must be a JSON list")
        for n, c in enumerate(doc["candidates"]):
            require_keys(c, ("id", "path"), f"manifest candidate {n}",
                         _CANDIDATE_KEYS)
            _check_str(c, "id", f"manifest candidate {n}: ")
            _check_str(c, "path", f"manifest candidate {n}: ")
        if len(doc["candidates"]) < 2:
            raise InputError("manifest needs at least 2 candidates, has "
                             f"{len(doc['candidates'])}")
        opts = doc.get("options", {})
        require_keys(opts, (), "manifest options", _OPTION_KEYS)
        options = EvalOptions(ratio=doc["ratio"], **opts)
        cands = []
        for c in doc["candidates"]:
            with named(f"manifest candidate {c['id']!r}: "):
                process = process_costs(c)
            cands.append(Candidate(id=c["id"], path=c["path"],
                                   process=process))
        ids = [c.id for c in cands]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate candidate ids in manifest")
        return cls(reference=doc["reference"], candidates=cands,
                   options=options)


@dataclass
class ImageFeatures:
    """One image's quality indicators, computed once and compared to many."""

    image: Image
    stats: list[SummaryStats]                    # per band
    pccs: list[float]                            # with the reference's bands
    texture: list[tuple[float, float, float]]    # GLCM3 features per band
    labels: np.ndarray                           # category2_level plane
    aura_mean: float
    contour: np.ndarray                          # cross-aura plane > 0
    clipped: int                                 # samples outside [0, 1]


def image_features(img: Image, opts: EvalOptions,
                   reference: ImageFeatures | None = None) -> ImageFeatures:
    """One pass over the bands, each read once into a work plane: its
    digit of the spectral label code, its samples outside [0, 1] and its
    gray-level map; then its centred samples, in place. The moments and
    the band's PCC with reference's band read that one centred copy, the
    texture the gray-level map alone; then the label stack's cross-aura
    contour, after which only its category2_level plane is kept. An
    image without a reference is the reference: a band's PCC with itself
    is 1, and none is taken. A band of zero variance, which has no PCC,
    raises before its texture is taken."""
    coder = SpectralCoder(*img.shape)
    # every band-sized temporary of the pass, made once for all bands:
    # the band, read and centred in place; the entropy's intp map and the
    # moments' temporary, then any reference's band and its product with
    # the centred one; then, at every gl, the texture's key planes.
    # Allocated per band, they made a 512^2 rank op trace 10.6 MB, not
    # 7.6, fault 21,396 times, not 315, and take 10% longer (2-vCPU Xeon)
    work = np.empty((2, img.height, img.width))
    stats, pccs, texture, clipped = [], [], [], 0
    for b in range(img.bands):
        band = img.band(b, out=work[0])
        coder.add(band)
        clipped += int(np.count_nonzero((band < 0.0) | (band > 1.0)))
        levels = quantize_gray_levels(band, opts.gl)
        centred, mean = centre(band, out=band)
        stats.append(summary_stats(centred, mean, levels, work[1]))
        if stats[b].std == 0.0:
            raise DegeneracyError(f"band {b}: zero variance")
        pccs.append(1.0 if reference is None else pcc(
            reference.image.band(b, out=work[1]), centred,
            reference.stats[b], stats[b], work[1]))
        # the texture reads the levels alone
        texture.append(glcm3_features(
            tims_glcm(levels, opts.radii, gl=opts.gl, work=work)))
    del work, band, centred   # freed before the aura planes
    labels = coder.stack()
    plane, aura_mean = cross_aura(labels)
    return ImageFeatures(image=img, stats=stats, pccs=pccs, texture=texture,
                         labels=labels.level(opts.category2_level),
                         aura_mean=aura_mean,
                         contour=plane > 0, clipped=clipped)


def _same_samples(a: Image, b: Image) -> bool:
    """Whether two images of one shape hold equal samples, compared band by
    band once the first row of band 0 is; that row settles most unequal
    pairs."""
    return (np.array_equal(a.rows(0, 0, 1), b.rows(0, 0, 1))
            and all(np.array_equal(a.band(k), b.band(k))
                    for k in range(a.bands)))


def evaluate_candidate(reference: ImageFeatures, candidate: Image,
                       opts: EvalOptions, candidate_id: str = "",
                       process: dict | None = None) -> QiRecord:
    """Collect every product cost for one candidate against the reference,
    which image_features computed with the same opts. The candidate is
    read through rows(), each band once, and featurized against the
    reference; its errors name candidate_id. A candidate whose samples
    equal the reference's is the reference: it shares its features, each
    band's PCC 1, so nothing is computed for it and every cost is 0."""
    with named(f"candidate {candidate_id!r}: "):
        check_shape(candidate, reference.image.shape)
        cand = (reference if _same_samples(reference.image, candidate)
                else image_features(candidate, opts, reference))
    # each category's values in its CATEGORY_KEYS order
    values = (
        _mdb_costs(reference.stats, cand.stats),
        [float(post_classification_change_count(reference.labels,
                                                cand.labels)),
         inverse_pcc_cost(cand.pccs)],
        _mdb_costs(reference.texture, cand.texture)
        + [abs(reference.aura_mean - cand.aura_mean)],
        [binary_contour_cost(reference.contour, cand.contour)],
    )
    costs = {name: dict(zip(keys, vals, strict=True))
             for (name, keys), vals in zip(CATEGORY_KEYS.items(), values,
                                           strict=True)}
    # the count over the samples, as np.mean of their mask gives it
    return QiRecord(candidate_id=candidate_id, process=process or {},
                    clipped_fraction=cand.clipped / math.prod(
                        candidate.shape),
                    **costs)


def _mdb_costs(ref_rows, cand_rows) -> list[float]:
    """mdb_cost of each feature column; a row holds one band's features."""
    return [mdb_cost(ref, cand)
            for ref, cand in zip(zip(*ref_rows), zip(*cand_rows))]


def classic_metrics(reference: Image, candidate: Image,
                    opts: EvalOptions) -> dict:
    """SAM / ERGAS / Q4 comparison report entries; each metric reads the
    images through rows(), so either may be a RasterFile."""
    out = {
        "sam_degrees": sam_mean(reference, candidate),
        "ergas": ergas(reference, candidate, opts.ratio),
    }
    if reference.bands == 4:
        out["q4"] = q4(reference, candidate, opts.block_size)
    return out


def score_candidates(reference, candidates: list[Candidate],
                     opts: EvalOptions
                     ) -> tuple[ImageFeatures, list[RasterFile], list]:
    """The reference raster's features, its errors named "reference", a
    flat band of it refused first; each candidate's RasterFile; and each
    candidate's record. Every image is read from its RasterFile one band
    at a time. Every candidate is opened, and its shape checked, before
    any is featurized; the first failing candidate raises, named by its
    id."""
    with named("reference "):
        ref = image_features(RasterFile(reference), opts)
    images = []
    for cand in candidates:
        with named(f"candidate {cand.id!r}: "):
            images.append(RasterFile(cand.path))
            check_shape(images[-1], ref.image.shape)
    return ref, images, [
        evaluate_candidate(ref, image, opts, cand.id, cand.process)
        for cand, image in zip(candidates, images)]


def run_manifest(manifest: RunManifest, out_dir) -> RankTable:
    """Score the manifest's candidates, aggregate, write ranks.csv +
    report.json; a failing candidate ends the run and nothing is written."""
    _, _, records = score_candidates(manifest.reference,
                                     manifest.candidates, manifest.options)
    table = aggregate(records)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rank_csv(table, out_dir / "ranks.csv")
    write_report(records, table, out_dir / "report.json")
    return table


def write_rank_csv(table: RankTable, path) -> None:
    cols = table.columns()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["candidate", *cols],
                                  *zip(table.candidate_ids, *cols.values())])


def write_json(path, doc: dict, sort_keys: bool = False) -> None:
    """Write doc as 2-space indented JSON plus a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_report(records: list[QiRecord], table: RankTable, path) -> None:
    doc = {
        "candidates": [r.entry() for r in records],
        "ranks": {f.name: getattr(table, f.name)
                  for f in dataclasses.fields(table)
                  if f.name not in ("candidate_ids", "dropped_columns")},
        "dropped_columns": table.dropped_columns,
    }
    write_json(path, doc, sort_keys=True)
