"""Command-line surface for the pansharpening evaluation pipeline.

Exit codes: 0 success, 2 input error, 3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import glcm3 as glcm3_mod
from . import quantizer as quant_mod
from .errors import DegeneracyError, InputError, PanqaError, checked, named
from .fusion import FUSION_METHODS, FusionConfig, check_shapes, pansharpen
from .pipeline import (Candidate, EvalOptions, RunManifest, classic_metrics,
                       run_manifest, score_candidates, write_json)
from .protocol import bin_subjective_scores, srcc
from .raster import MultibandImage, RasterFile, raster_paths, save_image
from .resample import (DEFAULT_MTF_GAIN_MS, DEFAULT_MTF_GAIN_PAN,
                       UPSAMPLE_METHODS, degrade, mtf_gaussian_kernel)
from .spectral import qnr
from .synth import synth_scene


def _manifest_value(text: str):
    """A flag's text as a manifest's JSON value: 32.0 a number, and text
    that is no JSON a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _number_flag(kind, key: str):
    """A flag's type: its text read as a manifest's value, then checked
    as a kind (int or float) number named key, as a manifest's is. The
    InputError it raises is an exit 2 of main, before any file is read."""
    return lambda text: checked(kind, _manifest_value(text), key)


def _option_flags(p, *names) -> None:
    """A flag per named EvalOptions field, defaulting to that field. Its
    text is read as a manifest's value (a tuple's comma-separated), for
    EvalOptions to check as it checks a manifest's."""
    for f in dataclasses.fields(EvalOptions):
        if f.name in names:
            p.add_argument(
                "--" + f.name.replace("_", "-"), default=f.default,
                type=_manifest_value if not isinstance(f.default, tuple)
                else lambda t: [_manifest_value(v) for v in t.split(",")])


def _number(cell, line: int, column) -> float:
    """A CSV cell as a finite float, or an InputError naming its line and
    column."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise InputError(f"line {line}, column {column}: not a number: "
                         f"{cell!r}")
    return value


def _refuse_overwrite(outputs, **rasters) -> None:
    """Refuses an output path that is the .json or .raw of a raster."""
    for role, path in rasters.items():
        files = set(map(Path.resolve, raster_paths(path)))
        for out in filter(None, outputs):
            if Path(out).resolve() in files:
                raise InputError(f"{out} would overwrite the {role} image "
                                 f"{path}")


def cmd_synth(args) -> int:
    _refuse_overwrite(raster_paths(args.out_pan), ms=args.out_ms)
    ms, pan = synth_scene(args.seed, args.width, args.height)
    save_image(ms, args.out_ms)
    save_image(MultibandImage(pan[None]), args.out_pan)
    return 0


def cmd_degrade(args) -> int:
    _refuse_overwrite(raster_paths(args.out), input=args.input)
    # read from disk one band at a time
    img = RasterFile(args.input)
    taps = mtf_gaussian_kernel(args.ratio, args.mtf_gain)
    save_image(degrade(img, args.ratio, taps), args.out)
    return 0


def cmd_fuse(args) -> int:
    _refuse_overwrite(raster_paths(args.out), ms=args.ms, pan=args.pan)
    _refuse_overwrite([args.process_meta], ms=args.ms, pan=args.pan,
                      fused=args.out)
    # the fuser reads both from disk a block of rows at a time, and
    # writes each block of the fused image as it makes it
    ms, pan = RasterFile(args.ms), RasterFile(args.pan)
    cfg = FusionConfig(method=args.method, resampler=args.resample,
                       wavelet_levels=args.levels)
    meta = pansharpen(ms, pan, cfg, args.out)
    if args.process_meta:
        write_json(args.process_meta, meta)
    return 0


def cmd_eval(args) -> int:
    opts = EvalOptions(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(EvalOptions)})
    _refuse_overwrite([args.out], reference=args.reference,
                      candidate=args.candidate)
    # both images are read from disk a band or a strip at a time, by the
    # features, the PCC, SAM, ERGAS and Q4 alike, each from the one
    # RasterFile opened for it
    reference, (candidate,), (record,) = score_candidates(
        args.reference, [Candidate(args.candidate, args.candidate)], opts)
    doc = {**record.entry(), "classic": classic_metrics(
        reference.image, candidate, opts)}
    write_json(args.out, doc, sort_keys=True)
    return 0


def cmd_qnr(args) -> int:
    opts = EvalOptions(block_size=args.block_size)
    _refuse_overwrite([args.out], ms=args.ms, pan=args.pan, fused=args.fused)
    # read from disk a strip at a time, and by degrade a block of rows
    ms, pan, fused = (RasterFile(p) for p in (args.ms, args.pan, args.fused))
    ratio = check_shapes(ms, pan)
    pan_l = degrade(pan, ratio, mtf_gaussian_kernel(ratio, args.mtf_gain))
    value, d_lambda, d_s = qnr(ms, fused, pan, pan_l,
                               block_size=opts.block_size)
    write_json(args.out, {"qnr": value, "d_lambda": d_lambda, "d_s": d_s})
    return 0


def cmd_glcm3(args) -> int:
    opts = EvalOptions(gl=args.gl, radii=args.radii)
    _refuse_overwrite([args.out, args.dump_matrix], input=args.input)
    image = RasterFile(args.input)
    # the band is read into the first of the work planes that then hold
    # tims_glcm's key planes; they are freed before the features' tables
    work = np.empty((2, image.height, image.width))
    labels = glcm3_mod.quantize_gray_levels(
        image.band(args.band, out=work[0]), opts.gl)
    matrix = glcm3_mod.tims_glcm(labels, opts.radii, gl=opts.gl, work=work)
    del work
    contrast, energy, lne = glcm3_mod.glcm3_features(matrix)
    write_json(args.out, {"contrast": contrast, "energy": energy, "lne": lne,
                          "total_tuples": matrix.total_tuples})
    if args.dump_matrix:
        d, r, c = np.nonzero(matrix.counts)
        with open(args.dump_matrix, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["depth", "row", "col", "count"])
            for row in zip(d, r, c, matrix.counts[d, r, c]):
                writer.writerow([int(v) for v in row])
    return 0


def cmd_quantize(args) -> int:
    _refuse_overwrite(raster_paths(args.out), input=args.input)
    quant_mod.save_stack(quant_mod.quantize_spectral(RasterFile(args.input)),
                         args.out)
    return 0


def cmd_contours(args) -> int:
    _refuse_overwrite([args.out], first=args.a, second=args.b)
    stack_a = quant_mod.load_stack(args.a)
    stack_b = quant_mod.load_stack(args.b)
    if stack_a.bands != stack_b.bands:
        raise InputError(f"label stacks of {stack_a.bands} and "
                         f"{stack_b.bands} bands share no code book")
    plane_a, mean_a = quant_mod.cross_aura(stack_a)
    plane_b, mean_b = quant_mod.cross_aura(stack_b)
    doc = {
        "cross_aura_mean_a": mean_a,
        "cross_aura_mean_b": mean_b,
        "cross_aura_cost": abs(mean_a - mean_b),
        "binary_contour_cost": quant_mod.binary_contour_cost(plane_a,
                                                             plane_b),
        "post_class_change_coarse": quant_mod.post_classification_change_count(
            stack_a.coarse, stack_b.coarse),
    }
    write_json(args.out, doc)
    return 0


def cmd_rank(args) -> int:
    manifest = RunManifest.from_json(args.manifest)
    outputs = [Path(args.out_dir) / name for name in ("ranks.csv",
                                                      "report.json")]
    _refuse_overwrite(outputs, reference=manifest.reference)
    for cand in manifest.candidates:
        with named(f"candidate {cand.id!r}: "):
            _refuse_overwrite(outputs, candidate=cand.path)
    run_manifest(manifest, args.out_dir)
    return 0


def cmd_srcc(args) -> int:
    with open(args.table, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        # the header alone names the columns, before any cell is read
        for col in (args.col_a, args.col_b):
            if col not in (reader.fieldnames or ()):
                raise InputError(f"column {col!r} not in table")
        rows = list(reader)
    # data rows start on line 2, below the header
    col_a, col_b = [[_number(r[col], line, repr(col))
                     for line, r in enumerate(rows, 2)]
                    for col in (args.col_a, args.col_b)]
    print(f"{srcc(col_a, col_b):.4f}")
    return 0


def cmd_mos(args) -> int:
    with open(args.scores, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len({len(r) for r in rows}) > 1:
        raise InputError("rows differ in their number of cells")
    ids = [r[0] for r in rows]
    matrix = [[_number(v, line, col) for col, v in enumerate(r[1:], 2)]
              for line, r in enumerate(rows, 1)]
    for col, scores in enumerate(zip(*matrix), 2):
        if len(scores) > 1 and len(set(scores)) == 1:
            raise DegeneracyError(
                f"column {col}: every candidate has the same score")
    labels = bin_subjective_scores(matrix)
    for cid, label in zip(ids, labels):
        print(f"{cid},{label}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panqa",
        description="Quantitative quality assessment for pansharpening")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic scene")
    p.add_argument("--seed", type=_number_flag(int, "seed"), default=0)
    p.add_argument("--width", type=_number_flag(int, "width"), default=256)
    p.add_argument("--height", type=_number_flag(int, "height"), default=256)
    p.add_argument("--out-ms", required=True)
    p.add_argument("--out-pan", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("degrade", help="MTF-matched low-pass and decimate")
    p.add_argument("--input", required=True)
    p.add_argument("--ratio", type=_number_flag(int, "ratio"), required=True)
    p.add_argument("--mtf-gain", type=_number_flag(float, "mtf_gain"),
                   default=DEFAULT_MTF_GAIN_MS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("fuse", help="run a reference pansharpener")
    p.add_argument("--method", choices=FUSION_METHODS, required=True)
    p.add_argument("--ms", required=True)
    p.add_argument("--pan", required=True)
    p.add_argument("--resample", choices=UPSAMPLE_METHODS,
                   default=FusionConfig.resampler)
    p.add_argument("--levels", type=_number_flag(int, "levels"),
                   default=FusionConfig.wavelet_levels)
    p.add_argument("--out", required=True)
    p.add_argument("--process-meta", default="")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="all product costs + classic metrics")
    p.add_argument("--reference", required=True)
    p.add_argument("--candidate", required=True)
    _option_flags(p, *(f.name for f in dataclasses.fields(EvalOptions)))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("qnr", help="no-reference QNR / D_lambda / D_s")
    p.add_argument("--ms", required=True)
    p.add_argument("--pan", required=True)
    p.add_argument("--fused", required=True)
    # the gain of the PAN degrade, the only image qnr degrades
    p.add_argument("--mtf-gain", type=_number_flag(float, "mtf_gain"),
                   default=DEFAULT_MTF_GAIN_PAN)
    _option_flags(p, "block_size")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_qnr)

    p = sub.add_parser("glcm3", help="third-order texture features")
    p.add_argument("--input", required=True)
    p.add_argument("--band", type=_number_flag(int, "band"), default=0)
    _option_flags(p, "gl", "radii")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-matrix", default="")
    p.set_defaults(func=cmd_glcm3)

    p = sub.add_parser("quantize", help="three-level spectral label maps")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("contours", help="contour costs between label stacks")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_contours)

    p = sub.add_parser("rank", help="full pipeline from a run manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("srcc", help="Spearman correlation of two columns")
    p.add_argument("--table", required=True)
    p.add_argument("--col-a", required=True)
    p.add_argument("--col-b", required=True)
    p.set_defaults(func=cmd_srcc)

    p = sub.add_parser("mos", help="bin subjective scores into letter labels")
    p.add_argument("--scores", required=True,
                   help="CSV: candidate id followed by per-subject scores")
    p.set_defaults(func=cmd_mos)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PanqaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
