"""Acceptance gate: one test per criterion, one PASS/FAIL line each."""

import time

import numpy as np
import pytest

import benchmark_fixture as bm
from blocks import collect
from test_fusion import pan_image
from test_glcm3 import oracle_counts
from panqa.fusion import FusionConfig, pansharpen
from panqa.glcm3 import quantize_gray_levels, tims_glcm
from panqa.pipeline import EvalOptions, evaluate_candidate, image_features
from panqa.protocol import (QiRecord, aggregate, category_sum,
                            combine_partial_ranks, srcc, zscore)
from panqa.raster import MultibandImage, RasterFile
from panqa.resample import (DEFAULT_MTF_GAIN_MS, DEFAULT_MTF_GAIN_PAN,
                            degrade, mtf_gaussian_kernel, upsample)
from panqa.spectral import (centre, ergas, q4, q_index, qnr, sam_mean,
                            summary_stats)
from panqa.synth import synth_scene


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {criterion}: {status}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_srcc_reproduction():
    start = time.perf_counter()
    tie_free = [
        (bm.RANKS_ERGAS, bm.RANKS_SAM, bm.SRCC_ERGAS_SAM),
        (bm.RANKS_ERGAS, bm.RANKS_Q4, bm.SRCC_ERGAS_Q4),
        (bm.RANKS_SAM, bm.RANKS_Q4, bm.SRCC_SAM_Q4),
    ]
    tied = [
        (bm.PDFR_CASE_C, bm.PPFR_CASE_D, bm.SRCC_C_D),
        (bm.RANKS_SAM, bm.PDFR_CASE_C, bm.SRCC_SAM_C),
        (bm.RANKS_ERGAS, bm.PDFR_CASE_C, bm.SRCC_ERGAS_C),
        (bm.RANKS_Q4, bm.PDFR_CASE_C, bm.SRCC_Q4_C),
        (bm.RANKS_Q4, bm.PPFR_CASE_D, bm.SRCC_Q4_D),
        (bm.RANKS_SAM, bm.PPFR_CASE_D, bm.SRCC_SAM_D),
    ]
    worst_free = max(abs(srcc(a, b) - want) for a, b, want in tie_free)
    worst_tied = max(abs(srcc(a, b) - want) for a, b, want in tied)
    elapsed = time.perf_counter() - start
    ok = worst_free <= 5e-4 and worst_tied <= 0.01 and elapsed < 1.0
    report(1, ok, f"tie-free err {worst_free:.2e}, tied err "
                  f"{worst_tied:.2e}, {elapsed:.3f}s")


def test_criterion_2_rank_pipeline_reproduction():
    start = time.perf_counter()
    out = combine_partial_ranks(
        bm.CAT1_PDPR, bm.CAT2_PDPR_WITH, bm.CAT2_PDPR_WITHOUT,
        bm.CAT3_PDPR, bm.CAT4_PDPR, bm.PSPR1, bm.PSPR2)
    checks = [
        out["sum_case_a"] == bm.SUM_CASE_A,
        out["pdfr_case_a"] == bm.PDFR_CASE_A,
        out["sum_case_c"] == bm.SUM_CASE_C,
        out["pdfr_case_c"] == bm.PDFR_CASE_C,
        out["sum_case_b"] == bm.SUM_CASE_B,
        out["ppfr_case_b"] == bm.PPFR_CASE_B,
        out["sum_case_d"] == bm.SUM_CASE_D,
        out["ppfr_case_d"] == bm.PPFR_CASE_D,
        # tied patterns survive: 43,43 -> rank 10,10 with next rank 12
        out["sum_case_a"][7] == out["sum_case_a"][13] == 43,
        out["pdfr_case_a"][7] == out["pdfr_case_a"][13] == 10,
        11 not in out["pdfr_case_a"] and 12 in out["pdfr_case_a"],
        out["pdfr_case_c"][7] == out["pdfr_case_c"][9] == 11,
        13 in out["pdfr_case_c"],
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    report(2, ok, f"{sum(checks)}/{len(checks)} tables exact, {elapsed:.3f}s")


def test_criterion_3_glcm_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    radii = (1, 2, 3)
    mismatches = 0
    for trial in range(100):
        gl = (4, 8)[trial % 2]
        labels = rng.integers(0, gl, size=(16, 16))
        got = tims_glcm(labels, radii, gl=gl).counts
        want = oracle_counts(labels, radii, gl)
        if not np.array_equal(got, want):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(3, ok, f"{mismatches} mismatching planes of 100, {elapsed:.2f}s")


def test_criterion_4_metric_invariants():
    rng = np.random.default_rng(99)
    tol = 1e-9
    a = MultibandImage(np.moveaxis(rng.random((32, 32, 4)), 2, 0))
    b = MultibandImage(np.moveaxis(rng.random((32, 32, 4)), 2, 0))
    checks = []

    # SAM: zero on identity, scale invariance
    checks.append(abs(sam_mean(a, a)) <= 1e-6)
    checks.append(abs(sam_mean(a, b)
                      - sam_mean(a, MultibandImage(2.5 * b.planes)))
                  <= tol)
    # ERGAS: zero on identity, residual linearity
    checks.append(ergas(a, a, 4) == 0.0)
    resid = np.moveaxis(0.01 * rng.standard_normal((32, 32, 4)), 2, 0)
    e1 = ergas(a, MultibandImage(a.planes + resid), 4)
    e3 = ergas(a, MultibandImage(a.planes + 3.0 * resid), 4)
    checks.append(abs(e3 - 3.0 * e1) <= tol * max(1.0, e3))
    # Q: one on identity, symmetry
    x, y = rng.random((16, 16)), rng.random((16, 16))
    checks.append(abs(q_index(x, x) - 1.0) <= tol)
    checks.append(abs(q_index(x, y) - q_index(y, x)) <= tol)
    # Q4: one on identity, bounded
    checks.append(abs(q4(a, a) - 1.0) <= tol)
    checks.append(all(
        0.0 <= q4(MultibandImage(np.moveaxis(rng.random((8, 8, 4)), 2, 0)),
                  MultibandImage(np.moveaxis(rng.random((8, 8, 4)), 2, 0)))
        <= 1.0 for _ in range(20)))
    # QNR: exactly one under the zero-distortion construction
    bl = 2
    ms = MultibandImage(np.repeat(np.repeat(
        np.moveaxis(rng.random((4, 4, 4)), 2, 0), bl, axis=1), bl, axis=2))
    pan_l = np.repeat(np.repeat(rng.random((4, 4)), bl, axis=0), bl, axis=1)
    fused = collect(upsample(ms, 4, "nearest"))
    pan_h = np.repeat(np.repeat(pan_l, 4, axis=0), 4, axis=1)
    value, d_lambda, d_s = qnr(ms, fused, pan_image(pan_h),
                               pan_image(pan_l), block_size=2)
    checks.append(abs(value - 1.0) <= tol and abs(d_lambda) <= tol
                  and abs(d_s) <= tol)
    # entropy bounds
    bands = [rng.random(200) for _ in range(20)]
    checks.append(all(0.0 <= summary_stats(
        *centre(band), quantize_gray_levels(band, 32)).entropy_bits <= 5.0
        for band in bands))
    # z-score moments
    z = zscore(rng.random(50))
    checks.append(abs(z.mean()) <= tol and abs(z.std() - 1.0) <= tol)
    # category-sum variance equals the column count T when the
    # standardized columns are exactly orthogonal (Hadamard rows)
    had = np.array([[1, 1, 1, 1, 1, 1, 1, 1],
                    [1, -1, 1, -1, 1, -1, 1, -1],
                    [1, 1, -1, -1, 1, 1, -1, -1],
                    [1, -1, -1, 1, 1, -1, -1, 1],
                    [1, 1, 1, 1, -1, -1, -1, -1],
                    [1, -1, 1, -1, -1, 1, -1, 1]], dtype=np.float64)
    names = ("mean", "std", "skewness", "kurtosis", "entropy")
    records = []
    for i in range(8):
        records.append(QiRecord(
            candidate_id=f"c{i}",
            category1={k: had[1 + j, i] for j, k in enumerate(names)},
            category2={"post_class_change": float(i), "inverse_pcc": 0.5},
            category3={"glcm_contrast": 0.0, "glcm_energy": 0.0,
                       "glcm_lne": 0.0, "cross_aura": 0.0},
            category4={"binary_contour": 0.0},
            process={"wall_seconds": 1.0, "n_free_parameters": 1}))
    total, dropped = category_sum(records, "category1")
    checks.append(dropped == [])
    checks.append(abs(np.var(total) - len(names)) <= tol)

    ok = all(checks)
    report(4, ok, f"{sum(checks)}/{len(checks)} invariants at 1e-9")


def test_criterion_5_end_to_end_dominance(tmp_path):
    start = time.perf_counter()
    ms, pan = synth_scene(seed=42, width=256, height=256)
    ratio = 4
    k_ms = mtf_gaussian_kernel(ratio, DEFAULT_MTF_GAIN_MS)
    k_pan = mtf_gaussian_kernel(ratio, DEFAULT_MTF_GAIN_PAN)
    ms_l = degrade(ms, ratio, k_ms)                       # 64x64 reference
    pan_l = degrade(MultibandImage(pan[None]), ratio, k_pan)
    ms_ll = degrade(ms_l, ratio, k_ms)                    # 16x16 input

    opts = EvalOptions(ratio=ratio)
    reference = image_features(ms_l, opts)
    records = []
    for method in ("pca", "cn", "atwt"):
        # written as `panqa fuse` writes it, and read from disk
        meta = pansharpen(ms_ll, pan_l, FusionConfig(method=method),
                          tmp_path / method)
        records.append(evaluate_candidate(reference,
                                          RasterFile(tmp_path / method), opts,
                                          candidate_id=method, process=meta))
    records.append(evaluate_candidate(reference, ms_l, opts,
                                      candidate_id="oracle"))
    table = aggregate(records)
    oracle = table.candidate_ids.index("oracle")
    elapsed = time.perf_counter() - start
    ok = (table.pdfr_case_a[oracle] == 1 and table.pdfr_case_c[oracle] == 1
          and elapsed < 60.0)
    report(5, ok, f"case A rank {table.pdfr_case_a[oracle]}, case C rank "
                  f"{table.pdfr_case_c[oracle]}, {elapsed:.1f}s")


def test_criterion_6_out_of_scope():
    """The published benchmark's proprietary results are not reproduced.

    Its QuickBird-imagery evaluations relied on commercial fusion
    implementations and purchased satellite data, and its mean-opinion
    scores came from a human observer panel; neither input is available
    here. The seeded property checks of criteria 3-5 substitute for them,
    exercising the same pipeline on synthetic data.
    """
    report(6, True, "proprietary imagery and human MOS panels out of scope")
