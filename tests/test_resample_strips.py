"""The banded resampler: banded() blocks, and what the operator holds.

Every resampler is a pair of banded matrices cut into blocks of
BLOCK_ROWS output rows, each over the columns of its nonzero weights.
The tests hold upsample()'s blocks equal, bit for bit, to the dense
interpolation matrix that upsample() multiplied before (kept in
test_layout as the reference), check the shape of the blocks banded()
makes for every kind of taps, and bound the memory that degrade() and
upsample() hold.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocks import collect
from panqa.fusion import _B3, _atwt_taps
from panqa.raster import MultibandImage, RasterFile, save_image
from panqa.resample import (BLOCK_ROWS, _interp_blocks, degrade,
                            filter_blocks, mtf_gaussian_kernel, upsample)
from test_layout import interp_matrix, traced_peak
from test_resample import dilated


def dense_blocks(mat):
    """mat cut into blocks of BLOCK_ROWS rows over the range of columns
    of their nonzero weights, as upsample() cut its dense matrices."""
    blocks = []
    for r0 in range(0, mat.shape[0], BLOCK_ROWS):
        rows = slice(r0, min(r0 + BLOCK_ROWS, mat.shape[0]))
        nonzero = np.flatnonzero(mat[rows].any(axis=0))
        cols = slice(nonzero[0], nonzero[-1] + 1)
        blocks.append((rows, cols, mat[rows, cols]))
    return blocks


@pytest.mark.parametrize("n, ratio", [(1, 4), (7, 3), (16, 4), (63, 2),
                                      (100, 5), (256, 4), (1024, 4)])
@pytest.mark.parametrize("method", ["nearest", "bilinear", "bicubic"])
def test_interp_blocks_equal_dense_matrix(n, ratio, method):
    got = _interp_blocks(n, ratio, method)
    want = dense_blocks(interp_matrix(n, ratio, method))
    assert [b[:2] for b in got] == [b[:2] for b in want]
    for (_, _, w), (_, _, ref) in zip(got, want):
        assert w.flags.c_contiguous and np.array_equal(w, ref)


@pytest.mark.parametrize("method", ["bilinear", "bicubic"])
@pytest.mark.parametrize("ratio", [2, 3, 4, 5])
def test_upsample_banded_matches_dense_product(rng, ratio, method):
    # odd sizes whose upsampled axes span 3 or more blocks of 64 rows
    h, w = 131 // ratio + 2, 131 // ratio + 5
    img = MultibandImage(np.moveaxis(rng.standard_normal((h, w, 2)), 2, 0))
    my = interp_matrix(h, ratio, method)
    mx = interp_matrix(w, ratio, method)
    assert min(len(_interp_blocks(h, ratio, method)),
               len(_interp_blocks(w, ratio, method))) >= 3
    up = collect(upsample(img, ratio, method))
    eps = np.finfo(np.float64).eps
    for b in range(img.bands):
        x = img.band(b)
        # each output sums at most 4 nonzero products per axis, so either
        # evaluation lies within 2 * 4 * eps/2 * S of the exact value,
        # S = |my| @ |x| @ |mx|.T: they differ by at most 8 * eps * S
        bound = 8 * eps * (np.abs(my) @ np.abs(x) @ np.abs(mx).T)
        assert np.all(np.abs(up.band(b) - my @ x @ mx.T) <= bound)


@st.composite
def axes(draw):
    """(blocks, n_out) of one axis of a degrade, an a-trous smoothing or
    an upsample, and the bound on its rows' distance from a sum of 1."""
    kind = draw(st.sampled_from(["degrade", "atwt", "nearest", "bilinear",
                                 "bicubic"]))
    ratio = draw(st.integers(1, 8))
    if kind == "degrade":
        n = ratio * draw(st.integers(1, 40))
        # Gaussian taps sum to 1 within a few ulps, and a row adds the
        # weights that mirror onto one sample: 8.9e-16 at most in 20,000
        # random draws
        taps = mtf_gaussian_kernel(ratio, draw(st.floats(0.05, 0.95)))
        return filter_blocks(n, taps, ratio), n // ratio, 2e-15
    n = draw(st.integers(1, 300))
    # B3 weights are multiples of 1/16: their composites and their sums
    # are exact
    if kind == "atwt":
        return filter_blocks(n, _atwt_taps(draw(st.integers(1, 4)))), n, 0.0
    # the Keys weights of one output sum to 1 only within 1.8e-15 (at
    # ratio 7), from their own cubic polynomials' rounding
    return _interp_blocks(n, ratio, kind), n * ratio, 2e-15


@settings(max_examples=300, deadline=None)
@given(axis=axes())
def test_banded_blocks_tile_rows_over_nonzero_span(axis):
    blocks, n_out, bound = axis
    stop = 0
    for rows, cols, weights in blocks:
        # the blocks tile [0, n_out) in order, BLOCK_ROWS rows but the last
        assert rows.start == stop
        assert rows.stop - stop == min(BLOCK_ROWS, n_out - stop)
        assert weights.shape == (rows.stop - stop, cols.stop - cols.start)
        # cols is exactly the span of the block's nonzero weights
        assert weights[:, 0].any() and weights[:, -1].any()
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= bound)
        stop = rows.stop
    assert stop == n_out


@pytest.mark.parametrize("taps, step, keep", [
    (_B3, 2, slice(None)),                               # a-trous level
    (mtf_gaussian_kernel(4, 0.15), 1, slice(1, None, 4)),  # PAN degrade
    (mtf_gaussian_kernel(8, 0.3), 1, slice(3, None, 8)),   # MS degrades,
    (mtf_gaussian_kernel(16, 0.3), 1, slice(7, None, 16)),  # longer taps
])
def test_mirror_filter_footprint(rng, taps, step, keep):
    # the mirror filter of taps step samples apart that keeps the samples
    # of keep, that is degrade() at keep's step, on a 2048^2 plane
    n, ratio = 2048, keep.step or 1
    taps = dilated(taps, step)
    img = MultibandImage(rng.random((1, n, n)))
    out, peak = traced_peak(degrade, img, ratio, taps)
    # beside the output: the rows one block of BLOCK_ROWS output rows
    # reads, its product and the block buffer, and each axis's banded
    # blocks, at most span columns for each output (5.2 MB of 5.6 for the
    # a-trous level, 3.5 MB for the degrades); nothing grows with the
    # plane's height, and a whole plane (32 MiB) would not fit
    span = min(n, (BLOCK_ROWS - 1) * ratio + len(taps))
    bound = (span + 2 * BLOCK_ROWS) * n * 8 + 2 * (n // ratio) * span * 8
    assert bound < n * n * 8
    assert peak < out.planes.nbytes + bound


def test_degrade_holds_no_input_band(tmp_path, rng):
    # a 1024^2 f32 band on disk, degraded by 4 with the MS Gaussian, is
    # read a block of rows at a time: 4.8 MiB at its peak, with the
    # output. Reading it whole through band(b) took 12.5 MiB, beyond
    # one float64 band (8 MiB)
    save_image(MultibandImage(rng.random((1, 1024, 1024))), tmp_path / "b")
    img = RasterFile(tmp_path / "b")
    _, peak = traced_peak(degrade, img, 4)
    assert peak < 1024 * 1024 * 8, peak / 2**20


def test_upsample_builds_no_dense_matrix(rng):
    # the first block of a 4x bicubic upsample of a 16 x 1024 band: its
    # (64, 4096) buffer (2 MiB), the x-axis blocks and one product, 3.2
    # MiB. With the dense (4096, 1024) x-axis matrix it took 32.7 MiB
    img = MultibandImage(rng.random((1, 16, 1024)))
    _, peak = traced_peak(next, upsample(img, 4, "bicubic"))
    assert peak < 8 * 2**20, peak / 2**20
