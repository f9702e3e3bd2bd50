"""mirror_filter in strips of rows and upsample through its nonzero band.

mirror_filter fills its output one strip of rows at a time; the hypothesis
test holds it equal, bit for bit, to a copy of the earlier whole-plane
implementation kept here as the reference, with a strip budget small
enough that every plane crosses many strip boundaries. upsample multiplies
blocks of rows of the interpolation matrices over their nonzero columns
only; its test bounds the difference from the dense product.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocks import collect
from panqa import raster
from panqa.fusion import _B3
from panqa.raster import MultibandImage
from panqa.resample import (_interp_matrix, _mirror_indices, _row_blocks,
                            mirror_filter, mtf_gaussian_kernel, upsample)


def pad_once_filter(plane: np.ndarray, taps: np.ndarray, step: int = 1,
                    keep: slice = slice(None)) -> np.ndarray:
    """mirror_filter as it mirror padded each whole axis once and read
    every tap as a strided view of the padded block."""
    anchor = (len(taps) - 1) // 2
    out = plane
    for axis in (0, 1):
        n = out.shape[axis]
        start, stop, stride = keep.indices(n)
        m = len(range(start, stop, stride))
        # padded[i] is the mirrored sample at start - anchor*step + i, so
        # tap t of output k < m reads padded[t*step + k*stride]; with m = 0
        # the span may be negative and every tap slice is empty
        lo = start - anchor * step
        span = (m - 1) * stride + (len(taps) - 1) * step + 1
        padded = np.take(out, _mirror_indices(n, np.arange(lo, lo + span)),
                         axis=axis)
        shape = list(out.shape)
        shape[axis] = m
        acc = np.zeros(shape, dtype=out.dtype)
        index = [slice(None), slice(None)]
        for t, w in enumerate(taps):
            index[axis] = slice(t * step, t * step + m * stride, stride)
            acc += w * padded[tuple(index)]
        out = acc
    return out


@settings(max_examples=200, deadline=None)
@given(plane=st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
           lambda shape: arrays(np.float64, shape,
                                elements=st.floats(-1e3, 1e3))),
       taps=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9),
       step=st.sampled_from([1, 2, 4]),
       start=st.integers(-3, 12) | st.none(),
       stop=st.integers(-3, 45) | st.none(),
       stride=st.integers(1, 5),
       budget=st.integers(1, 2048))
# one output row per strip, and a pad longer than the plane
@example(plane=np.arange(40.0 * 7).reshape(40, 7), taps=[1.0] * 9, step=4,
         start=None, stop=None, stride=1, budget=1)
# keep selects no row, or no column
@example(plane=np.ones((5, 30)), taps=[0.5, 0.5], step=1, start=7,
         stop=None, stride=2, budget=64)
@example(plane=np.ones((30, 5)), taps=[0.5, 0.5], step=1, start=6,
         stop=None, stride=1, budget=64)
def test_mirror_filter_in_strips_equals_pad_once(plane, taps, step, start,
                                                 stop, stride, budget):
    taps = np.array(taps)
    keep = slice(start, stop, stride)
    # budget // (row bytes) rows per strip: 1 to about 3 on these planes
    with mock.patch.object(raster, "STRIP_BYTES", budget):
        got = mirror_filter(plane, taps, step, keep)
    want = pad_once_filter(plane, taps, step, keep)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("as_list", [False, True])
def test_mirror_filter_taps_and_dtypes_as_before(rng, dtype, as_list):
    # each product takes the type of tap times sample, as w * x did
    plane = rng.random((9, 7)).astype(dtype)
    taps = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    taps = taps.tolist() if as_list else taps
    keep = slice(1, None, 2)
    with mock.patch.object(raster, "STRIP_BYTES", 1):
        got = mirror_filter(plane, taps, 2, keep)
    want = pad_once_filter(plane, taps, 2, keep)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("method", ["bilinear", "bicubic"])
@pytest.mark.parametrize("ratio", [2, 3, 4, 5])
def test_upsample_banded_matches_dense_product(rng, ratio, method):
    # odd sizes whose upsampled axes span 3 or more blocks of 64 rows
    h, w = 131 // ratio + 2, 131 // ratio + 5
    img = MultibandImage(np.moveaxis(rng.standard_normal((h, w, 2)), 2, 0))
    my = _interp_matrix(h, ratio, method)
    mx = _interp_matrix(w, ratio, method)
    assert min(len(_row_blocks(my)), len(_row_blocks(mx))) >= 3
    up = collect(upsample(img, ratio, method))
    eps = np.finfo(np.float64).eps
    for b in range(img.bands):
        x = img.band(b)
        # each output sums at most 4 nonzero products per axis, so either
        # evaluation lies within 2 * 4 * eps/2 * S of the exact value,
        # S = |my| @ |x| @ |mx|.T: they differ by at most 8 * eps * S
        bound = 8 * eps * (np.abs(my) @ np.abs(x) @ np.abs(mx).T)
        assert np.all(np.abs(up.band(b) - my @ x @ mx.T) <= bound)


@pytest.mark.parametrize("taps, step, keep", [
    (_B3, 2, slice(None)),                               # a-trous level
    (mtf_gaussian_kernel(4, 0.15), 1, slice(1, None, 4)),  # PAN degrade
    (mtf_gaussian_kernel(8, 0.3), 1, slice(3, None, 8)),   # MS degrades,
    (mtf_gaussian_kernel(16, 0.3), 1, slice(7, None, 16)),  # longer taps
])
def test_mirror_filter_footprint(rng, taps, step, keep):
    n = 1024
    plane = rng.random((n, n))
    tracemalloc.start()
    try:
        out = mirror_filter(plane, taps, step, keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = raster.STRIP_BYTES
    reach = (len(taps) - 1) * step
    # beside the output: the padded strip, its axis-0 sums and the
    # products, and at a border strip a mirrored copy of the input rows
    # it reads, within the budget unless one output row's reach + 1 rows
    # exceed it; nothing grows with the plane's height or the decimation,
    # and a whole padded copy of the plane (8 MiB) would not fit
    bound = 3 * budget + max(budget, (reach + 1) * n * 8) + 64 * 1024
    assert peak < out.nbytes + bound
