"""Collecting the blocks of rows that upsample() and the fusers yield."""

import numpy as np

from panqa.raster import MultibandImage


def collect(blocks, band_names=None) -> MultibandImage:
    """The image that blocks of (rows, (bands, r, width) samples) make,
    checking that the rows follow on from each other. Each block is
    copied, as a block may be a buffer refilled for the next."""
    parts, stop = [], 0
    for rows, block in blocks:
        assert rows.start == stop and block.shape[1] == rows.stop - stop
        parts.append(block.copy())
        stop = rows.stop
    return MultibandImage(np.concatenate(parts, axis=1), band_names)
