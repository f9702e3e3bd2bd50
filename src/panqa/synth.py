"""Deterministic synthetic scenes for self-contained evaluation runs.

The generated pair plays the role of an ideal high-resolution truth: a
4-band reflectance image with piecewise regions, smooth gradients and
texture patches, and a panchromatic band formed as a weighted band sum
plus fine texture. All values lie in [0, 1].

How a scene is built, from one seeded generator and in this draw order:
- Regions: 12 random sites partition the unit square (Voronoi). Each
  site's squared distance is the outer sum of two 1-D coordinate
  vectors, and a running minimum keeps the first nearest site, as
  np.argmin would over all sites.
- Bands: each of the 4 bands is its region's base reflectance, plus a
  linear illumination gradient, plus 0.05 times Gaussian noise smoothed
  twice by a wrap-around five-point mean.
- PAN: the weighted band sum (_PAN_WEIGHTS) plus 0.03 times Gaussian
  noise. Bands and PAN are then clipped to [0.02, 0.98].

The working set is a few (height, width) planes: the (4, height, width)
band buffer that the returned image wraps without a copy, two noise
planes, the region map, and for the PAN sum a (height, width, 4) copy of
the bands, so that the sum runs on contiguous pixels (on the strided
view it rounds differently). No array has a dimension of the sites.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .raster import MultibandImage

_PAN_WEIGHTS = np.array([0.15, 0.3, 0.3, 0.25])


def _smooth(noise: np.ndarray, acc: np.ndarray) -> None:
    """acc = the mean of noise and its four wrap-around neighbours, summed
    in the order of np.roll by +1 and -1 rows, then +1 and -1 columns."""
    acc[...] = noise
    acc[1:] += noise[:-1]
    acc[0] += noise[-1]
    acc[:-1] += noise[1:]
    acc[-1] += noise[0]
    acc[:, 1:] += noise[:, :-1]
    acc[:, 0] += noise[:, -1]
    acc[:, :-1] += noise[:, 1:]
    acc[:, -1] += noise[:, 0]
    acc /= 5.0


def synth_scene(seed: int, width: int, height: int
                ) -> tuple[MultibandImage, np.ndarray]:
    """Seeded (ms_truth, pan) pair at the same high resolution."""
    if seed < 0:
        raise InputError(f"seed must be 0 or more, not {seed}")
    for name, n in (("width", width), ("height", height)):
        if n < 1 or n % 4:
            raise InputError(f"{name} must be a positive multiple of 4, "
                             f"not {n}")
    rng = np.random.default_rng(seed)
    yv = np.arange(height, dtype=np.float64) / height
    xv = np.arange(width, dtype=np.float64) / width

    # random piecewise regions from a coarse Voronoi partition
    sites = rng.random((12, 2))
    base_refl = rng.random((12, 4)) * 0.6 + 0.2
    nearest = np.full((height, width), np.inf)
    region = np.zeros((height, width), dtype=np.intp)
    for k, (sy, sx) in enumerate(sites):
        d2 = np.add.outer((yv - sy)**2, (xv - sx)**2)
        region[d2 < nearest] = k
        np.minimum(nearest, d2, out=nearest)
    del nearest, d2

    planes = np.empty((4, height, width))
    noise, acc = np.empty((height, width)), np.empty((height, width))
    for b, plane in enumerate(planes):
        plane[...] = base_refl[region, b]
        # smooth illumination gradient
        gx, gy = rng.uniform(-0.15, 0.15, size=2)
        plane += gx * xv[None, :]
        plane += (gy * yv)[:, None]
        # band-limited texture: smoothed noise
        rng.standard_normal(out=noise)
        _smooth(noise, acc)
        _smooth(acc, noise)
        noise *= 0.05
        plane += noise
    # freed before the PAN sum's (height, width, 4) copy is made
    del region, acc

    pan = np.ascontiguousarray(np.moveaxis(planes, 0, 2)) @ _PAN_WEIGHTS
    rng.standard_normal(out=noise)
    noise *= 0.03
    pan += noise

    lo, hi = 0.02, 0.98
    np.clip(planes, lo, hi, out=planes)
    np.clip(pan, lo, hi, out=pan)
    return MultibandImage(planes, band_names=["b1", "b2", "b3", "b4"]), pan
