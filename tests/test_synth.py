"""synth scenes: byte-identity, agreement with the broadcast formulation,
and a bound on the working set.

The digests were recorded from the version of synth_scene that built the
Voronoi distances as one (height, width, 12) array; the golden test
compares costs at 1e-12 relative and would miss a one-ulp change in a
scene, so these pin the files themselves.
"""

import hashlib
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from panqa.cli import main
from panqa.synth import _PAN_WEIGHTS, synth_scene

# (seed, width, height): sha256 of ms.json, ms.raw, pan.json, pan.raw
DIGESTS = {
    (0, 128, 128): (
        "9e9bdb8afdf8ee9fede40719811ab9401fc3598c55ab936c71ae391414c6bd0f",
        "50563e59ca4295dfd7f409563d1c17d9c449c355a1dba8953f49c6feeb15bd3c",
        "37f8a02e015f376f1a0e19d33db6518b1d608afcda5a7f7c2cb35d504e76a993",
        "d67fc6b1556c038e0b1a9aa39605b8ff3c1911a5ce5813382b85ff2a101c875d",
    ),
    (1, 128, 128): (
        "9e9bdb8afdf8ee9fede40719811ab9401fc3598c55ab936c71ae391414c6bd0f",
        "5bda81a3d348d883851857cd92528e9044882fffe9c961cdd633d174f0027e11",
        "37f8a02e015f376f1a0e19d33db6518b1d608afcda5a7f7c2cb35d504e76a993",
        "8b986f6012ef08f47967fd85e8a85d7f246e2624c1fab6c8054b3b09b1d20de2",
    ),
    (2, 128, 128): (
        "9e9bdb8afdf8ee9fede40719811ab9401fc3598c55ab936c71ae391414c6bd0f",
        "0ff2f07a6e00244e7da0999afbe647203609476b895a27668115a960a96aa3dc",
        "37f8a02e015f376f1a0e19d33db6518b1d608afcda5a7f7c2cb35d504e76a993",
        "0d0beed41bff4b36e85b77930027c82249f70b498996aab8f661cc8e2f403806",
    ),
    (3, 128, 128): (
        "9e9bdb8afdf8ee9fede40719811ab9401fc3598c55ab936c71ae391414c6bd0f",
        "173153574e1f655d67bc20610b453966147c2ce8293dc15524d65d00e14c5272",
        "37f8a02e015f376f1a0e19d33db6518b1d608afcda5a7f7c2cb35d504e76a993",
        "071247addd26c39f2d72e3482f76413c712c0a89c4b7a5cc0a526acb71f483d2",
    ),
    (0, 4, 4): (
        "9896c9f3c1ce1cbe2344b7c60e42d81c4b6c76fedf12f5695410cb342af89514",
        "3632ca5326bead0d9184fb00f50f118b0ad324da7279c642fccb1bf887538332",
        "334489947bae2d42e46d405fefe00004220f581aa08c035a458c1f7980da35c4",
        "89fe84cc64f8da8a8439eb1fe8e76eadd7b0bac608e315f98b814bd53228947b",
    ),
    (0, 36, 100): (
        "78ec482d0ef659355c70645595438f632a54534f440b65613566080f74f165f8",
        "ee9b31937983b8b1513b697975ffbc5e6b0e4111568ec4850825784038b8628c",
        "73eccc02260218ff6b9c3c5df2ea7d6c0acc85d3dbae435f5abd766f7f4ed796",
        "717451141e319a5d8cd440c89db08545c8b295c8428008fd94f00a8dbe7ee3bb",
    ),
}


def test_synth_files_byte_identical(tmp_path):
    for (seed, width, height), digests in DIGESTS.items():
        assert main(["synth", "--seed", str(seed), "--width", str(width),
                     "--height", str(height), "--out-ms", str(tmp_path / "ms"),
                     "--out-pan", str(tmp_path / "pan")]) == 0
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("ms.json", "ms.raw", "pan.json", "pan.raw"))
        assert got == digests, (seed, width, height)


def broadcast_scene(seed, width, height):
    """The reference formulation: every site's distance at every pixel in
    one (height, width, 12) array, and np.roll for the smoothing."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    yy /= height
    xx /= width
    sites = rng.random((12, 2))
    base_refl = rng.random((12, 4)) * 0.6 + 0.2
    d2 = ((yy[:, :, None] - sites[None, None, :, 0])**2
          + (xx[:, :, None] - sites[None, None, :, 1])**2)
    region = np.argmin(d2, axis=2)
    bands = []
    for b in range(4):
        plane = base_refl[region, b]
        gx, gy = rng.uniform(-0.15, 0.15, size=2)
        plane = plane + gx * xx + gy * yy
        noise = rng.standard_normal((height, width))
        for _ in range(2):
            noise = (noise + np.roll(noise, 1, 0) + np.roll(noise, -1, 0)
                     + np.roll(noise, 1, 1) + np.roll(noise, -1, 1)) / 5.0
        bands.append(plane + 0.05 * noise)
    ms = np.stack(bands, axis=2)
    pan = ms @ _PAN_WEIGHTS + 0.03 * rng.standard_normal((height, width))
    return np.clip(ms, 0.02, 0.98), np.clip(pan, 0.02, 0.98)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 16),
       height=st.integers(1, 16))
def test_synth_matches_broadcast_formulation(seed, width, height):
    width, height = 4 * width, 4 * height
    ms, pan = synth_scene(seed, width, height)
    ms_ref, pan_ref = broadcast_scene(seed, width, height)
    assert np.array_equal(ms.planes, np.moveaxis(ms_ref, 2, 0))
    assert np.array_equal(pan, pan_ref)
    assert ms.band_names == ["b1", "b2", "b3", "b4"]


def test_synth_working_set_bounded():
    # a few (h, w) planes: an image-by-sites temporary would take 12 alone
    plane = 256 * 256 * 8
    tracemalloc.start()
    try:
        synth_scene(0, 256, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * plane, peak / plane
