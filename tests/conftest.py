import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from panqa.raster import MultibandImage  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def random_image(rng):
    def make(height=16, width=16, bands=4, lo=0.1, hi=0.9):
        samples = rng.uniform(lo, hi, (height, width, bands))
        return MultibandImage(np.moveaxis(samples, 2, 0))
    return make
