"""The benchmark's tracer finds panqa functions by (module, name) and
records nothing for a name that is gone, so these names are a contract."""

import ast
import importlib
from pathlib import Path

import numpy as np

from panqa.glcm3 import tims_glcm

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """TARGETS of perfbench/tracer.py, read from its source."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        names = [getattr(t, "id", None)
                 for t in getattr(node, "targets", ())]
        if names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_target_is_a_panqa_callable():
    targets = tracer_targets()
    assert targets
    for mod, fn in targets:
        owner = importlib.import_module(f"panqa.{mod}")
        assert callable(getattr(owner, fn, None)), f"panqa.{mod}.{fn}"


def test_tims_glcm_result_has_total_tuples():
    # the tracer reads total_tuples off each tims_glcm result
    result = tims_glcm(np.zeros((7, 7), dtype=np.int64), gl=4)
    assert result.total_tuples == 24
