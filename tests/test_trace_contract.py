"""The benchmark's span tracer wraps symred functions by name and reads
some arguments by position; these checks keep that contract in the fast
suite instead of only in the benchmark's own self-test."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_functions_exist(layer):
    module = importlib.import_module("symred." + layer)
    missing = [name for name in LAYERS[layer] if not callable(getattr(module, name, None))]
    assert not missing


@pytest.mark.parametrize("qualname", ["jets.sample_points", "analysis.generic_rank"])
def test_hooked_functions_take_plan_second(qualname):
    layer, name = qualname.split(".")
    function = getattr(importlib.import_module("symred." + layer), name)
    assert list(inspect.signature(function).parameters)[1] == "plan"
