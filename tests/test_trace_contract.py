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


def test_a_rejected_point_raises_point_rejected():
    # the tracer marks a span REJECTED only when numeric.evaluate raises
    # PointRejected, so a batch with one rejected point must still raise it
    from symred.expr import con, div, var
    from symred.numeric import Binding, PointRejected, evaluate
    with pytest.raises(PointRejected) as caught:
        evaluate(div(con(1), var("x")), Binding({"x": [1.0, 0.0, 2.0, -1.0]}))
    assert caught.value.rejected == [False, True, False, False]
    assert len(caught.value.values) == 4
