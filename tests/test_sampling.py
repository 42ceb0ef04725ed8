import numpy as np
import pytest

from symred.expr import var
from symred.parser import parse_expression
from symred.sampling import SamplePlan, SamplingError, draw_values, numeric_equiv

x, y = var("x"), var("y")


def test_draw_values_respects_box():
    plan = SamplePlan(box={"t": ((0.5, 2.0),)})
    for index in range(40):
        values = draw_values(["t", "x"], plan, seed=101, index=index)
        assert 0.5 <= values["t"] <= 2.0
        # default intervals keep a singular-guard gap around zero
        assert 0.5 <= abs(values["x"]) <= 2.0


def test_draw_values_deterministic():
    plan = SamplePlan()
    a = draw_values(["x", "y"], plan, seed=211, index=5)
    b = draw_values(["x", "y"], plan, seed=211, index=5)
    assert a == b
    c = draw_values(["x", "y"], plan, seed=211, index=6)
    assert a != c


def _draw_by_uniform(names, plan, seed, index):
    """Reference draw: one rng.uniform(0, width) call per name."""
    rng = np.random.default_rng([seed, index])
    out = {}
    for name in names:
        intervals = plan.intervals_for(name)
        widths = [hi - lo for lo, hi in intervals]
        u = rng.uniform(0.0, sum(widths))
        out[name] = intervals[-1][1]
        for (lo, hi), w in zip(intervals, widths):
            if u <= w:
                out[name] = lo + u
                break
            u -= w
    return out


def test_draw_values_matches_one_uniform_call_per_name():
    plan = SamplePlan(box={"t": ((0.5, 2.0),), "x": ((-3.0, -1.0), (0.0, 0.25), (1.0, 4.0))})
    names = ["t", "x", "y", "u"]
    for seed in (101, 211, 331, 7):
        for index in range(250):
            assert draw_values(names, plan, seed, index) == \
                _draw_by_uniform(names, plan, seed, index), (seed, index)


def test_multi_interval_box():
    spans = ((-2.0, -1.0), (1.0, 2.0))
    plan = SamplePlan(box={"x": spans})
    seen_neg = seen_pos = False
    for index in range(60):
        v = draw_values(["x"], plan, seed=331, index=index)["x"]
        assert -2 <= v <= -1 or 1 <= v <= 2
        seen_neg |= v < 0
        seen_pos |= v > 0
    assert seen_neg and seen_pos


def test_numeric_equiv_positive():
    e1 = parse_expression("(x + y)^2")
    e2 = parse_expression("x^2 + 2*x*y + y^2")
    assert numeric_equiv(e1, e2)


def test_numeric_equiv_negative():
    assert not numeric_equiv(parse_expression("x^2"), parse_expression("x^2 + 1/10000"))


def test_numeric_equiv_with_opaque_functions():
    # both sides must see the same instantiation of f
    from symred.expr import FunctionSymbol
    f = FunctionSymbol("f", ("s",))
    e1 = parse_expression("f(x)*(x + 1)", {"f": f})
    e2 = parse_expression("f(x)*x + f(x)", {"f": f})
    assert numeric_equiv(e1, e2)
    e3 = parse_expression("f(x)*x - f(x)", {"f": f})
    assert not numeric_equiv(e1, e3)


def test_with_override():
    plan = SamplePlan()
    plan2 = plan.with_(count=14, min_accepted=8, seeds=(9,))
    assert plan2.count == 14 and plan2.seeds == (9,)
    assert plan.count == 20  # original untouched


def test_plan_validates_counts():
    with pytest.raises(ValueError):
        SamplePlan(count=6, min_accepted=12)


def test_starvation_raises():
    # an expression rejected everywhere on the sampled box
    e = parse_expression("(x - x)^(-1)")
    plan = SamplePlan(count=6, min_accepted=6)
    with pytest.raises(SamplingError):
        numeric_equiv(e, e, plan)
