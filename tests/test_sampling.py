import os
import random
import subprocess
import sys

import numpy as np
import pytest

import symred
from symred.expr import var
from symred.parser import parse_expression
from symred.sampling import SamplePlan, SamplingError, draw_values, numeric_equiv
from symred.stream import Stream

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


def test_draw_values_returns_a_fresh_dict_per_call():
    plan = SamplePlan()
    a = draw_values(["x", "y"], plan, seed=331, index=2)
    b = draw_values(["x", "y"], plan, seed=331, index=2)
    assert a == b and a is not b
    a["x"] = 99.0
    assert draw_values(["x", "y"], plan, seed=331, index=2) == b


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


def test_sampled_finds_the_opaque_symbols_once_per_call(monkeypatch):
    # stand-ins depend on (symbol, seed) only: one walk per expression
    # serves every seed
    import collections

    import symred.sampling
    from symred.expr import FunctionSymbol, function_symbols
    f, g = FunctionSymbol("f", ("s",)), FunctionSymbol("g", ("s", "r"))
    exprs = [parse_expression("f(x)*y + g(x, y)", {"f": f, "g": g}),
             parse_expression("g(y, x)^2 - x", {"g": g}), parse_expression("x + y")]
    calls = collections.Counter()

    def counted(e):
        calls[e] += 1
        return function_symbols(e)

    monkeypatch.setattr(symred.sampling, "function_symbols", counted)
    plan = SamplePlan(seeds=(3, 5, 8))
    rows = list(symred.sampling.sampled(exprs, plan))
    assert {s.seed for s in rows} == {3, 5, 8}
    assert calls == {e: 1 for e in exprs}


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


def _entropies():
    """2,400 [seed, index] lists: edge-width seeds, point indices 0..300
    and crc32-sized second words, plus a few other lengths."""
    rnd = random.Random(15)
    seeds = [0, 2**32 - 1, 2**32, 2**70, 101, 211, 331]
    out = [[], [0], [2**64 + 5], [1, 2, 3, 4, 5, 6], [2**32 - 1] * 5, [2**200, 7, 2**40]]
    for k in range(2400):
        seed = seeds[k % len(seeds)] if k % 3 else rnd.getrandbits(rnd.choice((8, 32, 64)))
        second = k % 301 if k % 2 else rnd.getrandbits(32)
        out.append([seed, second])
    return out


def test_stream_matches_numpy_default_rng_bit_for_bit():
    for entropy in _entropies():
        for n in range(9):
            assert Stream(entropy).random(n) == \
                np.random.default_rng(entropy).random(n).tolist(), (entropy, n)
        ours, ref = Stream(entropy), np.random.default_rng(entropy)
        for lo, hi in ((-2.0, 2.0), (0.5, 2.0), (0.0, 3.75), (-3.0, -0.5)):
            assert ours.uniform(lo, hi) == float(ref.uniform(lo, hi)), (entropy, lo, hi)
        # the doubles after uniform draws continue the same stream
        assert ours.random(3) == ref.random(3).tolist(), entropy


def test_stream_rejects_negative_entropy_as_numpy_does():
    for entropy in ([-1], [7, -1], [-(2**40), 3]):
        with pytest.raises(ValueError):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError):
            Stream(entropy)


def test_sampling_commands_never_import_numpy_random():
    code = (
        "import sys\n"
        "from symred.cli import main\n"
        "main(['verify', 'builtin:laplace_fo', '--candidate', 'SLE', '--seed', '7'])\n"
        "from symred.models import draw_params\n"
        "draw_params('euler', 3)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(symred.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "PASS" in run.stdout
    assert run.stdout.splitlines()[-1] == "False", run.stdout
