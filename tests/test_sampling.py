import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import symred
from symred.expr import Constant, Power, var
from symred.parser import parse_expression
from symred.sampling import SamplePlan, SamplingError, draw_values, numeric_equiv, sampled
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


def test_a_reading_with_nothing_drawn_holds_at_every_point():
    plan = SamplePlan(count=6, min_accepted=4, seeds=(3, 5))
    rows = list(sampled([parse_expression("2*3")], plan))
    assert [(s.seed, s.index, s.values) for s in rows] == \
        [(seed, k, (6,)) for seed in (3, 5) for k in range(6)]
    # a constant rejected in the real domain is rejected at every point
    root = Power(Constant(Fraction(-2)), Fraction(1, 2))
    with pytest.raises(SamplingError, match=r"^seed 3: matrix kept 0 of 6 points \(need 4\)$"):
        list(sampled([root, parse_expression("1")], plan, label="matrix"))


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


# ---------------------------------------------------------------------------
# the column draw and its streams

def test_draw_columns_equal_draw_values_and_the_numpy_draw():
    from symred.sampling import draw_columns
    unions = {"a": ((0.5, 2.0),),
              "b": ((-2.0, -0.5), (0.5, 2.0)),
              "c": ((-3.0, -1.0), (0.0, 0.25), (1.0, 4.0))}
    plan = SamplePlan(box=unions)
    names = ["c", "a", "u", "b"]
    for seed in (101, 7, 2**32, 2**32 + 5, 2**40 + 3):
        indices = range(60)
        columns = draw_columns(names, plan, seed, indices)
        assert list(columns) == names
        for k, index in enumerate(indices):
            point = {name: column[k] for name, column in columns.items()}
            assert point == draw_values(names, plan, seed, index), (seed, index)
            assert point == _draw_by_uniform(names, plan, seed, index), (seed, index)
        # fewer names read a prefix of the same point's doubles
        assert draw_columns(names[:2], plan, seed, indices) == \
            {name: columns[name] for name in names[:2]}


def test_draw_columns_fall_back_to_the_last_upper_end(monkeypatch):
    # u = (1 - 2**-53) * width is past the three widths once they are
    # taken off one at a time: the draw lands on the union's upper end
    import symred.sampling
    from symred.sampling import draw_columns
    union = ((-1.0, -0.6666666666666666), (-0.6623861681325729, 0.4455902681678299),
             (0.6666666666666666, 0.7563913849318169))
    plan = SamplePlan(box={"x": union, "y": ((0.0, 1.0),)})

    class Nearly1:
        def __init__(self, entropy):
            pass

        def random(self, n):
            return [1 - 2**-53] * n

    symred.sampling._stream.cache_clear()
    monkeypatch.setattr(symred.sampling, "Stream", Nearly1)
    try:
        columns = draw_columns(["x", "y"], plan, 5, range(3))
        assert columns == {"x": [union[-1][1]] * 3, "y": [1 - 2**-53] * 3}
        assert draw_values(["x", "y"], plan, 5, 1) == {"x": union[-1][1], "y": 1 - 2**-53}
    finally:
        symred.sampling._stream.cache_clear()


def test_classify_builds_one_stream_per_point(monkeypatch):
    # Xi1 and Q|c draw the same points for different name counts; each
    # (seed, index) is seeded once and the shorter draws read its prefix
    import collections
    import contextlib
    import io

    import symred.sampling
    from symred.cli import main
    built = collections.Counter()
    real = symred.sampling.Stream

    def counted(entropy):
        built[tuple(entropy)] += 1
        return real(entropy)

    symred.sampling._stream.cache_clear()
    monkeypatch.setattr(symred.sampling, "Stream", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["classify", "builtin:navier_stokes", "--algebra", "rot3",
                     "--candidate", "Sl1", "--samples", "100"])
    assert code == 0
    assert len(built) == 300
    assert set(built.values()) == {1}


# ---------------------------------------------------------------------------
# one pass, many expressions: each keeps its own rejections

def _one_at_a_time(exprs, points, plan, labels=None):
    """Each expression's (peak, where, rejected) or its error text, read
    by a sampled pass of its own, as the readers did before sharing one;
    box draws, when points is None, are of the free variables of exprs."""
    from symred.expr import free_variables
    from symred.sampling import sampled
    names = sorted(set().union(*map(free_variables, exprs)))
    every = ([(seed, k) for seed in plan.seeds for k in range(plan.count)]
             if points is None else [(p.seed, p.index) for p in points])
    out = []
    for k, e in enumerate(exprs):
        peak, where, seen = 0.0, None, set()
        try:
            for s in sampled((e,), plan, names=names, points=points,
                             label=labels[k] if labels else "expression"):
                seen.add((s.seed, s.index))
                if abs(s.values[0]) > peak:
                    peak, where = abs(s.values[0]), s.where
        except SamplingError as exc:
            out.append(str(exc))
            continue
        out.append((peak, where, tuple(p for p in every if p not in seen)))
    return out


def _read_together(exprs, points, plan, labels=None):
    """peaks' readings, up to and including the first error."""
    from symred.sampling import peaks
    out = []
    try:
        for peak in peaks(exprs, plan, points=points, labels=labels):
            out.append(tuple(peak))
    except SamplingError as exc:
        out.append(str(exc))
    return out


def _up_to_first_error(readings):
    k = next((k for k, r in enumerate(readings) if isinstance(r, str)), len(readings))
    return readings[:k + 1]


def _jet_points(plan, names, where=None):
    """Box draws of names as jet points with no slots, or the points
    where[seed] gives, a list of {name: value} per seed."""
    from symred.jets import JetPoint
    from symred.sampling import draw_columns
    out = []
    for seed in plan.seeds:
        if where is None:
            columns = draw_columns(names, plan, seed, range(plan.count))
            rows = [{name: columns[name][k] for name in names} for k in range(plan.count)]
        else:
            rows = where[seed]
        out += [JetPoint(row, {}, seed, k) for k, row in enumerate(rows)]
    return out


def test_one_pass_reads_each_expression_as_its_own_pass():
    from helpers import random_expression
    # x straddles the real-domain guards (negative radicands, ln of a
    # non-positive value) and y the poles of 1/y, as root_domain.sr's
    # x straddles the guard of x^(1/2)
    plan = SamplePlan(box={"x": ((-0.25, 2.0),), "y": ((-1.0, 1.0),)},
                      count=16, min_accepted=4, seeds=(3, 2**33 + 1))
    points = _jet_points(plan, ["x", "y", "z"])
    rng = np.random.default_rng(23)
    rejected = starved = 0
    for _ in range(80):
        exprs = [random_expression(rng, depth=3) for _ in range(4)]
        for at in (points, None):
            want = _one_at_a_time(exprs, at, plan)
            assert _read_together(exprs, at, plan) == _up_to_first_error(want)
            rejected += sum(len(w[2]) for w in want if not isinstance(w, str))
            starved += any(isinstance(w, str) for w in want)
    assert rejected > 0 and starved > 0


def test_one_expression_keeps_a_point_another_rejects():
    from symred.sampling import peaks
    plan = SamplePlan(box={"x": ((-0.25, 2.0),)}, count=12, min_accepted=4, seeds=(5,))
    root, line = parse_expression("x^(1/2)"), parse_expression("x + 1")
    points = _jet_points(plan, ["x"])
    # the root, read first, rejects x < 0; the line, read after it
    # through the same binding, must still see those points
    got = list(peaks([root, line], plan, points=points))
    negative = tuple((5, p.index) for p in points if p.base["x"] < 0)
    assert negative and got[0].rejected == negative and got[1].rejected == ()
    assert got[1].value == max(abs(p.base["x"] + 1) for p in points)
    assert [tuple(g) for g in got] == _one_at_a_time([root, line], points, plan)


def test_the_first_expression_to_starve_raises_at_its_first_starving_seed():
    # seed 1's points all sit on the pole of 1/(x - 1); seed 2's all have
    # x < 0, outside the real domain of x^(1/2)
    plan = SamplePlan(count=6, min_accepted=4, seeds=(1, 2))
    where = {1: [{"x": 1.0}] * 6, 2: [{"x": -0.5 - 0.1 * k} for k in range(6)]}
    points = _jet_points(plan, ["x"], where)
    root, pole, line = (parse_expression(t) for t in ("x^(1/2)", "(x - 1)^(-1)", "x"))
    # only the later expression starves: the earlier one is read first
    pair = ["equation line", "equation pole"]
    got = _read_together([line, pole], points, plan, pair)
    assert got == _up_to_first_error(_one_at_a_time([line, pole], points, plan, pair))
    assert got == [(1.0, points[0], ()), "seed 1: equation pole kept 0 of 6 points (need 4)"]
    # both starve, the later one at an earlier seed: the earlier one's
    # error, at its own first starving seed, is raised
    pair = ["equation root", "equation pole"]
    want = _one_at_a_time([root, pole], points, plan, pair)
    assert want == ["seed 2: equation root kept 0 of 6 points (need 4)",
                    "seed 1: equation pole kept 0 of 6 points (need 4)"]
    assert _read_together([root, pole], points, plan, pair) == want[:1]
