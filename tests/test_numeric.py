"""Evaluation semantics, the batched walk against Python's complex
arithmetic, and the series Bessel against mpmath."""

import cmath
import math
import zlib
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import symred.numeric
from helpers import VARS, random_expression
from symred.expr import (
    I,
    Constant,
    FunctionSymbol,
    Power,
    Product,
    Sum,
    Variable,
    apply_symbol,
    besseli,
    con,
    div,
    exp,
    ln,
    mul,
    normalize,
    pow_,
    sqrt,
    var,
)
from symred.numeric import (
    Binding,
    PointRejected,
    bessel_i,
    evaluate,
    instantiate_functions,
    substitute_functions,
)
from symred.sampling import SamplePlan, numeric_equiv, sampled

x = var("x")


def test_bessel_reference_value():
    # I_0(1), quoted to the last ulp
    assert bessel_i(Fraction(0), 1.0) == 1.2660658777520084


def test_bessel_against_mpmath():
    mpmath.mp.dps = 30
    rng = np.random.default_rng(5)
    for _ in range(60):
        nu = Fraction(int(rng.integers(-11, 12)), 6)
        arg = float(rng.uniform(0.05, 8.0))
        mine = bessel_i(nu, arg)
        ref = complex(mpmath.besseli(float(nu), arg))
        assert mine == pytest.approx(ref, rel=1e-12), (nu, arg)


def test_bessel_recurrence():
    # I_{nu-1}(t) - I_{nu+1}(t) = (2 nu / t) I_nu(t)
    for nu in (Fraction(1, 6), Fraction(5, 6), Fraction(-1, 6)):
        for t in (0.3, 0.9, 2.4):
            lhs = bessel_i(nu - 1, t) - bessel_i(nu + 1, t)
            rhs = 2 * float(nu) / t * bessel_i(nu, t)
            assert abs(lhs - rhs) < 1e-9


def test_bessel_order_past_the_gamma_range_is_an_error():
    from symred.numeric import EvaluationError
    e = besseli(Fraction(200), x)
    with pytest.raises(EvaluationError, match="besseli order 200"):
        evaluate(e, Binding({"x": np.array([0.5, 1.0])}))


@pytest.mark.parametrize("z, real_domain", [(1e-200 + 1e-200j, False), (1e-200, True)])
def test_bessel_overflowing_first_term_is_rejected(z, real_domain):
    # (z/2)^nu overflows for a tiny z and a negative non-integer order
    with pytest.raises(PointRejected, match="besseli term overflows"):
        bessel_i(Fraction(-5, 2), z, real_domain=real_domain)


def test_singularity_rejected():
    with pytest.raises(PointRejected):
        evaluate(div(con(1), x), Binding({"x": 0.0}))


def test_negative_radicand_rejected_in_real_mode():
    e = sqrt(x)
    with pytest.raises(PointRejected):
        evaluate(e, Binding({"x": -1.0}), real_domain=True)
    # complex mode takes the principal branch instead
    assert evaluate(e, Binding({"x": -1.0})) == pytest.approx(1j)


def test_negative_zero_imaginary_part_takes_the_principal_branch():
    # 1/(-2+0j) is -0.5-0j; its square root is still the principal +0.707i
    inverse_root = Power(Power(x, Fraction(-1)), Fraction(1, 2))
    assert evaluate(inverse_root, Binding({"x": -2.0})) == \
        pytest.approx(1j * math.sqrt(0.5))
    assert evaluate(ln(Power(x, Fraction(-1))), Binding({"x": -2.0})) == \
        pytest.approx(cmath.log(-0.5))
    # z/2 already reads a negative real z's -0.0 as +0.0; z*0.5 would not
    assert bessel_i(Fraction(1, 3), complex(-1.0, -0.0)) == bessel_i(Fraction(1, 3), -1 + 0j)
    # so a tree and its normal form agree on a complex plan
    y = var("y")
    tree = Power(Product((Power(con(-1), Fraction(-1)), y)), Fraction(3, 2))
    assert numeric_equiv(tree, normalize(tree), SamplePlan(allow_complex=True))


def test_log_domain():
    with pytest.raises(PointRejected):
        evaluate(ln(x), Binding({"x": -2.0}), real_domain=True)
    assert evaluate(ln(x), Binding({"x": math.e})) == pytest.approx(1.0)


def test_fractional_power_of_negative_base_real_mode():
    with pytest.raises(PointRejected):
        evaluate(pow_(x, Fraction(1, 2)), Binding({"x": -4.0}), real_domain=True)


def test_unbound_variable_is_an_error():
    from symred.numeric import EvaluationError
    with pytest.raises(EvaluationError):
        evaluate(x, Binding({}))


def test_instantiate_functions_deterministic():
    f = FunctionSymbol("f", ("s", "r"))
    e = apply_symbol(f, x, con(2))
    _, t1 = instantiate_functions(e, seed=42)
    _, t2 = instantiate_functions(e, seed=42)
    assert t1[f] == t2[f]
    _, t3 = instantiate_functions(e, seed=43)
    assert t1[f] != t3[f]


def test_random_polynomial_matches_the_construction_driven_by_numpy(monkeypatch):
    symbols = [FunctionSymbol("f", ("s",)), FunctionSymbol("W", ("t",)),
               FunctionSymbol("g", ("s", "r")), FunctionSymbol("F", ("a", "b", "c"))]
    seeds = (0, 1, 7, 101, 211, 331, 2**32 + 3)
    ours = {(s, seed): symred.numeric.random_polynomial(s, seed)
            for s in symbols for seed in seeds}

    def numpy_stream(symbol, seed):
        tag = zlib.crc32(("%s/%d" % (symbol.name, symbol.arity)).encode())
        return np.random.default_rng([seed, tag])

    monkeypatch.setattr(symred.numeric, "_symbol_stream", numpy_stream)
    for (s, seed), poly in ours.items():
        assert symred.numeric.random_polynomial.__wrapped__(s, seed) == poly, (s, seed)


def test_instantiation_differs_per_symbol():
    f = FunctionSymbol("f", ("s",))
    h = FunctionSymbol("h", ("s",))
    e = mul(apply_symbol(f, x), apply_symbol(h, x))
    _, table = instantiate_functions(e, seed=7)
    assert table[f] != table[h]


def test_substitute_functions_applies_formals():
    f = FunctionSymbol("f", ("s",))
    e = apply_symbol(f, mul(con(2), x))
    concrete, table = instantiate_functions(e, seed=1)
    v1 = evaluate(concrete, Binding({"x": 0.4}))
    direct = evaluate(table[f], Binding({"s": 0.8}))
    assert v1 == pytest.approx(direct)
    # substitute_functions with the same table agrees with the rewrite
    again = substitute_functions(e, table)
    assert evaluate(again, Binding({"x": 0.4})) == pytest.approx(v1)


def test_substitute_functions_handles_derivative_applications():
    from symred.expr import differentiate
    f = FunctionSymbol("f", ("s",))
    e = differentiate(apply_symbol(f, mul(x, x)), "x")
    concrete_d, table = instantiate_functions(e, seed=3)
    # chain rule must survive instantiation: d/dx f(x^2) = 2x f'(x^2)
    fd = substitute_functions(apply_symbol(f, mul(x, x)), table)
    h = 1e-6
    at = lambda vx: evaluate(fd, Binding({"x": vx}))
    approx = (at(0.9 + h) - at(0.9 - h)) / (2 * h)
    exact = evaluate(concrete_d, Binding({"x": 0.9}))
    assert exact == pytest.approx(approx, rel=1e-6)


def test_exp_of_imaginary_argument():
    from symred.expr import I
    e = exp(mul(I, x))
    v = evaluate(e, Binding({"x": math.pi}))
    assert v == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# the batched walk, bit for bit

def _bits(z):
    return float.hex(z.real), float.hex(z.imag)


def _one_point(e, values, **guards):
    try:
        return _bits(evaluate(e, Binding(values), **guards))
    except PointRejected:
        return None


def _batch(e, points, **guards):
    """Bits per point of one batched evaluation; None where rejected."""
    columns = {name: np.array([p[name] for p in points], dtype=complex)
               for name in points[0]}
    try:
        got, rejected = evaluate(e, Binding(columns), **guards), [False] * len(points)
    except PointRejected as r:
        got, rejected = r.values, r.rejected
    return [None if bad else _bits(v) for v, bad in zip(got, rejected)]


def _python(e, values, real_domain, eps):
    """One point in Python complex arithmetic: the bits the walk must
    reproduce, or None where a guard rejects the point."""
    class Rejected(Exception):
        pass

    def real(z):
        return z.imag == 0 or abs(z.imag) <= 1e-14 * abs(z.real)

    def principal(z):
        return complex(z.real, z.imag + 0.0)

    def walk(e):
        if isinstance(e, Constant):
            return complex(e.value)
        if isinstance(e, Variable):
            return complex(values[e.name])
        if isinstance(e, Sum):
            return sum(walk(t) for t in e.terms)
        if isinstance(e, Product):
            out = 1 + 0j
            for f in e.factors:
                out *= walk(f)
            return out
        if isinstance(e, Power):
            base, q = walk(e.base), e.exponent
            if q < 0 and abs(base) <= eps:
                raise Rejected
            if q.denominator == 1:
                return base ** q.numerator
            if not real_domain:
                return principal(base) ** float(q)
            if not real(base) or base.real < 0 or (base.real == 0 and q < 0):
                raise Rejected
            return complex(base.real ** float(q))
        arg = walk(e.arg)
        if e.name == "ln" and (abs(arg) <= eps or real_domain and not (
                real(arg) and arg.real > 0)):
            raise Rejected
        return getattr(cmath, {"ln": "log"}.get(e.name, e.name))(principal(arg))

    try:
        return _bits(walk(e))
    except (Rejected, OverflowError, ZeroDivisionError, ValueError):
        return None


def _points(rng, n):
    """Points over x, y, z: mostly moderate values, some exact zeros and
    some far from 1, so that every guard fires somewhere."""
    def value():
        pick = rng.uniform()
        if pick < 0.05:
            return 0.0
        scale = 10.0 ** int(rng.integers(-3, 4)) if pick < 0.2 else 1.0
        return float(rng.uniform(-3.0, 3.0)) * scale
    return [{name: value() for name in VARS} for _ in range(n)]


@pytest.mark.parametrize("real_domain", (True, False), ids=("real", "complex"))
def test_batch_equals_one_point_walks_and_python_arithmetic(real_domain):
    rng = np.random.default_rng(17 + real_domain)
    guards = dict(real_domain=real_domain)
    outcomes = []
    for _ in range(120):
        e = random_expression(rng, depth=4)
        points = _points(rng, 24)
        got = _batch(e, points, **guards)
        assert got == [_one_point(e, p, **guards) for p in points], e
        assert got == [_python(e, p, real_domain, 1e-6) for p in points], e
        outcomes.extend(g is None for g in got)
    assert 0 < sum(outcomes) < len(outcomes) / 2


# ---------------------------------------------------------------------------
# one binding, many expressions: the subtree memo

def _outcome(e, b, **guards):
    """(values, rejected mask, reason) of one evaluation through b."""
    n = len(b.live)
    try:
        return evaluate(e, b, **guards), [False] * n, None
    except PointRejected as r:
        return r.values, r.rejected, str(r)


def _recurring(rng, pool, depth):
    """A tree whose leaves are drawn from pool, so subtrees recur."""
    if depth == 0 or rng.uniform() < 0.25:
        return pool[rng.integers(0, len(pool))]
    a, b = _recurring(rng, pool, depth - 1), _recurring(rng, pool, depth - 1)
    pick = rng.integers(0, 5)
    return (Sum((a, b)), Product((a, b)), Product((a, Power(b, Fraction(-1)))),
            Power(a, Fraction(1, 2)), exp(Product((con(-1), Product((a, a))))))[pick]


@pytest.mark.parametrize("real_domain", (True, False), ids=("real", "complex"))
def test_shared_binding_matches_fresh_evaluations(real_domain):
    # read as sampled reads: one binding per batch of points, and each
    # evaluation's rejections cleared from its live mask before the next
    rng = np.random.default_rng(29 + real_domain)
    guards = dict(real_domain=real_domain)
    rejections = 0
    for _ in range(40):
        pool = [random_expression(rng, depth=3) for _ in range(5)]
        points = _points(rng, 24)
        columns = {name: np.array([p[name] for p in points], dtype=complex)
                   for name in points[0]}
        live = [True] * len(points)
        shared = Binding(columns, live=live)
        for _ in range(8):
            e = _recurring(rng, pool, 3)
            fresh = _outcome(e, Binding(columns, live=list(live)), **guards)
            got = _outcome(e, shared, **guards)
            assert got[1] == fresh[1], e
            assert got[2] == fresh[2], e
            kept = [ok and not bad for ok, bad in zip(live, fresh[1])]
            assert [_bits(v) for v, ok in zip(got[0], kept) if ok] == \
                [_bits(v) for v, ok in zip(fresh[0], kept) if ok], e
            rejections += sum(fresh[1])
            live[:] = kept
    assert rejections > 0


@pytest.mark.parametrize("real_domain", (True, False), ids=("real", "complex"))
def test_shared_binding_under_masks_of_their_own(real_domain):
    # read as the many-expression readers read: one binding, and each
    # evaluation under a mask of its own, fuller than the last one's
    # rejections left it, or emptier
    rng = np.random.default_rng(31 + real_domain)
    guards = dict(real_domain=real_domain)
    rejections = 0
    for _ in range(40):
        pool = [random_expression(rng, depth=3) for _ in range(5)]
        points = _points(rng, 24)
        columns = {name: [p[name] for p in points] for name in points[0]}
        live = [True] * len(points)
        shared = Binding(columns, live=live)
        for _ in range(8):
            e = _recurring(rng, pool, 3)
            live[:] = (rng.uniform(size=len(points)) < 0.9).tolist()
            mask = list(live)
            fresh = _outcome(e, Binding(columns, live=list(mask)), **guards)
            got = _outcome(e, shared, **guards)
            assert got[1] == fresh[1], e
            assert got[2] == fresh[2], e
            kept = [ok and not bad for ok, bad in zip(mask, fresh[1])]
            assert [_bits(v) for v, ok in zip(got[0], kept) if ok] == \
                [_bits(v) for v, ok in zip(fresh[0], kept) if ok], e
            rejections += sum(fresh[1])
    assert rejections > 0


def test_memo_hit_replays_its_rejection():
    y = var("y")
    pole = div(con(1), x)
    columns = {"x": np.array([1.0, 0.0, 2.0, 0.0], dtype=complex),
               "y": np.array([0.0, 1.0, 1.0, 3.0], dtype=complex)}
    b = Binding(columns, live=[True] * 4)
    want = [False, True, False, True]
    # the caller never clears live: every hit must reject again
    for e in (pole, pole, Sum((pole, y)), Product((y, pole))):
        with pytest.raises(PointRejected) as caught:
            evaluate(e, b)
        assert caught.value.rejected == want
    # a subtree first walked after y's pole cleared point 0 is walked
    # again where that point is still live: exp was not computed there
    shared = Binding(columns, live=[True] * 4)
    inner = Sum((pole, exp(x)))
    with pytest.raises(PointRejected):
        evaluate(Product((div(con(1), y), inner)), shared)
    with pytest.raises(PointRejected) as caught:
        evaluate(inner, shared)
    assert caught.value.rejected == want
    values = caught.value.values
    assert [values[0], values[2]] == [1 + cmath.exp(1), 0.5 + cmath.exp(2)]


def test_shared_bessel_subtree_is_computed_once_per_point_and_seed(monkeypatch):
    calls = []
    real_bessel = symred.numeric.bessel_i

    def counted(order, z, **kw):
        calls.append(z)
        return real_bessel(order, z, **kw)

    monkeypatch.setattr(symred.numeric, "bessel_i", counted)
    y = var("y")
    bessel = besseli(Fraction(1, 3), x)
    exprs = (Product((bessel, y)), Sum((bessel, y)), exp(bessel))
    plan = SamplePlan(box={"x": ((0.5, 2.0),)}, count=10, min_accepted=4, seeds=(3, 5))
    rows = list(sampled(exprs, plan))
    assert len(rows) == 20
    assert len(calls) == 20
    for s in rows:
        xv = s.where["x"]
        assert s.values[2] == cmath.exp(real_bessel(Fraction(1, 3), complex(xv),
                                                    real_domain=True))


def test_imaginary_products_match_python():
    e = mul(I, x, var("y"))
    points = [{"x": 1.5, "y": -0.0}, {"x": -0.0, "y": 2.0}, {"x": 1e308, "y": 3.0},
              {"x": 0.1 + 0.7j, "y": -2.5e-310}, {"x": math.inf, "y": 1.0}]
    want = []
    for p in points:
        out = 1 + 0j
        for f in e.factors:
            out *= 1j if f == I else complex(p[f.name])
        want.append(_bits(out))
    assert _batch(e, points) == want


def test_negative_integer_power_matches_python():
    e = pow_(x, -3)
    values = [0.3, -1.7, 1e-103, 1e120, 0.5 - 2.25j, -0.0 + 1e-5j]
    want = []
    for v in values:
        try:
            want.append(_bits(complex(v) ** -3))
        except (OverflowError, ZeroDivisionError):
            want.append(None)
    assert want[2] is None and want[3] is not None
    assert _batch(e, [{"x": v} for v in values]) == want


def test_fractional_power_of_a_negative_value_in_complex_mode():
    e = pow_(x, Fraction(1, 3))
    values = [-8.0, -0.5, 2.0, -1e-7 + 0j]
    assert _batch(e, [{"x": v} for v in values]) == \
        [_bits(complex(v) ** (1 / 3)) for v in values]
    assert _batch(e, [{"x": v} for v in values], real_domain=True) == \
        [None, None, _bits(complex(2.0 ** (1 / 3))), None]


def test_exp_overflow_rejects_only_its_point():
    values = [1.0, 800.0, -800.0, 709.0]
    assert _batch(exp(x), [{"x": v} for v in values]) == \
        [_bits(cmath.exp(1.0)), None, _bits(cmath.exp(-800.0)), _bits(cmath.exp(709.0))]


def test_bessel_node_is_called_only_at_live_points(monkeypatch):
    calls = []
    real_bessel = symred.numeric.bessel_i

    def counted(order, z, **kw):
        calls.append(z)
        return real_bessel(order, z, **kw)

    monkeypatch.setattr(symred.numeric, "bessel_i", counted)
    nu = Fraction(1, 3)
    e = mul(div(con(1), x), besseli(nu, x))
    values = [1.0, 0.0, 40.0, -2.0, 0.5]
    got = _batch(e, [{"x": v} for v in values], real_domain=True)
    # 0 is a pole of 1/x, so its Bessel factor is never computed; 40 is
    # past the series bound and -2 outside the real domain
    assert calls == [1.0, 40.0, -2.0, 0.5]
    want = [_bits((1 + 0j) * (1 / complex(v))
                  * real_bessel(nu, complex(v), real_domain=True))
            if v in (1.0, 0.5) else None for v in values]
    assert got == want

    # a live mask skips points: they are neither computed nor reported
    calls.clear()
    live = [True, True, False, True, True]
    with pytest.raises(PointRejected) as caught:
        evaluate(e, Binding({"x": np.array(values, dtype=complex)}, live=live),
                 real_domain=True)
    assert calls == [1.0, -2.0, 0.5]
    assert caught.value.rejected == [False, True, False, True, False]
    assert live == [True, True, False, True, True]
