"""Evaluation semantics, the batched walk against Python's complex
arithmetic, and the series Bessel against mpmath."""

import cmath
import math
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


def test_singularity_rejected():
    with pytest.raises(PointRejected):
        evaluate(div(con(1), x), Binding({"x": 0.0}), eps_sing=1e-6)


def test_negative_radicand_rejected_in_real_mode():
    e = sqrt(x)
    with pytest.raises(PointRejected):
        evaluate(e, Binding({"x": -1.0}), real_domain=True)
    # complex mode takes the principal branch instead
    assert evaluate(e, Binding({"x": -1.0})) == pytest.approx(1j)


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
    return [None if bad else _bits(v) for v, bad in zip(got.tolist(), rejected)]


def _python(e, values, real_domain, eps):
    """One point in Python complex arithmetic: the bits the walk must
    reproduce, or None where a guard rejects the point."""
    class Rejected(Exception):
        pass

    def real(z):
        return z.imag == 0 or abs(z.imag) <= 1e-14 * abs(z.real)

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
                return base ** float(q)
            if not real(base) or base.real < 0 or (base.real == 0 and q < 0):
                raise Rejected
            return complex(base.real ** float(q))
        arg = walk(e.arg)
        if e.name == "ln" and (abs(arg) <= eps or real_domain and not (
                real(arg) and arg.real > 0)):
            raise Rejected
        return getattr(cmath, {"ln": "log"}.get(e.name, e.name))(arg)

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
    guards = dict(eps_sing=1e-6, real_domain=real_domain)
    outcomes = []
    for _ in range(120):
        e = random_expression(rng, depth=4)
        points = _points(rng, 24)
        got = _batch(e, points, **guards)
        assert got == [_one_point(e, p, **guards) for p in points], e
        assert got == [_python(e, p, real_domain, 1e-6) for p in points], e
        outcomes.extend(g is None for g in got)
    assert 0 < sum(outcomes) < len(outcomes) / 2


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
    got = _batch(e, [{"x": v} for v in values], eps_sing=1e-6, real_domain=True)
    # 0 is a pole of 1/x, so its Bessel factor is never computed; 40 is
    # past the series bound and -2 outside the real domain
    assert calls == [1.0, 40.0, -2.0, 0.5]
    want = [_bits((1 + 0j) * (1 / complex(v))
                  * real_bessel(nu, complex(v), real_domain=True))
            if v in (1.0, 0.5) else None for v in values]
    assert got == want

    # a live mask skips points: they are neither computed nor reported
    calls.clear()
    live = np.array([True, True, False, True, True])
    with pytest.raises(PointRejected) as caught:
        evaluate(e, Binding({"x": np.array(values, dtype=complex)}, live=live),
                 eps_sing=1e-6, real_domain=True)
    assert calls == [1.0, -2.0, 0.5]
    assert caught.value.rejected.tolist() == [False, True, False, True, False]
    assert live.tolist() == [True, True, False, True, True]
