"""Expression kernel: builders, normalize, differentiate, printing."""

from fractions import Fraction

import numpy as np
import pytest

from symred.expr import (
    Builtin,
    Constant,
    ExpressionError,
    FunctionSymbol,
    I,
    ONE,
    Power,
    Product,
    Sum,
    Variable,
    ZERO,
    add,
    apply_symbol,
    besseli,
    con,
    cos,
    differentiate,
    div,
    exp,
    free_variables,
    function_symbols,
    ln,
    mul,
    neg,
    normalize,
    pow_,
    sin,
    sqrt,
    substitute,
    to_text,
    var,
)
from symred.numeric import Binding, PointRejected, evaluate

from helpers import VARS, random_expression

x, y, z = var("x"), var("y"), var("z")


def test_constant_folding():
    assert normalize(add(con(2), con(3))) == con(5)
    assert normalize(mul(con(3), x, con(2))) == normalize(mul(con(6), x))
    assert normalize(mul(ZERO, x)) == ZERO
    assert normalize(mul(ONE, x)) == x


def test_rational_arithmetic_is_exact():
    e = normalize(add(con(Fraction(1, 3)), con(Fraction(1, 6))))
    assert e == con(Fraction(1, 2))


def test_no_like_term_collection():
    # normalization is deliberately weak: x - x survives as a Sum
    e = normalize(add(x, neg(x)))
    assert isinstance(e, Sum)
    assert evaluate(e, Binding({"x": 1.7})) == 0


def test_same_base_powers_merge():
    assert normalize(mul(x, pow_(x, -1))) == ONE
    assert normalize(mul(pow_(x, 2), pow_(x, 3))) == normalize(pow_(x, 5))


def test_principal_branch_power_not_merged():
    # (x^2)^(1/2) is |x|, not x; the tree must keep the nesting
    e = normalize(pow_(pow_(x, 2), Fraction(1, 2)))
    assert isinstance(e, Power)
    assert isinstance(e.base, Power)


def test_normalize_idempotent_on_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        e = random_expression(rng, depth=4)
        n1 = normalize(e)
        assert normalize(n1) == n1


def _to_sympy(sp, e):
    if isinstance(e, Constant):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Variable):
        return sp.Symbol(e.name)
    if isinstance(e, Sum):
        return sp.Add(*(_to_sympy(sp, t) for t in e.terms))
    if isinstance(e, Product):
        return sp.Mul(*(_to_sympy(sp, f) for f in e.factors))
    if isinstance(e, Power):
        q = e.exponent
        return sp.Pow(_to_sympy(sp, e.base), sp.Rational(q.numerator, q.denominator))
    if isinstance(e, Builtin) and e.name in ("exp", "ln", "sin", "cos"):
        head = {"exp": sp.exp, "ln": sp.log, "sin": sp.sin, "cos": sp.cos}[e.name]
        return head(_to_sympy(sp, e.arg))
    raise TypeError("no sympy form for %r" % (e,))


def test_differentiate_and_normalize_match_sympy():
    # sympy is an independent oracle, used only here and only if present
    sp = pytest.importorskip("sympy")
    symbols = [sp.Symbol(n) for n in VARS]
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(40):
        e = random_expression(rng, depth=3)
        ref = _to_sympy(sp, e)
        pairs = [(normalize(e), ref)]
        pairs += [(differentiate(e, v), sp.diff(ref, s)) for v, s in zip(VARS, symbols)]
        pairs = [(ours, sp.lambdify(symbols, theirs, modules="cmath"))
                 for ours, theirs in pairs]
        for _ in range(3):
            point = [float(rng.uniform(0.5, 2.0)) * rng.choice((-1, 1)) for _ in VARS]
            for ours, theirs in pairs:
                try:
                    got = evaluate(ours, Binding(dict(zip(VARS, point))), real_domain=True)
                    want = complex(theirs(*point))
                except (PointRejected, OverflowError, ZeroDivisionError, ValueError):
                    continue
                if abs(want) > 1e8:
                    continue
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (to_text(e), to_text(ours))
                compared += 1
    assert compared >= 200


def test_polynomial_derivative():
    assert differentiate(pow_(x, 3), "x") == normalize(mul(con(3), pow_(x, 2)))
    assert differentiate(con(7), "x") == ZERO
    assert differentiate(y, "x") == ZERO


def test_product_and_chain_rules():
    assert differentiate(mul(x, y), "x") == y
    d = differentiate(exp(mul(x, y)), "y")
    b = Binding({"x": 0.3, "y": -1.2})
    import math
    assert evaluate(d, b) == pytest.approx(0.3 * math.exp(0.3 * -1.2), rel=1e-12)


def test_builtin_derivatives():
    assert to_text(differentiate(sin(x), "x")) == "cos(x)"
    assert to_text(differentiate(cos(x), "x")) == "(-1)*sin(x)"
    assert to_text(differentiate(ln(x), "x")) == "x^(-1)"
    assert to_text(differentiate(sqrt(x), "x")) == "(1/2)*x^(-1/2)"


def test_besseli_derivative_recurrence():
    # I_nu' = (I_{nu-1} + I_{nu+1}) / 2
    d = differentiate(besseli(Fraction(1, 6), x), "x")
    assert "besseli(-5/6; x)" in to_text(d)
    assert "besseli(7/6; x)" in to_text(d)


def test_opaque_function_derivative():
    f = FunctionSymbol("f", ("s", "r"))
    e = apply_symbol(f, mul(x, y), z)
    d = differentiate(e, "x")
    assert "d(f, s)" in to_text(d)
    assert free_variables(d) == {"x", "y", "z"}
    assert function_symbols(d) == {f}


def test_imaginary_unit_powers_fold():
    e = normalize(mul(I, I))
    assert e == con(-1)
    b = Binding({})
    assert evaluate(normalize(mul(I, I, I)), b) == pytest.approx(-1j)


def test_substitute():
    e = substitute(mul(x, y), {"x": add(y, con(1))})
    b = Binding({"y": 2.0})
    assert evaluate(e, b) == pytest.approx(6.0)


def test_substitute_leaves_function_applications():
    f = FunctionSymbol("f", ("s",))
    e = apply_symbol(f, x)
    e2 = substitute(e, {"x": y})
    assert free_variables(e2) == {"y"}


def test_to_text_round_trip():
    from symred.parser import parse_expression
    rng = np.random.default_rng(77)
    for _ in range(150):
        e = normalize(random_expression(rng, depth=3))
        text = to_text(e)
        assert parse_expression(text) == e, text


def test_operator_overloads_match_builders():
    assert normalize(x + y) == normalize(add(x, y))
    assert normalize(x * y) == normalize(mul(x, y))
    assert normalize(x / y) == normalize(div(x, y))
    assert normalize(-x) == normalize(neg(x))
    assert normalize(x ** 2) == normalize(pow_(x, 2))


def test_besseli_requires_order():
    with pytest.raises(ExpressionError):
        from symred.expr import Builtin
        Builtin("besseli", x)


def test_function_symbol_needs_arguments():
    with pytest.raises(ExpressionError):
        FunctionSymbol("f", ())
