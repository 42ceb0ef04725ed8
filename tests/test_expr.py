"""Expression kernel: builders, normalize, differentiate, printing."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import symred.expr
from symred.expr import (
    Builtin,
    Constant,
    ExpressionError,
    FunctionApp,
    FunctionSymbol,
    I,
    ImaginaryUnit,
    MINUS_ONE,
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
    rewrite,
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


def _full_diff(e, v):
    """The derivative walk without pruning: every subtree is differentiated
    and every zero term is left for normalize to fold.  The oracle for the
    pruned walk in differentiate."""
    if isinstance(e, (Constant, ImaginaryUnit)):
        return ZERO
    if isinstance(e, Variable):
        return ONE if e.name == v else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_full_diff(t, v) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        for i, f in enumerate(e.factors):
            rest = e.factors[:i] + (_full_diff(f, v),) + e.factors[i + 1:]
            terms.append(Product(rest))
        return Sum(tuple(terms)) if terms else ZERO
    if isinstance(e, Power):
        return Product((Constant(e.exponent),
                        Power(e.base, e.exponent - 1),
                        _full_diff(e.base, v)))
    if isinstance(e, Builtin):
        da = _full_diff(e.arg, v)
        if e.name == "exp":
            inner = Builtin("exp", e.arg)
        elif e.name == "ln":
            inner = Power(e.arg, Fraction(-1))
        elif e.name == "sin":
            inner = Builtin("cos", e.arg)
        elif e.name == "cos":
            inner = neg(Builtin("sin", e.arg))
        else:
            inner = Product((Constant(Fraction(1, 2)),
                             Sum((Builtin("besseli", e.arg, e.order - 1),
                                  Builtin("besseli", e.arg, e.order + 1)))))
        return Product((inner, da))
    if isinstance(e, FunctionApp):
        terms = []
        for j, arg in enumerate(e.args):
            da = _full_diff(arg, v)
            if da == ZERO:
                continue
            bumped = tuple(k + (1 if i == j else 0) for i, k in enumerate(e.orders))
            terms.append(Product((FunctionApp(e.symbol, e.args, bumped), da)))
        return Sum(tuple(terms)) if terms else ZERO
    raise TypeError(e)


def _fresh(e):
    """An equal tree of new nodes, none of them marked normal."""
    return rewrite(e, lambda node: None)


def test_pruned_differentiate_matches_the_full_walk():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(300):
        raw = random_expression(rng, depth=4)
        try:
            tree = normalize(raw)
        except ExpressionError:     # an exact zero divisor: nothing to compare
            continue
        # the raw tree, and the normalized one whose marked factors are reused
        for e in (raw, tree):
            for v in ("x", "y", "z", "w"):
                want = normalize(_fresh(_full_diff(_fresh(e), v)))
                got = differentiate(e, v)
                assert got == want, (to_text(e), v)
                assert to_text(got) == to_text(want)
                checked += 1
    assert checked >= 2000


def test_differentiate_by_an_absent_variable_neither_walks_nor_normalizes(monkeypatch):
    e = normalize(mul(exp(x), sin(mul(y, z))))
    def boom(*args):
        raise AssertionError("walked")
    monkeypatch.setattr(symred.expr, "_diff", boom)
    monkeypatch.setattr(symred.expr, "normalize", boom)
    assert differentiate(e, "w") is ZERO


def test_normalize_of_an_unmarked_copy_equals_the_marked_result():
    rng = np.random.default_rng(32)
    builders = (add, mul, lambda a, b: pow_(add(a, b), 3), lambda a, b: exp(mul(a, b)))
    for k in range(200):
        a, b = random_expression(rng, depth=3), random_expression(rng, depth=3)
        try:
            marked = builders[k % 4](normalize(a), normalize(b))
            got = normalize(marked)
        except ExpressionError:
            continue
        want = normalize(_fresh(marked))
        assert got == want and to_text(got) == to_text(want), to_text(marked)
        assert got._normal and normalize(_fresh(got)) == got


_HALF = Fraction(1, 2)


@pytest.mark.parametrize("product, text", [
    # sqrt(x*y)^2 leaves the product x*y beside z
    (mul(sqrt(mul(x, y)), sqrt(mul(x, y)), z), "x*y*z"),
    # i^(1/2)^2 leaves an i beside the folded one
    (mul(pow_(I, _HALF), pow_(I, _HALF), x, I), "(-1)*x"),
    # ((x^(1/2))^(1/2))^2 leaves x^(1/2) beside another power of x
    (mul(pow_(sqrt(x), _HALF), pow_(sqrt(x), _HALF), sqrt(x), y), "x*y"),
    # i^(1/2)^6 leaves i^3 = (-1)*i
    (mul(*[pow_(I, _HALF)] * 6, x), "(-1)*i*x"),
])
def test_merged_powers_are_flattened_and_merged_again(product, text):
    first = normalize(product)
    assert first._normal
    assert not any(isinstance(f, Product) for f in first.factors)
    assert normalize(_fresh(first)) == first
    assert to_text(first) == text
    # nor does a sum or builtin normalize builds around it change again
    for inner in (first, normalize(add(product, y)), normalize(exp(product))):
        outer = mul(con(2), inner)
        assert normalize(outer) == normalize(_fresh(outer))


def test_separately_built_equal_trees_have_equal_hashes():
    for seed in range(20):
        a = random_expression(np.random.default_rng(seed), depth=4)
        b = random_expression(np.random.default_rng(seed), depth=4)
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(_fresh(a))
        try:
            na, nb = normalize(a), normalize(_fresh(b))
        except ExpressionError:
            continue
        assert hash(na) == hash(nb)
    assert hash(MINUS_ONE) == hash(con(-1))


def test_stored_facts_take_no_part_in_identity():
    node_classes = (Constant, ImaginaryUnit, Variable, FunctionApp, Sum, Product, Power, Builtin)
    stored = {"_hash", "_free", "_key", "_normal"}
    for cls in node_classes:
        assert not stored & {f.name for f in dataclasses.fields(cls)}, cls
    a = FunctionSymbol("a", ("x", "y"))
    e = normalize(add(mul(x, pow_(add(y, I), Fraction(1, 2))),
                      exp(apply_symbol(a, x, mul(con(-2), z))),
                      besseli(Fraction(1, 2), sin(x))))
    stack = [e]
    while stack:
        node = stack.pop()
        stack.extend(symred.expr.children(node))
        hash(node), symred.expr._free(node), symred.expr._sort_key(node)
        assert None not in (node._hash, node._free, node._key)
        copy = _fresh(node)
        assert copy == node and node == copy
        assert hash(copy) == hash(node) and to_text(copy) == to_text(node)


def test_free_variables_returns_a_fresh_set():
    e = mul(x, sin(y))
    names = free_variables(e)
    names.add("q")
    names.discard("x")
    assert free_variables(e) == {"x", "y"}
