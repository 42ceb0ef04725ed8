"""Property tests of the expression kernel over generated trees.

The trees carry what `helpers.random_expression` never builds:
fractional powers of products, powers of powers, i, besseli and opaque
function applications, and products of one factor repeated, so equal
bases merge inside `normalize`.  Runs are derandomized: every run tries
the same examples.
"""

from fractions import Fraction

import pytest

from symred.expr import (
    Expression,
    ExpressionError,
    FunctionSymbol,
    I,
    Product,
    Sum,
    add,
    apply_symbol,
    besseli,
    children,
    con,
    cos,
    differentiate,
    exp,
    ln,
    mul,
    normalize,
    pow_,
    rewrite,
    sin,
    substitute,
    to_text,
    var,
)
from symred.expr import _sort_key
from symred.parser import parse_expression
from symred.sampling import SamplePlan, SamplingError, numeric_equiv

from helpers import recursive_sort_key

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

A = FunctionSymbol("a", ("x", "y"))
EXPONENTS = [Fraction(q) for q in ("-1", "2", "3", "1/2", "-1/2", "1/3", "2/3", "3/2")]

leaves = st.one_of(
    st.sampled_from([var("x"), var("y"), var("z"), I]),
    st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]).map(con),
)


def _grow(inner):
    return st.one_of(
        st.builds(add, inner, inner),
        st.builds(mul, inner, inner),
        st.builds(pow_, inner, st.sampled_from(EXPONENTS)),
        # one factor repeated: its powers merge
        st.builds(lambda f, k: mul(*[f] * k), inner, st.integers(2, 6)),
        # f^q * f^(1-q) merges to a bare f, which, as a product, power
        # or i, is flattened and merged again with f and g
        st.builds(lambda f, q, g: mul(pow_(f, q), pow_(f, 1 - q), f, g),
                  inner, st.sampled_from(EXPONENTS), inner),
        st.builds(lambda g, f: g(f), st.sampled_from([exp, ln, sin, cos]), inner),
        st.builds(besseli, st.sampled_from([Fraction(1, 2), Fraction(3, 2)]), inner),
        st.builds(lambda f, g: apply_symbol(A, f, g), inner, inner),
    )


trees = st.recursive(leaves, _grow, max_leaves=12)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _fresh(e: Expression) -> Expression:
    """An equal tree of new nodes, none of them marked normal."""
    return rewrite(e, lambda node: None)


def _normal_or_none(e: Expression) -> Expression | None:
    try:
        return normalize(e)
    except ExpressionError:     # an exact zero divisor
        return None


def _nodes(e: Expression):
    yield e
    for c in children(e):
        yield from _nodes(c)


@SETTINGS
@given(trees)
def test_normalize_marks_a_fixed_point(e):
    n = _normal_or_none(e)
    if n is None:
        return
    assert all(node._normal for node in _nodes(n)), to_text(n)
    again = normalize(_fresh(n))
    assert again == n and to_text(again) == to_text(n)


@SETTINGS
@given(trees)
def test_stored_sort_keys_keep_the_recursive_order(e):
    n = _normal_or_none(e)
    if n is None:
        return
    for node in _nodes(n):
        stored = node._key
        want = recursive_sort_key(node)
        assert stored is None or stored == want, to_text(node)
        assert _sort_key(node) == want and node._key == want, to_text(node)
        if type(node) in (Sum, Product):
            keys = [recursive_sort_key(c) for c in children(node)]
            assert keys == sorted(keys), to_text(node)


@SETTINGS
@given(trees)
def test_printed_normal_form_parses_back_to_itself(e):
    n = _normal_or_none(e)
    if n is None:
        return
    assert parse_expression(to_text(n), declared={"a": A}) == n, to_text(n)


@settings(SETTINGS, max_examples=100)
@given(trees)
def test_mixed_partials_agree(e):
    # x -> x + y and z -> x*y entangle x and y in every tree with x or z
    x, y = var("x"), var("y")
    n = _normal_or_none(substitute(e, {"x": add(x, y), "z": mul(x, y)}))
    if n is None:
        return
    try:
        xy = differentiate(differentiate(n, "x"), "y")
        yx = differentiate(differentiate(n, "y"), "x")
        assert numeric_equiv(xy, yx, SamplePlan(allow_complex=True)), to_text(n)
    except (ExpressionError, SamplingError):    # no finite value to compare
        return
