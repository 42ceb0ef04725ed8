"""Exact polynomials over Q(i): conversion, arithmetic, elimination, and
the exact closure route built on them."""

import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import VARS, random_expression
from symred import poly
from symred.expr import (I, Constant, FunctionSymbol, Power, Product, apply_symbol,
                         differentiate, normalize, pow_, var)
from symred.fields import Algebra, VectorField, closure_check
from symred.jets import make_space
from symred.models import builtin
from symred.parser import parse_expression as P


def _q(*terms):
    """A polynomial from (coefficient, monomial) terms; a coefficient is
    a rational, or a complex with integer parts."""
    out = {}
    for c, m in terms:
        re, im = (c.real, c.imag) if isinstance(c, complex) else (c, 0)
        out[tuple((v, Fraction(k)) for v, k in m)] = (Fraction(re), Fraction(im))
    return out


def test_a_constant_to_a_fractional_power_does_not_convert():
    # Fraction ** Fraction is a float, so 2^(1/2) has no exact coefficient
    assert poly.to_poly(Product((Power(Constant(Fraction(2)), Fraction(1, 2)), var("x")))) is None
    assert poly.to_poly(P("2^3*x")) == _q((8, [("x", 1)]))


def test_fractional_exponents_survive_differentiation():
    # d/dt t^(2/3) = (2/3) t^(-1/3): the lowered exponent is not 0, so it stays
    got = poly.diff(poly.to_poly(P("t^(2/3)")), "t")
    assert got == {(("t", Fraction(-1, 3)),): (Fraction(2, 3), Fraction(0))}
    assert poly.diff(poly.to_poly(P("t")), "t") == _q((1, []))


def test_i_squared_is_minus_one():
    i = poly.to_poly(I)
    assert poly.mul(i, i) == _q((-1, []))
    assert poly.to_poly(P("i*i*x")) == _q((-1, [("x", 1)]))
    assert poly.to_poly(P("(1 + i)^2")) == _q((2j, []))


@pytest.mark.parametrize("e", [
    P("exp(t)"), apply_symbol(FunctionSymbol("a", ("t",)), var("t")), P("(x + 1)^(1/2)"),
    P("(x^2)^(1/4)"), P("(x + y)^(-1)"), Power(Constant(Fraction(0)), Fraction(-1)),
], ids=["exp", "opaque", "root_of_a_sum", "root_of_a_power", "inverse_of_a_sum", "zero_inverse"])
def test_what_does_not_convert(e):
    assert poly.to_poly(e) is None


@pytest.mark.parametrize("e", [
    P("exp(t)"), apply_symbol(FunctionSymbol("a", ("t",)), var("t")), P("(x + 1)^(1/2)"),
    P("(x^2)^(1/4)"), P("(x + y)^(-1)"),
], ids=["exp", "opaque", "root_of_a_sum", "root_of_a_power", "inverse_of_a_sum"])
def test_an_atom_table_names_what_does_not_convert(e):
    atoms = {}
    assert poly.to_poly(e, atoms) == _q((1, [("@0", 1)]))
    # the same tree is the same atom, under a power too
    assert poly.to_poly(pow_(e, 2) * var("x") + e, atoms) == _q((1, [("@0", 2), ("x", 1)]),
                                                                   (1, [("@0", 1)]))
    assert atoms == {e: "@0"}


def test_one_term_bases_take_negative_powers():
    assert poly.to_poly(P("(2*x^(1/2)*y)^(-2)")) == _q((Fraction(1, 4), [("x", -1), ("y", -2)]))
    assert poly.to_poly(pow_(I, -1)) == _q((-1j, []))


def test_expansion_stops_at_the_term_cap():
    s = P("t + x + y + z + 1")
    assert len(poly.to_poly(pow_(s, 8))) == 495
    start = time.perf_counter()
    assert poly.to_poly(pow_(s, 20)) is None
    assert time.perf_counter() - start < 1.0
    # 40 x 40 distinct products: mul gives up once it holds 1000 terms
    a, b = (poly.to_poly(P(" + ".join("%s%d" % (v, k) for k in range(40)))) for v in "ab")
    with pytest.raises(poly.TooLarge):
        poly.mul(a, b)


def test_a_field_past_the_cap_is_decided_by_sampling():
    space = make_space(("t", "x", "y", "z"), ("u",), 1)
    big = VectorField(space, (P("(t + x + y + z + 1)^20"), P("0"), P("0"), P("0")), (P("0"),),
                      name="big")
    shift = VectorField(space, (P("1"), P("0"), P("0"), P("0")), (P("0"),), name="T")
    start = time.perf_counter()
    rep = closure_check(Algebra(space, (big, shift)), Algebra(space, (big, shift)))
    assert time.perf_counter() - start < 1.0
    assert not rep.exact and not rep.ok     # [T, big] = 20 (...)^19 d/dt


def test_conversion_commutes_with_normalize_and_differentiate():
    rng = np.random.default_rng(2202)
    converted = 0
    for _ in range(600):
        e = random_expression(rng, depth=3)
        p = poly.to_poly(e)
        if p is None:
            continue
        converted += 1
        assert poly.to_poly(normalize(e)) == p, e
        for v in VARS:
            assert poly.to_poly(differentiate(e, v)) == poly.diff(p, v), (e, v)
    assert converted > 200


def test_span_fits_exactly_over_q_i():
    x, y = _q((1, [("x", 1)])), _q((1, [("y", 1)]))
    xy = poly.add(x, poly.scale(y, poly.I))
    span = poly.Span([poly.vector([x, y]), poly.vector([xy, y]), poly.vector([x, x])])
    assert span.rank == 3
    # (2x + i*y, 2y) is the first vector plus the second, and only that
    target = poly.vector([poly.add(x, xy), poly.add(y, y)])
    coefficients, rest = span.fit(target)
    assert not rest
    assert coefficients == [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)),
                            (Fraction(0), Fraction(0))]
    _, rest = span.fit(poly.vector([_q((1, [("z", 1)])), {}]))
    assert rest and poly.norm(rest) == 1.0
    assert poly.Span([poly.vector([x]), poly.vector([poly.scale(x, poly.I)])]).rank == 1


def test_g2_structure_constants_are_exact():
    # [D, X] = (2*(5/3) - 1) X = 7/3 X at the default parameters; the
    # sampled fit gave 2.3333333333333335 with 1e-16 beside it
    g2 = builtin("navier_stokes").algebras["g2"]
    assert g2.generator_names() == ("D", "L3", "X", "Y")
    rep = closure_check(g2, g2)
    assert rep.exact and rep.ok and not rep.flagged and rep.worst_residual == 0.0
    seven_thirds = float(Fraction(7, 3))
    assert rep.structure[(0, 2)] == (0.0, 0.0, seven_thirds, 0.0)
    assert rep.structure[(0, 3)] == (0.0, 0.0, 0.0, seven_thirds)
    assert rep.membership == {k: tuple(float(j == k) for j in range(4)) for k in range(4)}
