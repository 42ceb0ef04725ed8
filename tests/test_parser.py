from fractions import Fraction

import pytest

from symred.expr import (
    FunctionSymbol,
    I,
    Product,
    Sum,
    besseli,
    con,
    free_variables,
    normalize,
    to_text,
    var,
)
from symred.parser import ParseError, jet_name, parse_expression, split_jet_name


def test_jet_variable_sum():
    e = parse_expression("y*d(u1,x) - x*d(u1,y)")
    assert isinstance(e, Sum)
    assert len(e.terms) == 2
    assert all(isinstance(t, Product) for t in e.terms)
    names = {n for t in e.terms for n in free_variables(t)}
    assert "d(u1,x)" in names and "d(u1,y)" in names


def test_jet_names_sort_derivative_lists():
    # mixed orders spell the same slot
    assert split_jet_name("d(u1,y,x)") is not None
    e1 = parse_expression("d(u1,x,y)")
    e2 = parse_expression("d(u1,y,x)")
    assert e1 == e2
    assert jet_name("u1", ("y", "x")) == "d(u1,x,y)"


def test_rational_literals_and_powers():
    e = parse_expression("3/2*x^2")
    assert normalize(e) == normalize(con(Fraction(3, 2)) * var("x") ** 2)
    assert parse_expression("x^(-1/2)") == normalize(var("x") ** Fraction(-1, 2))


def test_imaginary_unit_is_reserved():
    assert parse_expression("i^2") == con(-1)
    e = parse_expression("2*i")
    assert normalize(e) == normalize(con(2) * I)


def test_besseli_syntax():
    e = parse_expression("besseli(-5/6; t^3)")
    assert e == normalize(besseli(Fraction(-5, 6), var("t") ** 3))


def test_declared_function_application():
    a = FunctionSymbol("a", ("t",))
    e = parse_expression("a(t)*x", {"a": a})
    assert "a(t)" in to_text(e)


def test_undeclared_function_rejected():
    with pytest.raises(ParseError):
        parse_expression("g(t) + 1")


def test_arity_mismatch_rejected():
    f = FunctionSymbol("f", ("s", "r"))
    with pytest.raises(ParseError):
        parse_expression("f(x)", {"f": f})


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expression("(x + 1")


def test_empty_input():
    with pytest.raises(ParseError):
        parse_expression("   ")


def test_precedence():
    e = parse_expression("2 + 3*x^2")
    from symred.numeric import Binding, evaluate
    assert evaluate(e, Binding({"x": 2.0})) == 14


def test_unary_minus():
    from symred.numeric import Binding, evaluate
    assert evaluate(parse_expression("-x^2"), Binding({"x": 3.0})) == -9
    assert evaluate(parse_expression("(-x)^2"), Binding({"x": 3.0})) == 9


def test_parser_output_is_normalized():
    e = parse_expression("x*2*3")
    assert normalize(e) == e


@pytest.mark.parametrize("text, message", [
    ("x^y + 1", "exponent must be a rational constant (line 1, column 5)"),
    ("x^(1/0)", "exponent must be a rational constant (line 1, column 8)"),
    ("x^sqrt(2)", "exponent must be a rational constant (line 1, column 10)"),
    ("2 + besseli(y; x)", "besseli order must be rational (line 1, column 5)"),
])
def test_exponents_and_besseli_orders_must_fold_to_a_rational(text, message):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == message


def test_exponents_fold_as_normalize_does():
    x = var("x")
    assert parse_expression("x^(2*3 - 1/2)") == normalize(x ** Fraction(11, 2))
    assert parse_expression("x^(i*i)") == normalize(x ** -1)
    assert parse_expression("x^(2^(1/2)*2^(1/2))") == normalize(x ** 2)
    assert parse_expression("besseli(0*y; x)") == normalize(besseli(0, x))
