"""Complex-capable numeric evaluation and opaque-function instantiation.

Evaluation is double precision throughout.  Singular or out-of-domain
inputs raise PointRejected, which the sampling layer treats as "discard
this point and draw another"; genuine usage errors raise
EvaluationError.
"""

from __future__ import annotations

import cmath
import itertools
import math
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .expr import (
    Builtin,
    Constant,
    Expression,
    FunctionApp,
    FunctionSymbol,
    ImaginaryUnit,
    Power,
    Product,
    Sum,
    SymredError,
    Variable,
    derivative,
    function_symbols,
    normalize,
    rewrite,
    substitute,
)

# Truncation threshold for the modified Bessel series, relative to the
# partial sum; and the argument bound past which the series is refused.
BESSEL_SERIES_TOL = 1e-17
BESSEL_ARG_BOUND = 30.0

POLE_EPS = 1e-300


class EvaluationError(SymredError, ValueError):
    pass


class PointRejected(Exception):
    """The point hit a singularity or left the evaluation domain."""


@dataclass(frozen=True, eq=False)
class Binding:
    """Variable values plus concrete stand-ins for opaque symbols.

    functions maps each FunctionSymbol to an Expression in the symbol's
    formal argument names only.
    """

    values: Mapping[str, complex] = field(default_factory=dict)
    functions: Mapping[FunctionSymbol, Expression] = field(default_factory=dict)

    def merged(self, extra_values: Mapping[str, complex]) -> "Binding":
        vals = dict(self.values)
        vals.update(extra_values)
        return Binding(vals, self.functions)


def evaluate(e: Expression, b: Binding, *, eps_sing: float = POLE_EPS,
             real_domain: bool = False) -> complex:
    """Evaluate to a complex double.

    eps_sing is the pole guard: any value raised to a negative power (or
    fed to ln) with modulus <= eps_sing rejects the point.  real_domain
    additionally rejects negative radicands, non-positive ln arguments
    and negative besseli arguments instead of taking principal branches.
    """
    return _eval(e, b.values, b.functions, eps_sing, real_domain)


def _eval(e, values, functions, eps, real_dom) -> complex:
    if isinstance(e, Constant):
        return complex(e.value)
    if isinstance(e, ImaginaryUnit):
        return 1j
    if isinstance(e, Variable):
        try:
            return complex(values[e.name])
        except KeyError:
            raise EvaluationError("unbound variable %r" % e.name) from None
    if isinstance(e, Sum):
        return sum(_eval(t, values, functions, eps, real_dom) for t in e.terms)
    if isinstance(e, Product):
        out = 1 + 0j
        for f in e.factors:
            out *= _eval(f, values, functions, eps, real_dom)
        return out
    if isinstance(e, Power):
        return _eval_power(e, values, functions, eps, real_dom)
    if isinstance(e, Builtin):
        return _eval_builtin(e, values, functions, eps, real_dom)
    if isinstance(e, FunctionApp):
        return _eval_function(e, values, functions, eps, real_dom)
    raise EvaluationError("cannot evaluate %r" % type(e).__name__)


def _is_real(z: complex) -> bool:
    return z.imag == 0.0 or abs(z.imag) <= 1e-14 * abs(z.real)


def _eval_power(e: Power, values, functions, eps, real_dom) -> complex:
    base = _eval(e.base, values, functions, eps, real_dom)
    q = e.exponent
    if q < 0 and abs(base) <= eps:
        raise PointRejected("pole: |base| = %.3g" % abs(base))
    if q.denominator == 1:
        try:
            return base ** q.numerator
        except OverflowError:
            raise PointRejected("overflow in integer power") from None
    if real_dom:
        if not _is_real(base) or base.real < 0:
            raise PointRejected("fractional power of a negative value")
        if base.real == 0 and q < 0:
            raise PointRejected("pole at 0")
        return complex(base.real ** float(q))
    if base == 0:
        return 0j if q > 0 else complex("nan")
    try:
        return base ** float(q)
    except OverflowError:
        raise PointRejected("overflow in power") from None


def _eval_builtin(e: Builtin, values, functions, eps, real_dom) -> complex:
    arg = _eval(e.arg, values, functions, eps, real_dom)
    try:
        if e.name == "exp":
            return cmath.exp(arg)
        if e.name == "ln":
            if abs(arg) <= eps:
                raise PointRejected("ln near 0")
            if real_dom and (not _is_real(arg) or arg.real <= 0):
                raise PointRejected("ln of a non-positive value")
            return cmath.log(arg)
        if e.name == "sin":
            return cmath.sin(arg)
        if e.name == "cos":
            return cmath.cos(arg)
    except OverflowError:
        raise PointRejected("overflow in %s" % e.name) from None
    return bessel_i(e.order, arg, real_domain=real_dom)


def bessel_i(order: Fraction, z: complex, *, real_domain: bool = False) -> complex:
    """Modified Bessel function of the first kind, by power series.

    I_nu(z) = sum_m (z/2)^(2m+nu) / (m! Gamma(m+nu+1)).  Terms follow the
    exact ratio recurrence; truncation at 1e-17 relative.  |z| > 30 is
    rejected rather than summed inaccurately.
    """
    if abs(z) > BESSEL_ARG_BOUND:
        raise PointRejected("besseli argument %.3g exceeds series bound" % abs(z))
    nu = float(order)
    if order.denominator == 1 and order < 0:
        # I_{-n} = I_n for integer n
        order, nu = -order, -nu
    if z == 0:
        if nu == 0:
            return 1.0 + 0j
        if nu > 0:
            return 0j
        raise PointRejected("besseli of negative order at 0")
    if real_domain and (not _is_real(z) or z.real < 0):
        raise PointRejected("besseli of a negative value")
    half = z / 2
    try:
        gamma = math.gamma(nu + 1.0)
    except ValueError:
        raise EvaluationError("besseli order %s has a singular gamma factor" % order) from None
    if real_domain:
        term = complex(half.real ** nu) / gamma
    else:
        term = half ** nu / gamma
    acc = term
    terms = [term]
    ratio_base = half * half
    for m in range(400):
        term = term * ratio_base / ((m + 1) * (m + 1 + nu))
        acc += term
        terms.append(term)
        if abs(term) <= BESSEL_SERIES_TOL * abs(acc):
            # compensated final pass recovers the last ulp or two
            return complex(math.fsum(t.real for t in terms),
                           math.fsum(t.imag for t in terms))
    raise PointRejected("besseli series did not converge")


def _eval_function(e: FunctionApp, values, functions, eps, real_dom) -> complex:
    inst = functions.get(e.symbol)
    if inst is None:
        raise EvaluationError("no instantiation bound for %s" % e.symbol.name)
    deriv = derivative(inst, e.dvars)
    local = dict(values)
    for formal, arg in zip(e.symbol.formals, e.args):
        local[formal] = _eval(arg, values, functions, eps, real_dom)
    return _eval(deriv, local, functions, eps, real_dom)


# ---------------------------------------------------------------------------
# opaque-function instantiation

INSTANTIATION_DEGREE = 3


def _symbol_stream(symbol: FunctionSymbol, seed: int) -> np.random.Generator:
    tag = zlib.crc32(("%s/%d" % (symbol.name, symbol.arity)).encode())
    return np.random.default_rng([seed, tag])


def random_polynomial(symbol: FunctionSymbol, seed: int,
                      degree: int = INSTANTIATION_DEGREE) -> Expression:
    """Seeded polynomial of total degree <= degree in the symbol's formals.

    Coefficients are uniform on [-2, 2], converted to exact dyadic
    rationals so downstream differentiation stays exact.
    """
    rng = _symbol_stream(symbol, seed)
    monomials = [m for m in itertools.product(range(degree + 1), repeat=symbol.arity)
                 if sum(m) <= degree]
    monomials.sort()
    terms = []
    for m in monomials:
        c = float(rng.uniform(-2.0, 2.0))
        coeff = Constant(Fraction(*c.as_integer_ratio()))
        factors: list[Expression] = [coeff]
        for formal, k in zip(symbol.formals, m):
            if k:
                factors.append(Power(Variable(formal), Fraction(k)) if k > 1
                               else Variable(formal))
        terms.append(Product(tuple(factors)))
    return normalize(Sum(tuple(terms)))


def instantiate_functions(e: Expression, seed: int) -> tuple[Expression, dict[FunctionSymbol, Expression]]:
    """Replace every opaque symbol in e by a seeded random cubic.

    Derivative applications become the exact derivatives of the chosen
    polynomial, with the symbol's formals substituted by the actual
    arguments.  Returns the rewritten expression and the instantiation
    map (a Binding fragment).
    """
    fragment = {s: random_polynomial(s, seed)
                for s in sorted(function_symbols(e), key=lambda s: s.name)}
    return substitute_functions(e, fragment), fragment


def substitute_functions(e: Expression, functions: Mapping[FunctionSymbol, Expression]) -> Expression:
    """Expand FunctionApp nodes whose symbol is in the map; leave others."""
    def rule(node):
        if not (isinstance(node, FunctionApp) and node.symbol in functions):
            return None
        args = {formal: rewrite(arg, rule)
                for formal, arg in zip(node.symbol.formals, node.args)}
        return normalize(substitute(derivative(functions[node.symbol], node.dvars), args))
    return rewrite(e, rule)
