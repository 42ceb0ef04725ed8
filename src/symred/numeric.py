"""Complex-capable numeric evaluation and opaque-function instantiation.

Evaluation is double precision throughout.  One walk covers every point
of a batch.  A column is a list of Python complex values, one per
point; every node's column is computed with CPython's own complex
arithmetic, so each value is bit for bit what the same point evaluated
alone gives.  Singular or out-of-domain points raise PointRejected,
which names them, and the sampling layer discards them; genuine usage
errors raise EvaluationError.

Each Binding keeps one memo of subtree results: every distinct subtree
is walked once on the binding's points, and later evaluations through
the same binding reuse its column and the points it rejected.

Opaque symbols are evaluated from the stand-ins in Binding.functions
(seeded cubics from random_polynomial): no tree is rewritten to
evaluate one.  instantiate_functions and substitute_functions, which
build the rewritten tree, are kept as test oracles only; no evaluation
route in symred calls them.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Mapping, Sequence

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
from .stream import Stream

# Truncation threshold for the modified Bessel series, relative to the
# partial sum; and the argument bound past which the series is refused.
BESSEL_SERIES_TOL = 1e-17
BESSEL_ARG_BOUND = 30.0

EPS_SING = 1e-6    # rejection radius around excluded loci and poles


class EvaluationError(SymredError, ValueError):
    pass


class PointRejected(Exception):
    """A point hit a singularity or left the evaluation domain.

    When evaluate raises it, rejected is a list of bools marking the
    rejected points and values holds the result at the others.
    """

    def __init__(self, reason, rejected=None, values=None):
        super().__init__(reason)
        self.rejected, self.values = rejected, values


@dataclass(frozen=True, eq=False)
class Binding:
    """Variable values plus concrete stand-ins for opaque symbols.

    values maps names to numbers or to columns, sequences with one
    entry per point; a number holds at every point.  The points are the
    columns' entries, or one point if no value is a column.  Each value
    is read once, as Python complex values, so a numpy array given here
    is evaluated with CPython's arithmetic like any other column.
    functions maps each FunctionSymbol to an Expression in the symbol's
    formal argument names only.  values and functions must not change
    once evaluate has seen the binding: it keeps their columns and a
    subtree memo.
    """

    values: Mapping[str, complex] = field(default_factory=dict)
    functions: Mapping[FunctionSymbol, Expression] = field(default_factory=dict)

    @functools.cached_property
    def _shared(self):
        # the point count, whether any value is a column, each value as
        # a column, and one subtree memo per real_domain
        values = {name: v if isinstance(v, numbers.Number) else list(map(complex, v))
                  for name, v in self.values.items()}
        columns = [len(v) for v in values.values() if isinstance(v, list)]
        n = columns[0] if columns else 1
        return n, bool(columns), {name: v if isinstance(v, list) else [complex(v)] * n
                                  for name, v in values.items()}, {}


def evaluate(e: Expression, b: Binding, *, real_domain: bool = False) -> complex | list[complex]:
    """Evaluate at every point of b: a column, one Python complex per
    point, or a single complex when b binds numbers only.

    Any value raised to a negative power (or fed to ln) with modulus
    <= EPS_SING rejects the point as a pole.  real_domain additionally
    rejects negative radicands, non-positive ln arguments and negative
    besseli arguments instead of taking principal branches.  If any
    point is rejected, PointRejected is raised; its values are
    meaningless at the rejected points.

    Subtrees already walked through b for the same real_domain are not
    walked again: their columns are reused and the points they rejected
    rejected again, so the result and the rejected mask are those of a
    fresh walk.
    """
    n, columns, values, memos = b._shared
    walk = _Walk(b.functions, n, real_domain, values, memos.setdefault(real_domain, {}))
    out = walk.node(e, values)
    # a copy: the column may be the memo's or the binding's own
    out = list(out) if columns else out[0]
    if walk.bad:
        raise PointRejected(walk.reason, [bool(walk.bad >> i & 1) for i in range(n)], out)
    return out


def near_zero(z: complex) -> bool:
    """|z| <= EPS_SING, with |z| as C's hypot gives it; a part past
    EPS_SING decides alone, so no modulus is taken that could overflow."""
    return abs(z.real) <= EPS_SING and abs(z.imag) <= EPS_SING and abs(z) <= EPS_SING


def moduli(column: Sequence[complex]) -> list[float]:
    """|z| of each entry as C's hypot gives it: inf where CPython's abs
    raises OverflowError."""
    try:
        return list(map(abs, column))
    except OverflowError:
        out = []
        for z in column:
            try:
                out.append(abs(z))
            except OverflowError:
                out.append(math.inf)
        return out


def _is_real(z):
    return z.imag == 0.0 or abs(z.imag) <= 1e-14 * abs(z.real)


def _scalar_power(z: complex, q: Fraction, real_domain: bool) -> complex:
    """z**q at one point, where CPython's c_powi is not taken over a
    whole column: fractional q, integer q past CPython's |q| <= 100, and
    an integer q at which some point of the column raises."""
    if q.denominator == 1:
        return z ** q.numerator
    if not real_domain:
        # + 0.0 turns a -0.0 imaginary part into +0.0: principal branch
        z = complex(z.real, z.imag + 0.0)
        return z ** float(q) if z != 0 else 0j if q > 0 else complex("nan")
    if not _is_real(z) or z.real < 0:
        raise PointRejected("fractional power of a negative value")
    if z.real == 0 and q < 0:
        raise PointRejected("pole at 0")
    return complex(z.real ** float(q))


_CMATH = {"exp": cmath.exp, "ln": cmath.log, "sin": cmath.sin, "cos": cmath.cos}


class _Walk:
    """One evaluation over n points; every node yields a column.

    Every operation runs over all n points, rejected ones too, so a
    subtree's column does not depend on what the walk rejected before
    it.  An operation that can raise is taken one point at a time (an
    integer power only once some point raises), and a point where it
    raises is rejected.  The rejected points are the set bits of one
    int, bad, and reason is the last rejection's.

    A subtree walked on the top-level values is memoized with its
    column, the points it rejected itself and its last reason; a later
    visit rejects those points again instead of walking.  Variables are
    not memoized, and neither is anything under a FunctionApp's local
    values.
    """

    def __init__(self, functions, n, real_domain, top, memo):
        self.functions, self.n, self.real_domain = functions, n, real_domain
        self.top, self.memo = top, memo
        self.bad, self.reason = 0, None

    def reject(self, bad, reason):
        if bad:
            self.bad |= bad
            self.reason = reason

    def small(self, z):
        """The points where |z| <= EPS_SING, as bits."""
        return sum(1 << i for i, w in enumerate(z) if near_zero(w))

    def pointwise(self, z, fn):
        """fn on each point's value; a point where it raises
        PointRejected, overflows or leaves its domain is rejected."""
        out = [0j] * self.n
        for i, w in enumerate(z):
            try:
                out[i] = fn(w)
            except EvaluationError:
                raise
            except (PointRejected, ArithmeticError, ValueError) as exc:
                self.reject(1 << i, str(exc))
        return out

    def node(self, e, values):
        if values is not self.top or isinstance(e, Variable):
            return self.walk(e, values)
        hit = self.memo.get(e)
        if hit is None:
            outer, self.bad = self.bad, 0
            hit = self.memo[e] = self.walk(e, values), self.bad, self.reason
            self.bad |= outer
        else:
            self.reject(hit[1], hit[2])
        return hit[0]

    def walk(self, e, values):
        n = self.n
        if isinstance(e, Constant):
            try:
                return [complex(e.value)] * n
            except OverflowError:
                raise EvaluationError("a constant is beyond float range") from None
        if isinstance(e, ImaginaryUnit):
            return [1j] * n
        if isinstance(e, Variable):
            try:
                return values[e.name]
            except KeyError:
                raise EvaluationError("unbound variable %r" % e.name) from None
        if isinstance(e, Sum):
            out = [0j] * n
            for t in e.terms:
                out = map(add, out, self.node(t, values))
            return list(out)
        if isinstance(e, Product):
            out = [1 + 0j] * n
            for f in e.factors:
                out = map(mul, out, self.node(f, values))
            return list(out)
        if isinstance(e, Power):
            return self.power(self.node(e.base, values), e.exponent)
        if isinstance(e, Builtin):
            return self.builtin(e, self.node(e.arg, values))
        if isinstance(e, FunctionApp):
            inst = self.functions.get(e.symbol)
            if inst is None:
                raise EvaluationError("no instantiation bound for %s" % e.symbol.name)
            local = dict(values)
            local.update((formal, self.node(arg, values))
                         for formal, arg in zip(e.symbol.formals, e.args))
            return self.node(derivative(inst, e.dvars), local)
        raise EvaluationError("cannot evaluate %r" % type(e).__name__)

    def power(self, z, q):
        if q < 0:
            self.reject(self.small(z), "pole")
        if q.denominator == 1 and abs(q) <= 100:
            # CPython's c_powi, at every point at once; only if some
            # point raises are the points taken one at a time
            try:
                return [w ** q.numerator for w in z]
            except ArithmeticError:
                pass
        return self.pointwise(z, lambda w: _scalar_power(w, q, self.real_domain))

    def builtin(self, e, z):
        if e.name == "ln":
            self.reject(self.small(z), "ln near 0")
            if self.real_domain:
                self.reject(sum(1 << i for i, w in enumerate(z)
                                if not _is_real(w) or w.real <= 0),
                            "ln of a non-positive value")
        if e.name != "besseli":
            fn = _CMATH[e.name]
            return self.pointwise(z, lambda w: fn(complex(w.real, w.imag + 0.0)))
        # bessel_i is looked up per call, so a wrapped one sees each call
        return self.pointwise(z, lambda w: bessel_i(e.order, w,
                                                    real_domain=self.real_domain))


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
    except (ValueError, OverflowError):
        raise EvaluationError("besseli order %s has a singular or overflowing gamma factor"
                              % order) from None
    try:
        if real_domain:
            term = complex(half.real ** nu) / gamma
        else:
            term = half ** nu / gamma
    except OverflowError:
        raise PointRejected("besseli term overflows at |z| = %.3g for order %s"
                            % (abs(z), order)) from None
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


# ---------------------------------------------------------------------------
# opaque-function instantiation

INSTANTIATION_DEGREE = 3


def _symbol_stream(symbol: FunctionSymbol, seed: int) -> Stream:
    tag = zlib.crc32(("%s/%d" % (symbol.name, symbol.arity)).encode())
    return Stream([seed, tag])


@functools.lru_cache(maxsize=1024)
def random_polynomial(symbol: FunctionSymbol, seed: int) -> Expression:
    """Seeded polynomial of total degree <= INSTANTIATION_DEGREE in the
    symbol's formals.

    Coefficients are uniform on [-2, 2], converted to exact dyadic
    rationals so downstream differentiation stays exact.  Memoized per
    (symbol, seed): expressions are immutable, so callers share
    the one stand-in.
    """
    rng = _symbol_stream(symbol, seed)
    monomials = [m for m in itertools.product(range(INSTANTIATION_DEGREE + 1),
                                              repeat=symbol.arity)
                 if sum(m) <= INSTANTIATION_DEGREE]
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
