"""Complex-capable numeric evaluation and opaque-function instantiation.

Evaluation is double precision throughout.  One walk covers a batch of
points, spelling CPython's complex arithmetic out on float64 columns so
that every value is bit for bit what Python complex numbers give.
Singular or out-of-domain points raise PointRejected, which names them,
and the sampling layer discards them; genuine usage errors raise
EvaluationError.

Each Binding keeps one memo of subtree results: every distinct subtree
is walked once on the binding's points, and later evaluations through
the same binding reuse its columns and replay its rejections.  A memo
entry serves while the points still live are among those live when it
was made, so it stays exact while the binding's live mask only shrinks.

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
from .stream import Stream

# Truncation threshold for the modified Bessel series, relative to the
# partial sum; and the argument bound past which the series is refused.
BESSEL_SERIES_TOL = 1e-17
BESSEL_ARG_BOUND = 30.0

POLE_EPS = 1e-300


class EvaluationError(SymredError, ValueError):
    pass


class PointRejected(Exception):
    """A point hit a singularity or left the evaluation domain.

    When evaluate raises it, rejected masks the rejected points and
    values holds the result at the others.
    """

    def __init__(self, reason, rejected=None, values=None):
        super().__init__(reason)
        self.rejected, self.values = rejected, values


@dataclass(frozen=True, eq=False)
class Binding:
    """Variable values plus concrete stand-ins for opaque symbols.

    values maps names to numbers or to columns, 1-D arrays with one
    entry per point; a number holds at every point.  live, if given,
    masks the points to evaluate; callers may clear entries between
    evaluations but never set them again.  functions maps each
    FunctionSymbol to an Expression in the symbol's formal argument
    names only.  values and functions must not change once evaluate
    has seen the binding: it keeps their columns and a subtree memo.
    """

    values: Mapping[str, complex] = field(default_factory=dict)
    functions: Mapping[FunctionSymbol, Expression] = field(default_factory=dict)
    live: np.ndarray | None = None

    @functools.cached_property
    def _shared(self):
        # the point count, whether any value is a column, each value as
        # a (re, im) pair of columns, and one subtree memo per guard setting
        columns = [len(v) for v in self.values.values() if np.ndim(v)]
        n = len(self.live) if self.live is not None else columns[0] if columns else 1
        return n, bool(columns), {name: _pair(v, n) for name, v in self.values.items()}, {}


def evaluate(e: Expression, b: Binding, *, eps_sing: float = POLE_EPS,
             real_domain: bool = False) -> complex | np.ndarray:
    """Evaluate at every point of b: a complex column, or a complex
    double when b binds numbers only and no live mask.

    eps_sing is the pole guard: any value raised to a negative power (or
    fed to ln) with modulus <= eps_sing rejects the point.  real_domain
    additionally rejects negative radicands, non-positive ln arguments
    and negative besseli arguments instead of taking principal branches.
    If any point evaluated is rejected, PointRejected is raised; its
    values are meaningless at the rejected points and outside b.live.

    Subtrees already walked through b for the same guards are not walked
    again: their columns are reused and their rejections replayed, so the
    result and the rejected mask are those of a fresh walk.  That holds
    as long as b.live only shrinks between calls.
    """
    n, columns, pairs, memos = b._shared
    todo = np.ones(n, dtype=bool) if b.live is None else b.live
    memo = memos.setdefault((eps_sing, real_domain), {})
    walk = _Walk(b.functions, todo.copy(), eps_sing, real_domain, pairs, memo)
    with np.errstate(all="ignore"):
        re, im = walk.node(e, pairs)
    if columns or b.live is not None:
        out = np.empty(n, dtype=complex)
        out.real, out.imag = re, im
    else:
        out = complex(re[0], im[0])
    if walk.reason is not None:
        raise PointRejected(walk.reason, todo & ~walk.live, out)
    return out


def _pair(v, n):
    v = np.asarray(v, dtype=complex)
    return (v.real, v.imag) if v.ndim else (np.full(n, v.real), np.full(n, v.imag))


def _bits(mask):
    """The set bits of a boolean column as one Python int."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _is_real(re, im):
    return (im == 0.0) | (abs(im) <= 1e-14 * abs(re))


def _times(a, b):
    """CPython's complex product on (re, im) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _reciprocal(p):
    """CPython's 1/p, Smith's quotient, on (re, im) columns; a NaN part
    takes the second branch here and gives NaN as CPython's third does."""
    br, bi = p
    by_re = abs(br) >= abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    return (np.where(by_re, 1.0 + 0.0 * ratio, ratio + 0.0) / denom,
            np.where(by_re, 0.0 - ratio, 0.0 * ratio - 1.0) / denom)


def _scalar_power(z: complex, q: Fraction, real_domain: bool) -> complex:
    """z**q at one point, where the binary method does not apply:
    fractional q, and integer q past CPython's |q| <= 100."""
    if q.denominator == 1:
        return z ** q.numerator
    if not real_domain:
        # + 0.0 turns a -0.0 imaginary part into +0.0: principal branch
        z = complex(z.real, z.imag + 0.0)
        return z ** float(q) if z != 0 else 0j if q > 0 else complex("nan")
    if not _is_real(z.real, z.imag) or z.real < 0:
        raise PointRejected("fractional power of a negative value")
    if z.real == 0 and q < 0:
        raise PointRejected("pole at 0")
    return complex(z.real ** float(q))


_CMATH = {"exp": cmath.exp, "ln": cmath.log, "sin": cmath.sin, "cos": cmath.cos}


class _Walk:
    """One evaluation over n points; every node yields (re, im) columns.

    The arithmetic runs over all n entries.  The guards and the per-point
    calls see only the live points, which are exactly the points that a
    walk taking one point at a time would still be evaluating there.

    Each rejection is logged as (points cleared, reason).  A subtree
    walked on the top-level values is memoized with its columns, the
    live points it started from (as bits) and its part of the log.  A
    later visit whose live points are among those replays that log
    through reject instead of walking: the guards would clear the same
    points for the same reasons, and the other live points' columns are
    the same.  Variables are not memoized, and neither is anything under
    a FunctionApp's local values.
    """

    def __init__(self, functions, live, eps, real_domain, top, memo):
        self.functions, self.live, self.n = functions, live, len(live)
        self.eps, self.real_domain, self.reason = eps, real_domain, None
        self.top, self.memo, self.bits, self.log = top, memo, _bits(live), []

    def reject(self, bad, reason):
        bad = self.live & bad
        if bad.any():
            self.live &= ~bad
            self.bits &= ~_bits(bad)
            self.reason = reason
            self.log.append((bad, reason))

    def pointwise(self, z, fn):
        """fn on each live point's Python complex; a point where it
        raises PointRejected, overflows or leaves its domain is cleared."""
        out = np.zeros(self.n), np.zeros(self.n)
        at = np.flatnonzero(self.live)
        for i, re, im in zip(at.tolist(), z[0][at].tolist(), z[1][at].tolist()):
            try:
                w = fn(complex(re, im))
            except EvaluationError:
                raise
            except (PointRejected, ArithmeticError, ValueError) as exc:
                self.reject(np.arange(self.n) == i, str(exc))
                continue
            out[0][i], out[1][i] = w.real, w.imag
        return out

    def node(self, e, values):
        if values is not self.top or isinstance(e, Variable):
            return self.walk(e, values)
        hit = self.memo.get(e)
        if hit is not None and not self.bits & ~hit[1]:
            for bad, reason in hit[2]:
                self.reject(bad, reason)
            return hit[0]
        bits, start = self.bits, len(self.log)
        out = self.walk(e, values)
        self.memo[e] = out, bits, self.log[start:]
        return out

    def walk(self, e, values):
        n = self.n
        if isinstance(e, (Constant, ImaginaryUnit)):
            c = complex(e.value) if isinstance(e, Constant) else 1j
            return np.full(n, c.real), np.full(n, c.imag)
        if isinstance(e, Variable):
            try:
                return values[e.name]
            except KeyError:
                raise EvaluationError("unbound variable %r" % e.name) from None
        if isinstance(e, Sum):
            out = np.zeros(n), np.zeros(n)
            for t in e.terms:
                re, im = self.node(t, values)
                out = out[0] + re, out[1] + im
            return out
        if isinstance(e, Product):
            out = np.ones(n), np.zeros(n)
            for f in e.factors:
                out = _times(out, self.node(f, values))
            return out
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
            self.reject(np.hypot(*z) <= self.eps, "pole")
        if q.denominator != 1 or abs(q) > 100:
            return self.pointwise(z, lambda w: _scalar_power(w, q, self.real_domain))
        # CPython's c_powi: the binary method of c_powu, then 1/p for q <= 0
        k, bit, out = abs(q.numerator), 1, (np.ones(self.n), np.zeros(self.n))
        while k >= bit:
            if k & bit:
                out = _times(out, z)
            bit <<= 1
            if k >= bit:
                z = _times(z, z)
        if q <= 0:
            self.reject((out[0] == 0) & (out[1] == 0), "pole")
            out = _reciprocal(out)
        self.reject(np.isinf(out[0]) | np.isinf(out[1]), "overflow in integer power")
        return out

    def builtin(self, e, z):
        if e.name == "ln":
            self.reject(np.hypot(*z) <= self.eps, "ln near 0")
            if self.real_domain:
                self.reject(~_is_real(*z) | (z[0] <= 0), "ln of a non-positive value")
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
    if real_domain and (not _is_real(z.real, z.imag) or z.real < 0):
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
