"""Exact sparse polynomials over Q(i) in Laurent/Puiseux monomials.

A polynomial is a dict from a monomial to its nonzero coefficient; {} is
0.  A monomial is a tuple of (variable name, nonzero Fraction exponent)
pairs sorted by name, () for 1.  Exponents may be negative or
fractional: x^a * x^b = x^(a+b) on the principal branch, as `normalize`
merges powers.  A coefficient is a pair (re, im) of Fractions, re + im*i.

Everything here is exact.  A product past MAX_TERMS terms raises
TooLarge, and `to_poly` then returns None, so that a caller falls back
to sampling instead of expanding without bound.

Atoms.  With an atom table (a dict the caller keeps for one family of
expressions), each subtree `to_poly` refuses short of the cap becomes a
fresh variable that the table names by its tree.  A zero or an equality
over atoms is sound; an identity between atoms (exp(2*x) against
exp(x)^2) is not seen.  `analysis.weak_minors` passes a table;
`fields.closure_check`, whose ok must be complete, does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import Constant, Expression, ImaginaryUnit, Power, Product, Sum, Variable

# The built-in fields have at most one term per component, brackets included.
MAX_TERMS = 1000

_Q0 = Fraction(0)
ONE = (Fraction(1), _Q0)
MINUS_ONE = (Fraction(-1), _Q0)
I = (_Q0, Fraction(1))


class TooLarge(ArithmeticError):
    """A polynomial passed MAX_TERMS terms."""


def _times(a, b):
    (ar, ai), (br, bi) = a, b
    if ai or bi:
        return ar * br - ai * bi, ar * bi + ai * br
    return ar * br, _Q0


def _inverse(c):
    re, im = c
    n = re * re + im * im
    return re / n, -im / n


def _accumulate(out: dict, key, c) -> None:
    """out[key] += c, dropping the entry when it cancels."""
    old = out.get(key)
    if old is not None:
        c = old[0] + c[0], old[1] + c[1]
        if not (c[0] or c[1]):
            del out[key]
            return
    out[key] = c


def add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for m, c in p.items():
            _accumulate(out, m, c)
    return out


def scale(p: dict, c) -> dict:
    """c * p for a nonzero coefficient c."""
    return {m: _times(c, d) for m, d in p.items()}


def _monomial_times(a: tuple, b: tuple) -> tuple:
    if not (a and b):
        return a or b
    merged = dict(a)
    for v, k in b:
        k += merged.get(v, _Q0)
        if k:
            merged[v] = k
        else:
            del merged[v]
    return tuple(sorted(merged.items()))


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _accumulate(out, _monomial_times(ma, mb), _times(ca, cb))
        if len(out) > MAX_TERMS:
            raise TooLarge(len(out))
    return out


def diff(p: dict, v: str) -> dict:
    """dp/dv.  Distinct monomials have distinct derivatives."""
    out = {}
    for m, (re, im) in p.items():
        for n, (w, k) in enumerate(m):
            if w == v:
                # only an exponent that reaches 0 drops: t^(2/3) -> t^(-1/3)
                lowered = ((w, k - 1),) if k != 1 else ()
                out[m[:n] + lowered + m[n + 1:]] = re * k, im * k
                break
    return out


def to_poly(e: Expression, atoms: dict | None = None) -> dict | None:
    """e as a polynomial, or None when that is not exact: a Builtin or
    FunctionApp, a non-integer power of anything but a variable (a
    constant included: `Fraction ** Fraction` is a float), a negative
    power of other than one term, or past MAX_TERMS terms.  With an atom
    table, only the last gives None: the others become atoms."""
    try:
        return _convert(e, atoms)
    except TooLarge:
        return None


def _convert(e: Expression, atoms: dict | None) -> dict | None:
    t = type(e)
    if t is Constant:
        return {(): (e.value, _Q0)} if e.value else {}
    if t is Variable:
        return {((e.name, Fraction(1)),): ONE}
    if t is ImaginaryUnit:
        return {(): I}
    if t is not Sum and t is not Product:
        p = _power(e.base, e.exponent, atoms) if t is Power else None
        if p is None and atoms is not None:
            return {((atoms.setdefault(e, "@%d" % len(atoms)), Fraction(1)),): ONE}
        return p
    parts = [_convert(u, atoms) for u in (e.terms if t is Sum else e.factors)]
    if None in parts:
        return None
    if t is Product:
        out = {(): ONE}
        for p in parts:
            out = mul(out, p)
        return out
    out = add(*parts)
    if len(out) > MAX_TERMS:
        raise TooLarge(len(out))
    return out


def _power(base: Expression, k: Fraction, atoms: dict | None) -> dict | None:
    if not k:
        return {(): ONE}
    if type(base) is Variable:
        return {((base.name, k),): ONE}
    p = _convert(base, atoms) if k.denominator == 1 else None
    if p is None:
        return None
    n = k.numerator
    if abs(n) > MAX_TERMS:
        raise TooLarge(n)       # even one term's coefficient would grow without bound
    if n < 0:
        if len(p) != 1:
            return None
        # (c*m)^-1 = c^-1 * m^-1 for one term
        (m, c), = p.items()
        p, n = {tuple((v, -j) for v, j in m): _inverse(c)}, -n
    out = p
    for _ in range(n - 1):
        out = mul(out, p)
    return out


def vector(polys) -> dict:
    """polys as one vector over (index, monomial) coordinates."""
    return {(k, m): c for k, p in enumerate(polys) for m, c in p.items()}


def norm(v: dict) -> float:
    """The 2-norm of v's coefficients: 0.0 exactly when v is empty."""
    return math.sqrt(sum(re * re + im * im for re, im in v.values()))


class Span:
    """The span over Q(i) of vectors, dicts from coordinates to nonzero
    coefficients, by exact elimination in the order given."""

    def __init__(self, vectors):
        self.size = len(vectors)
        # (pivot, row, row as a combination of the vectors): each row is 1
        # at its pivot and 0 at every earlier one
        self._rows: list[tuple] = []
        for k, v in enumerate(vectors):
            combination, rest = self._reduce(v)
            if rest:
                pivot, c = next(iter(rest.items()))
                inv = _inverse(c)
                combination = scale(combination, _times(MINUS_ONE, inv))
                combination[k] = inv
                self._rows.append((pivot, scale(rest, inv), combination))

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: dict) -> tuple[dict, dict]:
        rest, coefficients = dict(v), {}
        for pivot, row, combination in self._rows:
            f = rest.get(pivot)
            if f is not None:
                minus_f = -f[0], -f[1]
                for key, c in row.items():
                    _accumulate(rest, key, _times(minus_f, c))
                for k, c in combination.items():
                    _accumulate(coefficients, k, _times(f, c))
        return coefficients, rest

    def fit(self, v: dict) -> tuple[list, dict]:
        """(coefficients, remainder): v is the sum of coefficients[k] times
        vector k, plus the remainder, which is empty exactly when v lies
        in the span."""
        coefficients, rest = self._reduce(v)
        return [coefficients.get(k, (_Q0, _Q0)) for k in range(self.size)], rest
