"""Vector fields on (x, u), algebras, coefficient/characteristic matrices,
brackets, closure checking and prolongation.

closure_check decides exactly over Q(i) when every field is a polynomial
of symred.poly, as every built-in one is; any other field is fitted from
its values at sampled (x, u) points by a float elimination."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .expr import (
    MINUS_ONE,
    ZERO,
    Constant,
    Expression,
    Product,
    Sum,
    SymredError,
    differentiate,
    free_variables,
    normalize,
)
from .jets import (JetError, JetKey, VariableSpace, jet_keys, key_of_variable, key_variable,
                   read_keys, total_derivative)
from .numeric import moduli
from .sampling import SamplePlan, sampled


class FieldError(SymredError, ValueError):
    pass


@dataclass(frozen=True)
class VectorField:
    """v = sum xi_i d/dx_i + sum phi_alpha d/du_alpha with coefficients
    depending on (x, u) only."""

    space: VariableSpace
    xi: tuple[Expression, ...]
    phi: tuple[Expression, ...]
    name: str = "v"
    # prolongation coefficients by JetKey and D_i xi rows by i, built on
    # first use (see _coefficient)
    _jets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(normalize(e) for e in self.xi))
        object.__setattr__(self, "phi", tuple(normalize(e) for e in self.phi))
        if len(self.xi) != self.space.p or len(self.phi) != self.space.q:
            raise FieldError("field %s: expected %d xi and %d phi coefficients"
                             % (self.name, self.space.p, self.space.q))
        for e in self.xi + self.phi:
            for v in free_variables(e):
                key = key_of_variable(self.space, v)
                if key is not None and key.order >= 1:
                    raise FieldError(
                        "field %s: coefficient uses jet coordinate %s" % (self.name, v))

    def components(self) -> tuple[Expression, ...]:
        return self.xi + self.phi

    def apply_to(self, f: Expression) -> Expression:
        """Directional derivative v(f) for f = f(x, u)."""
        names = self.space.independents + self.space.dependents
        terms = []
        for coeff, name in zip(self.components(), names):
            if type(coeff) is Constant and not coeff.value:
                continue
            df = differentiate(f, name)
            if type(df) is Constant and not df.value:
                continue
            terms.append(Product((coeff, df)))
        return normalize(Sum(tuple(terms))) if terms else ZERO


@dataclass(frozen=True)
class Algebra:
    """Generators on one space, with the plan their samples are drawn on."""

    space: VariableSpace
    fields: tuple[VectorField, ...]
    name: str = "algebra"
    plan: SamplePlan = field(default_factory=SamplePlan)

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        if not self.fields:
            raise FieldError("algebra %s has no generators" % self.name)
        for f in self.fields:
            if f.space != self.space:
                raise FieldError("generator %s lives on a different space" % f.name)

    @property
    def r(self) -> int:
        return len(self.fields)

    def generator_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)


@dataclass(frozen=True)
class ExpressionMatrix:
    entries: tuple[tuple[Expression, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    name: str = "M"

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple(tuple(row) for row in self.entries))
        rows = len(self.entries)
        cols = len(self.entries[0]) if rows else 0
        if any(len(row) != cols for row in self.entries):
            raise FieldError("matrix %s is ragged" % self.name)
        if len(self.row_labels) != rows or len(self.col_labels) != cols:
            raise FieldError("matrix %s labels do not match its shape" % self.name)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0]) if self.entries else 0

    def all_entries(self) -> list[Expression]:
        return [e for row in self.entries for e in row]


def xi_matrices(a: Algebra) -> tuple[ExpressionMatrix, ExpressionMatrix]:
    """The coefficient matrices: Xi1 = {xi}, Xi2 = {xi, phi}.

    Xi2 keeps the full p+q column set, including columns that happen to
    be identically zero, so column labels always line up with the space.
    """
    xi1 = ExpressionMatrix(
        tuple(f.xi for f in a.fields),
        a.generator_names(), a.space.independents,
        name="Xi1(%s)" % a.name)
    xi2 = ExpressionMatrix(
        tuple(f.xi + f.phi for f in a.fields),
        a.generator_names(), a.space.independents + a.space.dependents,
        name="Xi2(%s)" % a.name)
    return xi1, xi2


def characteristic_row(v: VectorField) -> tuple[Expression, ...]:
    space = v.space
    row = []
    for alpha, dep in enumerate(space.dependents):
        terms: list[Expression] = [v.phi[alpha]]
        for i in range(space.p):
            if v.xi[i] == ZERO:
                continue
            jet = key_variable(space, JetKey(alpha, tuple(1 if j == i else 0
                                                          for j in range(space.p))))
            terms.append(Product((MINUS_ONE, v.xi[i], jet)))
        row.append(normalize(Sum(tuple(terms))))
    return tuple(row)


def characteristic_matrix(a: Algebra) -> ExpressionMatrix:
    """Q(a, alpha) = phi^a_alpha - sum_i xi^a_i * d(u_alpha, x_i)."""
    return ExpressionMatrix(
        tuple(characteristic_row(f) for f in a.fields),
        a.generator_names(), a.space.dependents,
        name="Q(%s)" % a.name)


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Commutator [v, w] as a vector field on (x, u)."""
    if v.space != w.space:
        raise FieldError("bracket of fields on different spaces")
    xi = tuple(normalize(Sum((v.apply_to(w.xi[i]),
                              Product((MINUS_ONE, w.apply_to(v.xi[i]))))))
               for i in range(v.space.p))
    phi = tuple(normalize(Sum((v.apply_to(w.phi[a]),
                               Product((MINUS_ONE, w.apply_to(v.phi[a]))))))
                for a in range(v.space.q))
    return VectorField(v.space, xi, phi, name="[%s,%s]" % (v.name, w.name))


@dataclass
class ClosureReport:
    """Outcome of closure_check: membership of A in span(within) plus all
    pairwise bracket structure coefficients over within's basis."""

    ok: bool
    structure: dict[tuple[int, int], tuple[float, ...]]
    membership: dict[int, tuple[float, ...]]
    worst_residual: float
    flagged: bool = False
    # True when the polynomial route decided (see closure_check)
    exact: bool = False

    def __bool__(self) -> bool:
        return self.ok


CLOSURE_TOL = 1e-8


def _field_samples(fields_components: list[tuple[Expression, ...]],
                   space: VariableSpace, plan: SamplePlan) -> list[list[complex]]:
    """Evaluate each component tuple at shared random (x, u) points.

    Returns one list per input tuple: its components stacked over the
    points, (p+q)*points Python complex values.
    """
    width = space.p + space.q
    columns = [[] for _ in fields_components]
    for s in sampled([e for comps in fields_components for e in comps], plan,
                     names=space.independents + space.dependents,
                     label="closure sampling"):
        for k, col in enumerate(columns):
            col.extend(s.values[k * width:(k + 1) * width])
    return columns


def _fit_in_span(targets: list[list[complex]], basis: list[list[complex]]
                 ) -> tuple[list[tuple[tuple[float, ...], float]], bool]:
    """Fit each target over basis, vectors of equal length: the real parts
    of its coefficients and its residual relative to max(1, |target|),
    and whether basis is deficient.  basis is eliminated in place by
    analysis._eliminate at its largest entry; a target, reduced by the
    pivot rows in order, leaves its residual at the free columns.  Its
    coefficients are back substituted: a pivot row keeps, at each earlier
    pivot's column, the entry that pivot's factor was read from.
    """
    from .analysis import _eliminate

    pivots, free = _eliminate(basis, max(max(moduli(v)) for v in basis))
    fits = []
    for t in targets:
        norm = max(1.0, math.hypot(*moduli(t)))
        coeff = [0j] * len(basis)
        for r, c in pivots:
            coeff[r] = k = t[c] / basis[r][c]
            if k:
                t = [x - k * y for x, y in zip(t, basis[r])]
        for n, (r, c) in reversed(list(enumerate(pivots))):
            coeff[r] -= sum(coeff[s] * basis[s][c] for s, _ in pivots[n + 1:]) / basis[r][c]
        fits.append((tuple(z.real for z in coeff),
                     math.hypot(*moduli([t[c] for c in free])) / norm))
    return fits, len(pivots) < len(basis)


def closure_check(a: Algebra, within: Algebra,
                  plan: SamplePlan | None = None) -> ClosureReport:
    """True iff span(a) lies in span(within) and every pairwise bracket of
    a's generators does too, with constant coefficients.

    When every component of a and within is a polynomial (symred.poly),
    the brackets are built on polynomials and each is fitted over
    within's generators by exact elimination: it counts only if nothing
    remains, and an exact rank below within.r sets the flagged bit.  Any
    other field goes to _closure_by_sampling.  Only that route reads the
    plan; its points come from a's own plan unless one is given.
    """
    if a.space != within.space:
        raise FieldError("closure_check across different spaces")
    report = _closure_exact(a, within)
    return report if report is not None else _closure_by_sampling(a, within, plan or a.plan)


def _closure_exact(a: Algebra, within: Algebra) -> ClosureReport | None:
    """closure_check over Q(i), or None when a component does not convert
    or an expansion passes poly.MAX_TERMS.  [v, w]_k = v(w_k) - w(v_k),
    v(f) = sum_j v_j df/dz_j over the coordinates z; a fit's residual is
    its remainder's coefficient 2-norm over max(1, the target's)."""
    from . import poly

    names = a.space.independents + a.space.dependents
    polys = {id(f): [poly.to_poly(e) for e in f.components()]
             for f in within.fields + a.fields}
    if any(None in comps for comps in polys.values()):
        return None

    def apply(v, f):
        if not f:
            return f
        return poly.add(*[poly.mul(c, poly.diff(f, z)) for c, z in zip(v, names) if c])

    pairs = [(i, j) for i in range(a.r) for j in range(i + 1, a.r)]
    members = [polys[id(f)] for f in a.fields]
    try:
        brackets = [[poly.add(apply(members[i], wk), poly.scale(apply(members[j], vk),
                                                                poly.MINUS_ONE))
                     for vk, wk in zip(members[i], members[j])] for i, j in pairs]
    except poly.TooLarge:
        return None
    span = poly.Span([poly.vector(polys[id(f)]) for f in within.fields])
    coeffs, resids, ok = [], [], True
    for target in map(poly.vector, members + brackets):
        c, rest = span.fit(target)
        coeffs.append(tuple(float(re) for re, _ in c))
        resids.append(poly.norm(rest) / max(1.0, poly.norm(target)) if rest else 0.0)
        ok = ok and not rest
    return ClosureReport(ok, dict(zip(pairs, coeffs[a.r:])),
                         dict(enumerate(coeffs[:a.r])), max(resids),
                         flagged=span.rank < within.r, exact=True)


def _closure_by_sampling(a: Algebra, within: Algebra, plan: SamplePlan) -> ClosureReport:
    """closure_check from values: each member and bracket (lie_bracket)
    is fitted over within's generators at the plan's sampled (x, u)
    points by _fit_in_span and counts only if its relative residual is
    below CLOSURE_TOL; a deficient within sets the flagged bit."""
    brackets = {(i, j): lie_bracket(a.fields[i], a.fields[j])
                for i in range(a.r) for j in range(i + 1, a.r)}
    components = [f.components() for f in within.fields + a.fields + tuple(brackets.values())]
    vectors = _field_samples(components, a.space, plan)
    fits, flagged = _fit_in_span(vectors[within.r:], vectors[:within.r])
    coeffs, resids = zip(*fits)
    return ClosureReport(max(resids) < CLOSURE_TOL, dict(zip(brackets, coeffs[a.r:])),
                         dict(enumerate(coeffs[:a.r])), max(resids), flagged=flagged)


def _prolong_order(key: JetKey) -> tuple:
    # order, dependent, then multi-index descending: the order in which
    # the level-by-level recursion first reaches each key
    return key.order, key.alpha, tuple(-k for k in key.orders)


def _d_xi(v: VectorField, i: int) -> tuple[Expression, ...]:
    """The row D_i xi_j over j, kept in v's memo under i."""
    row = v._jets.get(i)
    if row is None:
        row = v._jets[i] = tuple(total_derivative(xi, v.space, i) for xi in v.xi)
    return row


def _coefficient(v: VectorField, key: JetKey) -> Expression:
    """phi^{alpha,J}, built from its parent J - e_i, i the last index with
    J_i > 0, and kept in v's memo:

    phi^{alpha, J+e_i} = D_i phi^{alpha,J} - sum_j (D_i xi_j) * u^alpha_{J+e_j}.
    """
    coeff = v._jets.get(key)
    if coeff is not None:
        return coeff
    if key.order == 0:
        coeff = v.phi[key.alpha]
    else:
        i = max(j for j, k in enumerate(key.orders) if k)
        parent = key.orders[:i] + (key.orders[i] - 1,) + key.orders[i + 1:]
        terms = [total_derivative(_coefficient(v, JetKey(key.alpha, parent)), v.space, i)]
        for j, d_xi in enumerate(_d_xi(v, i)):
            if d_xi == ZERO:
                continue
            bump = parent[:j] + (parent[j] + 1,) + parent[j + 1:]
            jet = key_variable(v.space, JetKey(key.alpha, bump))
            terms.append(Product((MINUS_ONE, d_xi, jet)))
        coeff = normalize(Sum(tuple(terms)))
    v._jets[key] = coeff
    return coeff


def _check_order(space: VariableSpace, order: int) -> None:
    if order > space.max_order:
        raise JetError("prolongation order %d exceeds max_order %d"
                       % (order, space.max_order))


def prolong(v: VectorField, order: int) -> dict[JetKey, Expression]:
    """Prolongation coefficients phi^{alpha,J} for |J| <= order."""
    _check_order(v.space, order)
    keys = sorted(jet_keys(v.space, order), key=_prolong_order)
    return {key: _coefficient(v, key) for key in keys}


def apply_prolonged(v: VectorField, e: Expression) -> Expression:
    """pr v applied to an expression over the jet space.

    Only the coefficients of the jet coordinates that occur in e are
    built; pr v's other terms vanish on e.
    """
    space = v.space
    keys = read_keys(space, (e,))
    _check_order(space, max((key.order for key in keys), default=0))
    terms = []
    for i, x in enumerate(space.independents):
        de = differentiate(e, x)
        if de == ZERO or v.xi[i] == ZERO:
            continue
        terms.append(Product((v.xi[i], de)))
    for key in sorted(keys, key=_prolong_order):
        de = differentiate(e, key_variable(space, key).name)
        if de == ZERO:
            continue
        phi = _coefficient(v, key)
        if phi == ZERO:
            continue
        terms.append(Product((phi, de)))
    return normalize(Sum(tuple(terms))) if terms else ZERO
