"""Rank-based decision calculus: generic ranks, transversality, weak
minors, defect, invariance, constant kernels and prolongation checks.

Every rank here is a sampled rank: evaluated at random points, reduced
with full pivoting, and maximized over points and seeds (ranks only drop
on subvarieties, so the maximum is the generic value).  A constant
kernel comes out of the same elimination, as reduced row echelon rows.

Each object is sampled on the plan it carries.  The algebra's own
matrices Xi1 and Xi2 live on its (x, u) domain and sample on its plan;
the weak minors are exact but for rank Xi1.  Anything read on a
candidate's graph under an algebra (Xi|c, Q|c, the minors on c) samples
on `graph_plan`: the candidate's plan, completed by the algebra's
domain.  A check of a candidate alone samples on the candidate's plan.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from operator import add
from typing import Mapping, Sequence

from .expr import (
    MINUS_ONE,
    ZERO,
    Expression,
    Product,
    Sum,
    SymredError,
    normalize,
)
from .fields import Algebra, ExpressionMatrix, characteristic_matrix, xi_matrices
from .jets import CandidateSolution, JetPoint, sample_points, substitute_candidate
from .numeric import moduli
from .sampling import EQUIV_ABS, SamplePlan, numeric_equiv, peaks, sampled

RANK_PIVOT_REL_TOL = 1e-9
RESIDUAL_TOL = 1e-8
SYMMETRY_TOL = 1e-7


class AnalysisError(SymredError, RuntimeError):
    pass


def pivot_rank(matrix: Sequence[Sequence[complex]], scale: float | None = None) -> int:
    """Rank of a list of rows, read as Python complex values, by _eliminate.

    scale defaults to the largest magnitude of the initial matrix; rank
    work on symbolic matrices passes the pre-cancellation term mass
    instead, so an entry that is zero only up to rounding dust is not
    mistaken for a pivot of a tiny-but-honest matrix.
    """
    a = [[complex(v) for v in row] for row in matrix]
    if not a or not a[0]:
        return 0
    if scale is None:
        scale = max(max(moduli(row)) for row in a)
    if scale == 0.0:
        return 0
    return len(_eliminate(a, scale)[0])


def _eliminate(a: list[list[complex]], scale: float) -> tuple[list[tuple[int, int]], list[int]]:
    """Gaussian elimination with full pivoting of the rows a, in place,
    while a pivot's magnitude exceeds RANK_PIVOT_REL_TOL times scale:
    each pivot's (row, column) in order, and the columns left without one."""
    tol = RANK_PIVOT_REL_TOL * scale
    rows = list(range(len(a)))
    cols = list(range(len(a[0])))
    pivots = []
    while rows and cols:
        size, piv_row, piv_col = _pivot(a, rows, cols)
        if size <= tol:
            break
        pivots.append((piv_row, piv_col))
        rows.remove(piv_row)
        cols.remove(piv_col)
        pivot = a[piv_row]
        for r in rows:
            row = a[r]
            factor = row[piv_col] / pivot[piv_col]
            if factor != 0:
                for c in cols:
                    row[c] -= factor * pivot[c]
    return pivots, cols


def _pivot(a, rows, cols):
    """(|pivot|, row, column): the first largest magnitude over rows x
    cols, row by row, or the first NaN, as numpy's argmax picks."""
    best = -1.0, rows[0], cols[0]
    for r in rows:
        size = moduli(a[r])
        for c in cols:
            m = size[c]
            if m != m:
                return m, r, c
            if m > best[0]:
                best = m, r, c
    return best


class _Report:
    """Base of the reports below: to_dict writes each dataclass field
    under its own name, ready for json.dumps(sort_keys=True)."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    # mapping keys become text (seed 10 sorts before seed 8), sequences
    # become lists, a nested report is written the same way
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


@dataclass
class RankReport(_Report):
    matrix_id: str
    ranks: dict[int, list[int]]            # seed -> rank at each accepted point
    generic_rank: int
    tolerance: float
    non_generic: bool


def _total(columns: list[list], start) -> list:
    """Entry by entry, start plus each column in turn (builtin sum
    compensates float rounding from Python 3.12 on)."""
    out = [start] * len(columns[0])
    for column in columns:
        out = map(add, out, column)
    return list(out)


def _value_and_mass(e: Expression, at) -> tuple[list[complex], list[float]]:
    """Value plus the entry's pre-cancellation magnitude, per point.

    For a Sum the mass is the sum of the term magnitudes: the scale the
    value *would* have if its terms did not cancel.  This is the right
    yardstick for deciding whether a tiny value is structural zero dust
    or a genuinely small entry.
    """
    if isinstance(e, Sum):
        vals = [at(t) for t in e.terms]
        return _total(vals, 0j), _total([moduli(v) for v in vals], 0.0)
    val = at(e)
    return val, moduli(val)


def _masses(exprs: Sequence[Expression], at, live) -> list[tuple]:
    """Per point: the entry values and the largest entry mass."""
    pairs = [_value_and_mass(e, at) for e in exprs]
    values = zip(*(v for v, _ in pairs))
    scales = map(max, zip(*(mass for _, mass in pairs)))
    return list(zip(values, scales))


def _matrix_values(m: ExpressionMatrix, plan: SamplePlan):
    """Yield (seed, numeric matrix as a list of rows, mass scale) per
    accepted sample.

    Every free variable is drawn from the plan box; opaque symbols get
    per-seed instantiations.
    """
    rows, width = m.shape
    for s in sampled(m.all_entries(), plan, reader=_masses,
                     label="matrix %s" % m.name):
        vals, scale = s.values
        yield s.seed, [vals[i * width:(i + 1) * width] for i in range(rows)], scale


def generic_rank(m: ExpressionMatrix, plan: SamplePlan = SamplePlan()) -> RankReport:
    """Generic rank of a symbolic matrix by seeded sampling: every free
    variable (jet slots included) is drawn from the plan box."""
    ranks: dict[int, list[int]] = {}
    for seed, numeric, mass in _matrix_values(m, plan):
        ranks.setdefault(seed, []).append(pivot_rank(numeric, scale=mass))
    observed = [r for seen in ranks.values() for r in seen]
    top = max(observed)
    return RankReport(m.name, ranks, top, RANK_PIVOT_REL_TOL,
                      non_generic=any(r != top for r in observed))


@dataclass
class TransversalityReport(_Report):
    algebra: str
    rank_xi1: int
    rank_xi2: int
    status: str                    # "Strong" | "ViolatedStrong"
    weak_status: str | None = None  # "WeakHolds" | "WeakFails" | None
    candidate: str | None = None
    rank_xi1_on_candidate: int | None = None
    rank_xi2_on_candidate: int | None = None
    non_generic: bool = False


def substitute_matrix(m: ExpressionMatrix, c: CandidateSolution) -> ExpressionMatrix:
    return ExpressionMatrix(
        tuple(tuple(substitute_candidate(e, c) for e in row) for row in m.entries),
        m.row_labels, m.col_labels, name="%s|%s" % (m.name, c.name))


def graph_plan(a: Algebra, c: CandidateSolution) -> SamplePlan:
    """The plan for reading a's matrices on c's graph: c's plan, plus
    a's domain for each variable c's box does not name; complex if
    either plan is."""
    return c.plan.with_(box={**a.plan.box, **c.plan.box},
                        allow_complex=a.plan.allow_complex or c.plan.allow_complex)


def classify_transversality(a: Algebra, candidate: CandidateSolution | None = None
                            ) -> TransversalityReport:
    """Strong transversality iff rank Xi1 = rank Xi2 generically; with a
    candidate, weak transversality iff the ranks agree on its graph."""
    xi1, xi2 = xi_matrices(a)
    r1 = generic_rank(xi1, a.plan)
    r2 = generic_rank(xi2, a.plan)
    report = TransversalityReport(
        a.name, r1.generic_rank, r2.generic_rank,
        "Strong" if r1.generic_rank == r2.generic_rank else "ViolatedStrong",
        non_generic=r1.non_generic or r2.non_generic)
    if candidate is not None:
        plan = graph_plan(a, candidate)
        c1 = generic_rank(substitute_matrix(xi1, candidate), plan)
        c2 = generic_rank(substitute_matrix(xi2, candidate), plan)
        report.candidate = candidate.name
        report.rank_xi1_on_candidate = c1.generic_rank
        report.rank_xi2_on_candidate = c2.generic_rank
        report.weak_status = ("WeakHolds" if c1.generic_rank == c2.generic_rank
                              else "WeakFails")
        report.non_generic |= c1.non_generic or c2.non_generic
    return report


def _symbolic_minor(m: ExpressionMatrix, rows: Sequence[int],
                    cols: Sequence[int]) -> Expression:
    """Determinant by cofactor expansion; fine for the sizes ranks allow."""
    n = len(rows)
    if n == 1:
        return m.entries[rows[0]][cols[0]]
    terms = []
    for j, col in enumerate(cols):
        entry = m.entries[rows[0]][col]
        if entry == ZERO:
            continue
        sub = _symbolic_minor(m, rows[1:], cols[:j] + cols[j + 1:])
        if sub == ZERO:
            continue
        factors = (entry, sub) if j % 2 == 0 else (MINUS_ONE, entry, sub)
        terms.append(Product(factors))
    if not terms:
        return ZERO
    return normalize(Sum(tuple(terms)))


def weak_minors(a: Algebra) -> list[Expression]:
    """The (rho+1) x (rho+1) minors of Xi2, rho = generic rank of Xi1.

    Setting these to zero is what weak transversality demands of a
    candidate class.  Only rho is sampled.  Each minor is expanded
    exactly over symred.poly atoms (each distinct subtree poly refuses is
    a fresh variable) along its first row, each sub-minor once.  A minor
    is dropped when 0 and merged into an earlier one equal up to sign;
    the first of each class is kept, as its cofactor tree.  Both are
    sound, but a minor that is 0 or a repeat only through an identity
    between atoms is kept (u*exp(2*x) - u*exp(x)^2).  Past poly.MAX_TERMS
    a minor is kept unless its tree is 0, merged only with an equal tree.
    """
    from . import poly

    xi1, xi2 = xi_matrices(a)
    rho = generic_rank(xi1, a.plan).generic_rank
    size = rho + 1
    rows_n, cols_n = xi2.shape
    if size > min(rows_n, cols_n):
        raise AnalysisError(
            "rank Xi1 = %d already equals the minimal dimension of Xi2; "
            "no larger minors exist" % rho)
    atoms: dict = {}
    entries = [[poly.to_poly(e, atoms) for e in row] for row in xi2.entries]

    @functools.cache
    def minor(rows: tuple, cols: tuple) -> dict | None:
        # Laplace expansion along the first row; None past poly.MAX_TERMS
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        terms = []
        for j, col in enumerate(cols):
            entry = entries[rows[0]][col]
            sub = minor(rows[1:], cols[:j] + cols[j + 1:]) if entry != {} else {}
            if entry == {} or sub == {}:
                continue
            if entry is None or sub is None:
                return None
            try:
                terms.append(poly.mul(poly.scale(entry, poly.MINUS_ONE) if j % 2 else entry, sub))
            except poly.TooLarge:
                return None
        total = poly.add(*terms)
        return total if len(total) <= poly.MAX_TERMS else None

    kept, seen = [], set()
    for rows in itertools.combinations(range(rows_n), size):
        for cols in itertools.combinations(range(cols_n), size):
            p = minor(rows, cols)
            if p == {}:
                continue
            # p and -p share a key, the larger of their sorted items; past
            # the cap a minor is its own tree, merged only with an equal one
            key = _symbolic_minor(xi2, rows, cols) if p is None else max(
                tuple(sorted(q.items())) for q in (p, poly.scale(p, poly.MINUS_ONE)))
            if key != ZERO and key not in seen:
                seen.add(key)
                kept.append(key if p is None else _symbolic_minor(xi2, rows, cols))
    return kept


def minors_on_candidate(minors: Sequence[Expression], c: CandidateSolution,
                        a: Algebra) -> tuple[float, bool]:
    """(largest |minor| over the candidate's jet points, weak holds), the
    points drawn on graph_plan(a, c).

    Weak transversality holds iff that maximum is at most EQUIV_ABS,
    the bound numeric_equiv applies against zero.  No minors give 0.0
    and holds.
    """
    if not minors:
        return 0.0, True
    plan = graph_plan(a, c)
    points = sample_points(c, plan, minors)
    worst = max(peak.value for peak in peaks(minors, plan, points=points))
    return worst, worst <= EQUIV_ABS


def weak_check_candidate(a: Algebra, c: CandidateSolution) -> bool:
    """True iff every weak minor vanishes on the candidate's jet points,
    as minors_on_candidate decides.

    Vacuously true when the minors cannot exist by dimension count
    (rank Xi2 can never exceed rank Xi1 then).
    """
    try:
        minors = weak_minors(a)
    except AnalysisError:
        return True
    return minors_on_candidate(minors, c, a)[1]


@dataclass
class DefectReport(_Report):
    algebra: str
    candidate: str
    delta: int
    m0: int
    orbit_rank: int                 # generic rank of Xi2 (orbit dimension s)
    classification: str             # Invariant | PartiallyInvariant | Generic
    non_generic: bool
    rank_report: RankReport         # the rank of Q on the candidate's graph


def defect(a: Algebra, c: CandidateSolution) -> DefectReport:
    """delta = generic rank of Q restricted to the candidate's graph.

    The genericity bound is m0 = min{s, q} with s the orbit dimension
    (generic rank of Xi2 on the unrestricted space).
    """
    restricted = substitute_matrix(characteristic_matrix(a), c)
    rank = generic_rank(restricted, graph_plan(a, c))
    _, xi2 = xi_matrices(a)
    s = generic_rank(xi2, a.plan).generic_rank
    m0 = min(s, a.space.q)
    delta = rank.generic_rank
    if delta > m0:
        raise AnalysisError("measured defect %d exceeds the bound m0 = %d" % (delta, m0))
    if delta == 0:
        kind = "Invariant"
    elif delta == m0:
        kind = "Generic"
    else:
        kind = "PartiallyInvariant"
    return DefectReport(a.name, c.name, delta, m0, s, kind,
                        rank.non_generic, rank)


def invariance_check(a: Algebra, c: CandidateSolution) -> bool:
    """True iff every characteristic vanishes on the candidate.

    Deliberately not implemented as defect() == 0: this is the second
    route of the dual check that rank 0 and entrywise vanishing agree.
    """
    plan = graph_plan(a, c)
    q_matrix = characteristic_matrix(a)
    for row in q_matrix.entries:
        for entry in row:
            restricted = substitute_candidate(entry, c)
            if not numeric_equiv(restricted, ZERO, plan):
                return False
    return True


@dataclass
class KernelReport(_Report):
    algebra: str
    candidate: str
    generator_order: tuple[str, ...]
    pointwise_kernel_dim: int
    constant_kernel: list[tuple[float, ...]]   # reduced row echelon rows
    matched_combination: str | None
    non_generic: bool


def constant_kernel_generators(a: Algebra, c: CandidateSolution,
                               named_combinations: Mapping[str, Sequence[float]] | None = None,
                               ) -> KernelReport:
    """Constant left-kernel of Q on the candidate: all v with v . Q = 0
    at every sampled point.

    Q(point) is r x q per point; stacking the transposes gives B with
    B v = 0, reduced to the echelon basis of its kernel by _null_space.
    The pointwise kernel dimension r - rank Q(point) is reported alongside.
    The report holds real rows: an imaginary part above RANK_PIVOT_REL_TOL
    times its row's largest entry raises AnalysisError.
    """
    q_matrix = substitute_matrix(characteristic_matrix(a), c)
    stacked = []
    point_ranks = []
    mass_scale = 0.0
    for _seed, numeric, mass in _matrix_values(q_matrix, graph_plan(a, c)):
        stacked.extend(map(list, zip(*numeric)))
        point_ranks.append(pivot_rank(numeric, scale=mass))
        mass_scale = max(mass_scale, mass)
    rows = _null_space(stacked, mass_scale)
    if any(max(abs(x.imag) for x in row) > RANK_PIVOT_REL_TOL * max(moduli(row)) for row in rows):
        raise AnalysisError("constant kernel of %s on candidate %s is complex" % (a.name, c.name))
    kernel = [tuple(x.real for x in row) for row in rows]

    generic_q_rank = max(point_ranks)
    return KernelReport(
        a.name, c.name, a.generator_names(), a.r - generic_q_rank, kernel,
        _match_span(kernel, named_combinations),
        non_generic=any(r != generic_q_rank for r in point_ranks))


def _null_space(a: list[list[complex]], scale: float) -> list[list[complex]]:
    """Reduced row echelon basis of the v with a v = 0 (each row's first
    nonzero entry, its lead, is 1 and alone in its column; leads run in
    column order), a's rank as _eliminate decides it, a reduced in place.
    The null vectors 1 at one free column and 0 at the others are solved
    last pivot first, each pivot row read over the columns left when it
    was taken; leads are then taken as pivots are, dust before them cleared."""
    pivots, free = _eliminate(a, scale)
    if not free:
        return []
    cols = {f: [complex(g == f) for g in free] for f in free}
    for r, c in reversed(pivots):
        dots = _total([[a[r][k] * x for x in col] for k, col in cols.items()], 0j)
        cols[c] = [-d / a[r][c] for d in dots]
    rows = [list(v) for v in zip(*(cols[k] for k in range(len(cols))))]
    tol = RANK_PIVOT_REL_TOL * max(max(moduli(v)) for v in rows)
    done = []
    for col in range(len(cols)):
        lead = max(rows, key=lambda row: abs(row[col]), default=None)
        if lead is None or abs(lead[col]) <= tol:
            continue
        rows.remove(lead)
        lead = [0j] * col + [1 + 0j] + [x / lead[col] for x in lead[col + 1:]]
        for row in rows + done:
            row[:] = [x - row[col] * y for x, y in zip(row, lead)]
        done.append(lead)
    return done


def _match_span(kernel: list[tuple[float, ...]],
                named: Mapping[str, Sequence[float]] | None) -> str | None:
    """The named combinations, joined, if they are as many as the echelon
    rows and each lies in their span to RESIDUAL_TOL, read at their leads."""
    if not named or len(named) != len(kernel):
        return None
    for combo in named.values():
        resid = list(combo)
        for row in kernel:
            coeff = resid[next(j for j, x in enumerate(row) if x)]
            resid = [r - coeff * x for r, x in zip(resid, row)]
        if math.hypot(*resid) > RESIDUAL_TOL * max(1.0, math.hypot(*combo)):
            return None
    return " , ".join(sorted(named))


def max_abs_on_points(e: Expression, points: Sequence[JetPoint] | None,
                      plan: SamplePlan) -> float:
    """Largest |e| over jet points, or over box draws of its free
    variables when points is None; rejected points are skipped."""
    return next(peaks((e,), plan, points=points)).value


def symmetry_check(system: Sequence[Expression], v, donor: CandidateSolution) -> bool:
    """Does pr v annihilate the system on the donor solution's jet points?

    The points are drawn on the donor's plan to read the system and pr v
    of it.  The donor must itself satisfy the system to RESIDUAL_TOL,
    otherwise the check would be vacuous; that precondition failing is an
    error, not a False.
    """
    from .fields import apply_prolonged

    plan = donor.plan
    acted = [apply_prolonged(v, e) for e in system]
    exprs = list(system) + acted
    for k, peak in enumerate(peaks(exprs, plan, points=sample_points(donor, plan, exprs))):
        if k < len(system):
            if peak.value >= RESIDUAL_TOL:
                raise AnalysisError(
                    "donor %s is not a solution (residual precondition failed)" % donor.name)
        elif peak.value >= SYMMETRY_TOL:
            return False
    return True
