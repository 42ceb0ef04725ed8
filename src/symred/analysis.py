"""Rank-based decision calculus: generic ranks, transversality, weak
minors, defect, invariance, constant kernels and prolongation checks.

Every rank here is a sampled rank: evaluated at random points, reduced
with full pivoting, and maximized over points and seeds (ranks only drop
on subvarieties, so the maximum is the generic value).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

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
from .jets import CandidateSolution, JetPoint, jet_order, sample_points, substitute_candidate
from .sampling import SamplePlan, SamplingError, numeric_equiv, sampled

RANK_PIVOT_REL_TOL = 1e-9
KERNEL_SVD_REL_TOL = 1e-8
RESIDUAL_TOL = 1e-8
SYMMETRY_TOL = 1e-7
FINGERPRINT_POINTS = 8


class AnalysisError(SymredError, RuntimeError):
    pass


def pivot_rank(matrix: np.ndarray, rel_tol: float = RANK_PIVOT_REL_TOL,
               scale: float | None = None) -> int:
    """Rank by Gaussian elimination with full pivoting.

    A pivot counts while its magnitude exceeds rel_tol times `scale`.
    scale defaults to the largest magnitude of the initial matrix; rank
    work on symbolic matrices passes the pre-cancellation term mass
    instead, so an entry that is zero only up to rounding dust is not
    mistaken for a pivot of a tiny-but-honest matrix.
    """
    a = np.array(matrix, dtype=complex)
    if a.size == 0:
        return 0
    if scale is None:
        scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return 0
    tol = rel_tol * scale
    rows = list(range(a.shape[0]))
    cols = list(range(a.shape[1]))
    rank = 0
    while rows and cols:
        sub = np.abs(a[np.ix_(rows, cols)])
        k = int(np.argmax(sub))
        ri, ci = divmod(k, len(cols))
        piv_row, piv_col = rows[ri], cols[ci]
        piv = a[piv_row, piv_col]
        if abs(piv) <= tol:
            break
        rank += 1
        rows.remove(piv_row)
        cols.remove(piv_col)
        for r in rows:
            factor = a[r, piv_col] / piv
            if factor != 0:
                a[r, :] -= factor * a[piv_row, :]
    return rank


@dataclass
class RankReport:
    matrix_id: str
    ranks: dict[int, list[int]]            # seed -> rank at each accepted point
    generic_rank: int
    tolerance: float
    non_generic: bool

    def to_dict(self) -> dict:
        return {
            "matrix_id": self.matrix_id,
            "ranks": {str(seed): list(r) for seed, r in sorted(self.ranks.items())},
            "generic_rank": self.generic_rank,
            "tolerance": self.tolerance,
            "non_generic": self.non_generic,
        }


def _value_and_mass(e: Expression, at) -> tuple[np.ndarray, np.ndarray]:
    """Value plus the entry's pre-cancellation magnitude, per point.

    For a Sum the mass is the sum of the term magnitudes: the scale the
    value *would* have if its terms did not cancel.  This is the right
    yardstick for deciding whether a tiny value is structural zero dust
    or a genuinely small entry.
    """
    if isinstance(e, Sum):
        vals = [at(t) for t in e.terms]
        return sum(vals), sum(np.hypot(v.real, v.imag) for v in vals)
    val = at(e)
    return val, np.hypot(val.real, val.imag)


def _masses(ready: Sequence[Expression], at, live) -> list[tuple]:
    """Per point: the entry values and the largest entry mass."""
    pairs = [_value_and_mass(e, at) for e in ready]
    values = zip(*(v.tolist() for v, _ in pairs))
    scales = map(max, zip(*(mass.tolist() for _, mass in pairs)))
    return list(zip(values, scales))


def _matrix_values(m: ExpressionMatrix, plan: SamplePlan,
                   points: Sequence[JetPoint] | None = None):
    """Yield (seed, numeric matrix, mass scale) per accepted sample.

    Free slots (anything not fixed by a supplied jet point) are drawn
    from the plan box; opaque symbols get per-seed instantiations.
    """
    for s in sampled(m.all_entries(), plan, points=points, reader=_masses,
                     label="matrix %s" % m.name):
        vals, scale = s.values
        yield s.seed, np.array(vals, dtype=complex).reshape(m.shape), scale


def generic_rank(m: ExpressionMatrix, plan: SamplePlan | None = None,
                 points: Sequence[JetPoint] | None = None) -> RankReport:
    """Generic rank of a symbolic matrix by seeded sampling.

    When `points` is given the matrix is evaluated on those jet points;
    otherwise every free variable (including jet slots) is drawn from
    the plan box.
    """
    ranks: dict[int, list[int]] = {}
    for seed, numeric, mass in _matrix_values(m, plan or SamplePlan(), points):
        ranks.setdefault(seed, []).append(pivot_rank(numeric, scale=mass))
    observed = [r for seen in ranks.values() for r in seen]
    top = max(observed)
    return RankReport(m.name, ranks, top, RANK_PIVOT_REL_TOL,
                      non_generic=any(r != top for r in observed))


@dataclass
class TransversalityReport:
    algebra: str
    rank_xi1: int
    rank_xi2: int
    status: str                    # "Strong" | "ViolatedStrong"
    weak_status: str | None = None  # "WeakHolds" | "WeakFails" | None
    candidate: str | None = None
    rank_xi1_on_candidate: int | None = None
    rank_xi2_on_candidate: int | None = None
    non_generic: bool = False

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "rank_xi1": self.rank_xi1,
            "rank_xi2": self.rank_xi2,
            "status": self.status,
            "weak_status": self.weak_status,
            "candidate": self.candidate,
            "rank_xi1_on_candidate": self.rank_xi1_on_candidate,
            "rank_xi2_on_candidate": self.rank_xi2_on_candidate,
            "non_generic": self.non_generic,
        }


def substitute_matrix(m: ExpressionMatrix, c: CandidateSolution) -> ExpressionMatrix:
    return ExpressionMatrix(
        tuple(tuple(substitute_candidate(e, c) for e in row) for row in m.entries),
        m.row_labels, m.col_labels, name="%s|%s" % (m.name, c.name))


def classify_transversality(a: Algebra, plan: SamplePlan | None = None,
                            candidate: CandidateSolution | None = None) -> TransversalityReport:
    """Strong transversality iff rank Xi1 = rank Xi2 generically; with a
    candidate, weak transversality iff the ranks agree on its graph."""
    plan = plan or SamplePlan()
    xi1, xi2 = xi_matrices(a)
    r1 = generic_rank(xi1, plan)
    r2 = generic_rank(xi2, plan)
    report = TransversalityReport(
        a.name, r1.generic_rank, r2.generic_rank,
        "Strong" if r1.generic_rank == r2.generic_rank else "ViolatedStrong",
        non_generic=r1.non_generic or r2.non_generic)
    if candidate is not None:
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


def _fingerprints(exprs: Sequence[Expression], plan: SamplePlan) -> list[tuple]:
    """Shared-point value vectors used to pre-bucket duplicate minors:
    the first FINGERPRINT_POINTS accepted points of the first seed.  A
    seed is evaluated whole, so look among 2 x FINGERPRINT_POINTS points
    first and among 4 x count only if too few of those survive."""
    def first_rows(count):
        one_seed = plan.with_(seeds=plan.seeds[:1], count=count,
                              min_accepted=FINGERPRINT_POINTS)
        return [s.values for s in itertools.islice(
            sampled(exprs, one_seed, label="minor fingerprinting"), FINGERPRINT_POINTS)]
    try:
        rows = first_rows(2 * FINGERPRINT_POINTS)
    except SamplingError:
        rows = first_rows(4 * plan.count)
    return list(zip(*rows))


def _same_up_to_sign(fp1: tuple, fp2: tuple, scale: float) -> int | None:
    """+1 / -1 if the value vectors agree up to a sign, else None."""
    for sign in (1, -1):
        if all(abs(a - sign * b) <= 1e-6 * max(1.0, scale) for a, b in zip(fp1, fp2)):
            return sign
    return None


def weak_minors(a: Algebra, plan: SamplePlan | None = None) -> list[Expression]:
    """The (rho+1) x (rho+1) minors of Xi2, rho = generic rank of Xi1.

    Setting these to zero is what weak transversality demands of a
    candidate class.  Identically-zero minors are dropped; duplicates up
    to sign are merged, keeping the first representative.
    """
    plan = plan or SamplePlan()
    xi1, xi2 = xi_matrices(a)
    rho = generic_rank(xi1, plan).generic_rank
    size = rho + 1
    rows_n, cols_n = xi2.shape
    if size > min(rows_n, cols_n):
        raise AnalysisError(
            "rank Xi1 = %d already equals the minimal dimension of Xi2; "
            "no larger minors exist" % rho)
    minors = []
    for rows in itertools.combinations(range(rows_n), size):
        for cols in itertools.combinations(range(cols_n), size):
            det = _symbolic_minor(xi2, rows, cols)
            if det != ZERO:
                minors.append(det)
    if not minors:
        return []
    prints = _fingerprints(minors, plan)
    scale = max((abs(v) for fp in prints for v in fp), default=1.0)
    kept: list[Expression] = []
    kept_prints: list[tuple] = []
    for det, fp in zip(minors, prints):
        if all(abs(v) <= 1e-9 * max(1.0, scale) for v in fp):
            if numeric_equiv(det, ZERO, plan):
                continue
        duplicate = False
        for prev, prev_fp in zip(kept, kept_prints):
            sign = _same_up_to_sign(fp, prev_fp, scale)
            if sign is not None and numeric_equiv(
                    det, prev if sign == 1 else Product((MINUS_ONE, prev)), plan):
                duplicate = True
                break
        if not duplicate:
            kept.append(det)
            kept_prints.append(fp)
    return kept


def weak_check_candidate(a: Algebra, c: CandidateSolution,
                         plan: SamplePlan | None = None) -> bool:
    """True iff every weak minor vanishes identically on the candidate.

    Vacuously true when the minors cannot exist by dimension count
    (rank Xi2 can never exceed rank Xi1 then).
    """
    plan = plan or SamplePlan()
    try:
        minors = weak_minors(a, plan)
    except AnalysisError:
        return True
    return minors_vanish(minors, c, plan)


def minors_vanish(minors: Sequence[Expression], c: CandidateSolution,
                  plan: SamplePlan) -> bool:
    """True iff every given minor vanishes identically on the candidate."""
    return all(numeric_equiv(substitute_candidate(det, c), ZERO, plan) for det in minors)


@dataclass
class DefectReport:
    algebra: str
    candidate: str
    delta: int
    m0: int
    orbit_rank: int                 # generic rank of Xi2 (orbit dimension s)
    classification: str             # Invariant | PartiallyInvariant | Generic
    non_generic: bool
    rank_report: RankReport | None = None

    def to_dict(self) -> dict:
        out = {
            "algebra": self.algebra,
            "candidate": self.candidate,
            "delta": self.delta,
            "m0": self.m0,
            "orbit_rank": self.orbit_rank,
            "classification": self.classification,
            "non_generic": self.non_generic,
        }
        if self.rank_report is not None:
            out["rank_report"] = self.rank_report.to_dict()
        return out


def defect(a: Algebra, c: CandidateSolution,
           plan: SamplePlan | None = None) -> DefectReport:
    """delta = generic rank of Q restricted to the candidate's graph.

    The genericity bound is m0 = min{s, q} with s the orbit dimension
    (generic rank of Xi2 on the unrestricted space).
    """
    plan = plan or SamplePlan()
    q_matrix = characteristic_matrix(a)
    restricted = substitute_matrix(q_matrix, c)
    rank = generic_rank(restricted, plan)
    _, xi2 = xi_matrices(a)
    s = generic_rank(xi2, plan).generic_rank
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


def invariance_check(a: Algebra, c: CandidateSolution,
                     plan: SamplePlan | None = None) -> bool:
    """True iff every characteristic vanishes on the candidate.

    Deliberately not implemented as defect() == 0: this is the second
    route of the dual check that rank 0 and entrywise vanishing agree.
    """
    plan = plan or SamplePlan()
    q_matrix = characteristic_matrix(a)
    for row in q_matrix.entries:
        for entry in row:
            restricted = substitute_candidate(entry, c)
            if not numeric_equiv(restricted, ZERO, plan):
                return False
    return True


@dataclass
class KernelReport:
    algebra: str
    candidate: str
    generator_order: tuple[str, ...]
    pointwise_kernel_dim: int
    constant_kernel: list[tuple[float, ...]]   # rows, first nonzero = 1
    matched_combination: str | None
    non_generic: bool

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "candidate": self.candidate,
            "generator_order": list(self.generator_order),
            "pointwise_kernel_dim": self.pointwise_kernel_dim,
            "constant_kernel": [list(v) for v in self.constant_kernel],
            "matched_combination": self.matched_combination,
            "non_generic": self.non_generic,
        }


def _normalize_first_nonzero(v: np.ndarray, tol: float = 1e-10) -> tuple[float, ...]:
    for entry in v:
        if abs(entry) > tol:
            v = v / entry
            break
    return tuple(float(x.real) for x in v)


def constant_kernel_generators(a: Algebra, c: CandidateSolution,
                               plan: SamplePlan | None = None,
                               named_combinations: Mapping[str, Sequence[float]] | None = None,
                               ) -> KernelReport:
    """Constant left-kernel of Q on the candidate: all v with v . Q = 0
    at every sampled point.

    Q(point) is r x q per point; stacking the transposes gives B with
    B v = 0, solved by SVD with a 1e-8 relative singular-value cut.  The
    pointwise kernel dimension r - rank Q(point) is reported alongside.
    """
    plan = plan or SamplePlan()
    q_matrix = substitute_matrix(characteristic_matrix(a), c)
    blocks = []
    point_ranks = []
    mass_scale = 0.0
    for _seed, numeric, mass in _matrix_values(q_matrix, plan):
        blocks.append(numeric.T)
        point_ranks.append(pivot_rank(numeric, scale=mass))
        mass_scale = max(mass_scale, mass)
    stacked = np.vstack(blocks)
    if np.max(np.abs(stacked.imag)) < 1e-12 * max(1.0, np.max(np.abs(stacked.real))):
        stacked = stacked.real
    _, sigma, vt = np.linalg.svd(stacked)
    if sigma.size and max(sigma[0], mass_scale) > 0:
        null_mask = sigma <= KERNEL_SVD_REL_TOL * max(sigma[0], mass_scale)
    else:
        null_mask = np.ones_like(sigma, dtype=bool)
    n_cols = stacked.shape[1]
    dim = int(null_mask.sum()) + max(0, n_cols - len(sigma))
    basis = [vt[i] for i in range(len(sigma)) if null_mask[i]]
    basis += [vt[i] for i in range(len(sigma), n_cols)]
    kernel = [_normalize_first_nonzero(np.asarray(v, dtype=complex)) for v in basis[:dim]]

    generic_q_rank = max(point_ranks)
    pointwise_dim = a.r - generic_q_rank
    matched = None
    if named_combinations and len(named_combinations) == len(kernel):
        matched = _match_span(kernel, named_combinations)
    return KernelReport(
        a.name, c.name, a.generator_names(), pointwise_dim, kernel, matched,
        non_generic=any(r != generic_q_rank for r in point_ranks))


def _match_span(kernel: list[tuple[float, ...]],
                named: Mapping[str, Sequence[float]]) -> str | None:
    if not kernel:
        return None
    basis = np.array(kernel, dtype=float).T
    names = []
    for name, combo in named.items():
        target = np.array(combo, dtype=float)
        coeff, _, _, _ = np.linalg.lstsq(basis, target, rcond=None)
        resid = np.linalg.norm(basis @ coeff - target)
        if resid > KERNEL_SVD_REL_TOL * max(1.0, np.linalg.norm(target)):
            return None
        names.append(name)
    return " , ".join(sorted(names))


def max_abs_on_points(e: Expression, points: Sequence[JetPoint] | None,
                      plan: SamplePlan) -> float:
    """Largest |e| over jet points, or over box draws of its free
    variables when points is None; rejected points are skipped."""
    worst = 0.0
    for s in sampled((e,), plan, points=points, label="expression"):
        worst = max(worst, abs(s.values[0]))
    return worst


def symmetry_check(system: Sequence[Expression], v, donor: CandidateSolution,
                   plan: SamplePlan | None = None, order: int | None = None) -> bool:
    """Does pr v annihilate the system on the donor solution's jet points?

    The donor must itself satisfy the system to RESIDUAL_TOL, otherwise
    the check would be vacuous; that precondition failing is an error,
    not a False.
    """
    from .fields import apply_prolonged

    plan = plan or SamplePlan()
    if order is None:
        order = jet_order(donor.space, system)
    points = sample_points(donor, plan, order)
    for e in system:
        if max_abs_on_points(e, points, plan) >= RESIDUAL_TOL:
            raise AnalysisError(
                "donor %s is not a solution (residual precondition failed)" % donor.name)
    for e in system:
        acted = apply_prolonged(v, e)
        if max_abs_on_points(acted, points, plan) >= SYMMETRY_TOL:
            return False
    return True
