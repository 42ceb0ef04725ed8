"""Shared test oracles: random expression trees, finite differences, the
recursive canonical sort key, a brute-force minor rank, the numpy
elimination rank, the numpy SVD kernel, the numpy least-squares fit and
the float fingerprint route to the weak minors, plus the benchmark's CLI
job list.  Everything is seeded; no test depends
on global RNG state."""

from __future__ import annotations

import importlib.util
import itertools
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from symred.expr import (
    Builtin,
    Constant,
    Expression,
    ExpressionError,
    FunctionApp,
    ImaginaryUnit,
    Power,
    Product,
    Sum,
    Variable,
    add,
    con,
    cos,
    differentiate,
    div,
    exp,
    free_variables,
    ln,
    mul,
    neg,
    pow_,
    sin,
    sqrt,
    var,
)
from symred.expr import _KIND_RANK, MINUS_ONE, ZERO
from symred.analysis import (
    RANK_PIVOT_REL_TOL,
    AnalysisError,
    _symbolic_minor,
    generic_rank,
)
from symred.fields import Algebra, xi_matrices
from symred.numeric import Binding, PointRejected, evaluate
from symred.sampling import (
    SamplePlan,
    SamplingError,
    draw_values,
    numeric_equiv,
    sampled,
    shared_instantiation,
)

VARS = ("x", "y", "z")


def random_expression(rng: np.random.Generator, depth: int = 3) -> Expression:
    """A small random tree over x, y, z with smooth builtins."""
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.6:
            return var(VARS[rng.integers(0, len(VARS))])
        return con(int(rng.integers(-4, 5)) or 1)
    pick = rng.uniform()
    if pick < 0.30:
        return add(random_expression(rng, depth - 1),
                   random_expression(rng, depth - 1))
    if pick < 0.55:
        return mul(random_expression(rng, depth - 1),
                   random_expression(rng, depth - 1))
    if pick < 0.65:
        num = random_expression(rng, depth - 1)
        den = random_expression(rng, depth - 1)
        try:
            return div(num, den)
        except ExpressionError:     # denominator folded to exact zero
            return num
    if pick < 0.72:
        return pow_(random_expression(rng, depth - 1),
                    int(rng.integers(2, 4)))
    if pick < 0.79:
        return neg(random_expression(rng, depth - 1))
    inner = random_expression(rng, depth - 1)
    builtin = (exp, sin, cos, ln, sqrt)[rng.integers(0, 5)]
    return builtin(inner)


def finite_difference(e: Expression, name: str, values: dict,
                      h_scale: float = 1e-6) -> complex:
    """Central difference of e along name at the given point."""
    h = h_scale * max(1.0, abs(values[name]))
    hi, lo = dict(values), dict(values)
    hi[name] = values[name] + h
    lo[name] = values[name] - h
    vh = evaluate(e, Binding(hi), real_domain=True)
    vl = evaluate(e, Binding(lo), real_domain=True)
    return (vh - vl) / (2 * h)


def try_fd_case(e: Expression, name: str, values: dict) -> float | None:
    """Relative derivative gap at one point, or None if unusable there.

    A point is unusable when evaluation rejects it, anything overflows,
    the finite-difference stencil straddles a singularity, or the
    derivative does not exist (ln/sqrt of an exact zero).
    """
    try:
        exact = evaluate(differentiate(e, name), Binding(values), real_domain=True)
        approx = finite_difference(e, name, values)
    except (PointRejected, OverflowError, ExpressionError):
        return None
    if abs(exact) > 1e6 or abs(approx) > 1e6:
        return None
    return abs(approx - exact) / max(1.0, abs(exact))


def recursive_sort_key(e: Expression):
    """The canonical sort key rebuilt from scratch at every call, as
    normalize computed it before it stored keys on the nodes: the
    reference that the stored keys and the canonical order are held to."""
    rank = _KIND_RANK[type(e)]
    if isinstance(e, Constant):
        return (rank, e.value, ())
    if isinstance(e, ImaginaryUnit):
        return (rank, 0, ())
    if isinstance(e, Variable):
        return (rank, e.name, ())
    if isinstance(e, Power):
        return (rank, e.exponent, (recursive_sort_key(e.base),))
    if isinstance(e, Builtin):
        return (rank, (e.name, e.order if e.order is not None else Fraction(0)),
                (recursive_sort_key(e.arg),))
    if isinstance(e, FunctionApp):
        return (rank, (e.symbol.name, e.orders), tuple(recursive_sort_key(a) for a in e.args))
    if isinstance(e, Sum):
        return (rank, len(e.terms), tuple(recursive_sort_key(t) for t in e.terms))
    if isinstance(e, Product):
        return (rank, len(e.factors), tuple(recursive_sort_key(f) for f in e.factors))
    raise TypeError(e)


def minor_rank(m: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Rank as the largest k with a k x k minor above tolerance.

    Deliberately naive: the point is independence from the row-reduction
    path used by the library.
    """
    rows, cols = m.shape
    scale = max(1.0, float(np.max(np.abs(m))))
    for k in range(min(rows, cols), 0, -1):
        threshold = rel_tol * scale**k
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if abs(np.linalg.det(m[np.ix_(rs, cs)])) > threshold:
                    return k
    return 0


def numpy_pivot_rank(matrix, scale: float | None = None) -> int:
    """The numpy full-pivot elimination analysis.pivot_rank replaced,
    kept as its reference: same tolerance rule, pivot by argmax of |a|
    over the rows and columns left."""
    a = np.array(matrix, dtype=complex)
    if a.size == 0:
        return 0
    if scale is None:
        scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return 0
    tol = RANK_PIVOT_REL_TOL * scale
    rows = list(range(a.shape[0]))
    cols = list(range(a.shape[1]))
    rank = 0
    while rows and cols:
        sub = np.abs(a[np.ix_(rows, cols)])
        ri, ci = divmod(int(np.argmax(sub)), len(cols))
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


def numpy_svd_kernel(matrix, scale: float) -> list[np.ndarray]:
    """The SVD kernel analysis._null_space replaced, kept as its
    reference: the v with B v = 0 from the rows of V past a singular
    value cut at 1e-8 times max(sigma_0, scale), each scaled so its first
    entry above 1e-10 is 1.  B is taken as real when its imaginary parts
    are dust.  A row of V^H is the conjugate of a null vector; the
    kernel report read real parts only, where that does not show."""
    b = np.array(matrix, dtype=complex)
    if np.max(np.abs(b.imag)) < 1e-12 * max(1.0, np.max(np.abs(b.real))):
        b = b.real
    _, sigma, vh = np.linalg.svd(b, full_matrices=b.shape[0] < b.shape[1])
    if sigma.size and max(sigma[0], scale) > 0:
        null = list(sigma <= 1e-8 * max(sigma[0], scale))
    else:
        null = [True] * len(sigma)
    null += [True] * (b.shape[1] - len(sigma))
    basis = []
    for v, keep in zip(vh.conj(), null):
        if keep:
            lead = next((x for x in v if abs(x) > 1e-10), 1.0)
            basis.append(np.asarray(v / lead, dtype=complex))
    return basis


def numpy_lstsq_fit(targets, basis) -> tuple[list[tuple[tuple[float, ...], float]], bool]:
    """The least-squares fit fields._fit_in_span replaced, kept as its
    reference: one lstsq per target at LAPACK's default rcond, the real
    parts of the coefficients, the relative residual |A c - t| / max(1, |t|),
    and whether the rank of A = [basis] is below the basis size."""
    a = np.stack([np.array(v, dtype=complex) for v in basis], axis=1)
    fits, deficient = [], False
    for target in targets:
        t = np.array(target, dtype=complex)
        coeff, _, rank, _ = np.linalg.lstsq(a, t, rcond=None)
        resid = float(np.linalg.norm(a @ coeff - t)) / max(1.0, float(np.linalg.norm(t)))
        fits.append((tuple(float(c.real) for c in coeff), resid))
        deficient |= bool(rank < len(basis))
    return fits, deficient


def numeric_matrix(matrix, values: dict) -> np.ndarray:
    """Evaluate an ExpressionMatrix of jet-free entries at one point."""
    out = np.empty(matrix.shape, dtype=complex)
    for i, row in enumerate(matrix.entries):
        for j, e in enumerate(row):
            out[i, j] = evaluate(e, Binding(values))
    return out


def point_for(matrix, rng: np.random.Generator) -> dict:
    names = set()
    for row in matrix.entries:
        for e in row:
            names |= free_variables(e)
    return {n: float(rng.uniform(0.5, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
            for n in sorted(names)}


def max_abs_sampled(e: Expression, plan) -> float:
    """Largest |e| over box samples of its free variables.

    Independent of the library's point machinery on purpose: draws raw
    values, instantiates any opaque symbols once per seed, and skips
    rejected points.
    """
    names = sorted(free_variables(e))
    worst = 0.0
    for seed in plan.seeds:
        functions = shared_instantiation((e,), seed)
        accepted = 0
        for index in range(plan.count):
            values = draw_values(names, plan, seed, index)
            try:
                value = evaluate(e, Binding(values, functions),
                                 real_domain=not plan.allow_complex)
            except PointRejected:
                continue
            accepted += 1
            worst = max(worst, abs(value))
        assert accepted >= plan.min_accepted, (seed, accepted)
    return worst


FINGERPRINT_POINTS = 8


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


def float_weak_minors(a: Algebra) -> list[Expression]:
    """The weak minors as float fingerprints decide them: every minor's
    cofactor tree, repeats of an earlier tree dropped, then zeros and
    repeats up to sign found at 8 shared points and confirmed by
    numeric_equiv.  analysis.weak_minors decided them this way before
    it expanded them as exact polynomials."""
    plan = a.plan
    xi1, xi2 = xi_matrices(a)
    rho = generic_rank(xi1, plan).generic_rank
    size = rho + 1
    rows_n, cols_n = xi2.shape
    if size > min(rows_n, cols_n):
        raise AnalysisError(
            "rank Xi1 = %d already equals the minimal dimension of Xi2; "
            "no larger minors exist" % rho)
    minors, seen = [], set()
    for rows in itertools.combinations(range(rows_n), size):
        for cols in itertools.combinations(range(cols_n), size):
            det = _symbolic_minor(xi2, rows, cols)
            if det != ZERO and det not in seen:
                seen.add(det)
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


def perfbench_jobs():
    """perfbench/jobs.py, read by path: the documented CLI commands."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module
