"""Rank analysis against a brute-force minor oracle, plus the
classification, defect, kernel and symmetry entry points on small
hand-checkable systems."""

import numpy as np
import pytest

from symred.analysis import (
    AnalysisError,
    _null_space,
    classify_transversality,
    constant_kernel_generators,
    defect,
    generic_rank,
    invariance_check,
    max_abs_on_points,
    pivot_rank,
    symmetry_check,
    weak_check_candidate,
    weak_minors,
)
from symred import poly
from symred.expr import FunctionSymbol, apply_symbol, to_text, var
from symred.fields import Algebra, VectorField, characteristic_matrix, closure_check, xi_matrices
from symred.jets import CandidateSolution, make_space, sample_points
from symred.parser import parse_expression as P
from symred.sampling import SamplePlan, SamplingError

from symred.models import MODEL_IDS, builtin

from helpers import (
    float_weak_minors,
    minor_rank,
    numeric_matrix,
    numpy_pivot_rank,
    numpy_svd_kernel,
    point_for,
)

SPACE = make_space(("x", "y"), ("u",), 2)


def _field(xi, phi, name="v"):
    return VectorField(SPACE, tuple(P(t) for t in xi), tuple(P(t) for t in phi),
                       name=name)


def test_pivot_rank_against_minor_oracle_random():
    rng = np.random.default_rng(314)
    for _ in range(120):
        rows, cols = rng.integers(1, 6), rng.integers(1, 7)
        rank = int(rng.integers(0, min(rows, cols) + 1))
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)) \
            if rank else np.zeros((rows, cols))
        assert pivot_rank(a.astype(complex)) == minor_rank(a), a


def test_pivot_rank_scale_invariance():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 5))
    a[3] = a[0] + a[1]          # rank 3 by construction
    for scale in (1e-8, 1.0, 1e8):
        assert pivot_rank((scale * a).astype(complex)) == 3


def test_pivot_rank_on_lists_equals_the_numpy_elimination():
    # low-rank complex matrices up to the 13 x 16 of the largest Q, with
    # rows of mixed magnitude and dust far below the pivot tolerance
    rng = np.random.default_rng(1729)
    seen = set()
    for _ in range(300):
        rows, cols = int(rng.integers(1, 14)), int(rng.integers(1, 17))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        a = (left * 10.0 ** rng.integers(-3, 4, size=(rows, 1))) @ right
        if rank:
            a = a + 1e-14 * np.abs(a).max() * rng.standard_normal((rows, cols))
        mass = float(np.abs(a).max()) * float(rng.uniform(1.0, 50.0))
        for scale in (None, mass):
            got = pivot_rank(a.tolist(), scale=scale)
            assert got == numpy_pivot_rank(a, scale=scale) == rank, (a, scale)
        seen.add(rank)
    assert seen >= set(range(11))


def test_null_space_spans_the_svd_kernel():
    # seeded low-rank B as the kernel stacks them: real and complex, tall
    # (up to 1200 x 13) and wide, with dust far below the pivot
    # tolerance, and the zero matrix
    rng = np.random.default_rng(4242)
    cases = [np.zeros((6, 4))]
    for i in range(300):
        cols = int(rng.integers(1, 14))
        rows = int(rng.integers(600, 1201)) if i % 30 == 0 else int(rng.integers(1, 25))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        draw = rng.standard_normal
        left, right = draw((rows, rank)), draw((rank, cols))
        if i % 2:
            left, right = left + 1j * draw((rows, rank)), right + 1j * draw((rank, cols))
        b = left @ right if rank else np.zeros((rows, cols))
        cases.append(b + 1e-14 * np.abs(b).max() * draw((rows, cols)))
    dims = set()
    for b in cases:
        scale = float(np.abs(b).max())
        got = _null_space(b.tolist(), scale)
        want = numpy_svd_kernel(b, scale)
        assert len(got) == len(want), b.shape
        dims.add(len(got))
        if not got:
            continue
        assert np.linalg.matrix_rank(np.array(got + want), tol=1e-6) == len(got)
        for v in got:
            assert np.linalg.norm(b @ np.array(v)) <= 1e-10 * max(scale, 1.0) * np.linalg.norm(v)
        leads = [next(j for j, x in enumerate(v) if x) for v in got]
        assert leads == sorted(set(leads))
        assert all(v[j] == 1 and all(w[j] == 0 for w in got if w is not v)
                   for v, j in zip(got, leads))
    assert dims >= set(range(14))


def test_generic_rank_on_all_library_matrices():
    """Xi1 and Xi2 of every built-in algebra match the minor oracle."""
    from symred.models import MODEL_IDS, builtin
    rng = np.random.default_rng(2718)
    for model_id in MODEL_IDS:
        entry = builtin(model_id)
        for name, algebra in sorted(entry.algebras.items()):
            plan = entry.algebra_plan(name)
            for matrix in xi_matrices(algebra):
                report = generic_rank(matrix, plan)
                oracle = 0
                for _ in range(8):
                    numeric = numeric_matrix(matrix, point_for(matrix, rng))
                    oracle = max(oracle, minor_rank(np.asarray(numeric)))
                assert report.generic_rank == oracle, (model_id, name, matrix.name)


def test_generic_rank_stable_across_seeds():
    a = Algebra(SPACE, (_field(("y", "-x"), ("0",), "rot"),), "a")
    xi1, _ = xi_matrices(a)
    rep = generic_rank(xi1)
    assert rep.generic_rank == 1
    assert set(rep.ranks) == set(SamplePlan().seeds)
    assert not rep.non_generic


def test_classify_strong_and_violated():
    p1 = _field(("1", "0"), ("0",), "P1")
    p2 = _field(("0", "1"), ("0",), "P2")
    strong = classify_transversality(Algebra(SPACE, (p1, p2), "tr"))
    assert strong.status == "Strong"
    assert strong.rank_xi1 == 2 and strong.rank_xi2 == 2
    pu = _field(("0", "0"), ("1",), "PU")
    violated = classify_transversality(Algebra(SPACE, (p1, p2, pu), "tru"))
    assert violated.status == "ViolatedStrong"
    assert violated.rank_xi1 == 2 and violated.rank_xi2 == 3


def test_weak_classification_with_candidate():
    # xi parts are parallel, so rank Xi1 = 1 < rank Xi2 = 2 and the only
    # surviving 2x2 minor of Xi2 is u itself
    p1 = _field(("1", "0"), ("0",), "P1")
    p1u = _field(("1", "0"), ("u",), "P1u")
    a = Algebra(SPACE, (p1, p1u), "pp")
    flat = CandidateSolution(SPACE, {"u": P("0")}, name="flat")
    rep = classify_transversality(a, candidate=flat)
    assert rep.status == "ViolatedStrong"
    assert rep.rank_xi1 == 1 and rep.rank_xi2 == 2
    assert rep.weak_status == "WeakHolds"
    tilted = CandidateSolution(SPACE, {"u": P("x")}, name="tilted")
    rep2 = classify_transversality(a, candidate=tilted)
    assert rep2.weak_status == "WeakFails"


def test_weak_minors_drop_identical_zeros():
    p1u = _field(("1", "0"), ("u",), "P1u")
    p1x = _field(("1", "0"), ("x",), "P1x")
    minors = weak_minors(Algebra(SPACE, (p1u, p1x), "pp"))
    # Xi2 = [[1,0,u],[1,0,x]]: only the (col 0, col 2) minor survives
    assert len(minors) == 1
    assert to_text(minors[0]) in (to_text(P("x - u")), to_text(P("u - x")))


def test_weak_minors_dedup_signs_on_library_algebra():
    from symred.models import builtin
    entry = builtin("navier_stokes")
    minors = weak_minors(entry.algebras["rot3"])
    assert len(minors) == 18


# the float route takes 4-8 s on each of these three
LARGE = {("navier_stokes", "full12"), ("isentropic", "full12"), ("euler", "full13")}


@pytest.mark.parametrize("model_id, name", [
    (m, n) for m in MODEL_IDS for n in sorted(builtin(m).algebras) if (m, n) not in LARGE])
def test_weak_minors_agree_with_the_float_route(model_id, name):
    # same trees in the same order; gal3, vnls3 rot and tr2 raise alike
    a = builtin(model_id).algebras[name]
    try:
        want = float_weak_minors(a)
    except AnalysisError as err:
        with pytest.raises(AnalysisError) as got:
            weak_minors(a)
        assert str(got.value) == str(err)
        return
    assert weak_minors(a) == want


def _pair(phi_a, phi_b, xi_a="1"):
    """Two fields along x: Xi1 has rank 1, so the minors are 2 x 2."""
    return Algebra(SPACE, (_field((xi_a, "0"), (phi_a,), "A"),
                           _field(("1", "0"), (phi_b,), "B")), "ab")


def test_a_minor_cancelling_through_an_atom_is_dropped():
    # exp(x)*u - u*exp(x): normalize keeps both terms, the atom exp(x) cancels
    a = _pair("u*exp(x)", "u", xi_a="exp(x)")
    assert weak_minors(a) == []
    # closure stays complete: an atom would not do there
    assert not closure_check(a, a).exact


def test_an_opaque_function_is_an_atom():
    f = apply_symbol(FunctionSymbol("f", ("x",)), var("x"))
    a = Algebra(SPACE, (_field(("1", "0"), ("u",), "A"),
                        VectorField(SPACE, (P("1"), P("0")), (var("x") * f,), name="B")), "ab")
    assert [to_text(m) for m in weak_minors(a)] == ["-u + x*f(x)"]


def test_an_identity_between_atoms_is_not_seen():
    # exp(2*x) and exp(x)^2 are two atoms, so this zero minor is kept;
    # the float route dropped it
    a = _pair("u*exp(x)^2", "u*exp(2*x)")
    assert [to_text(m) for m in weak_minors(a)] == ["u*exp(2*x) - u*exp(x)^2"]
    assert float_weak_minors(a) == []


@pytest.mark.parametrize("cap", [0, 1])
def test_minors_past_the_term_cap_are_kept(monkeypatch, cap):
    # every rot3 minor has 2 terms, so under these caps each is kept as
    # its tree: maybe not merged, never dropped
    rot3 = builtin("navier_stokes").algebras["rot3"]
    full = weak_minors(rot3)
    monkeypatch.setattr(poly, "MAX_TERMS", cap)
    capped = weak_minors(rot3)
    assert all(m in capped for m in full)
    assert len(capped) >= len(full) == 18


def test_weak_minors_raise_when_none_exist():
    p1 = _field(("1", "0"), ("0",), "P1")
    p2 = _field(("0", "1"), ("0",), "P2")
    with pytest.raises(AnalysisError):
        weak_minors(Algebra(SPACE, (p1, p2), "tr"))
    # the candidate check treats that as vacuous truth
    c = CandidateSolution(SPACE, {"u": P("x")}, name="c")
    assert weak_check_candidate(Algebra(SPACE, (p1, p2), "tr"), c)


def test_defect_invariant_candidate():
    rot = _field(("y", "-x"), ("0",), "rot")
    a = Algebra(SPACE, (rot,), "rot1")
    radial = CandidateSolution(SPACE, {"u": P("x^2 + y^2")}, name="radial")
    rep = defect(a, radial)
    assert rep.delta == 0
    assert rep.classification == "Invariant"


def test_defect_generic_candidate():
    rot = _field(("y", "-x"), ("0",), "rot")
    a = Algebra(SPACE, (rot,), "rot1")
    c = CandidateSolution(SPACE, {"u": P("x + 2*y")}, name="plane")
    rep = defect(a, c)
    assert rep.delta == 1
    assert rep.m0 == 1
    assert rep.classification == "Generic"


def test_constant_kernel_of_redundant_generators():
    rot = _field(("y", "-x"), ("0",), "rot")
    rot2 = _field(("2*y", "-2*x"), ("0",), "rot2")
    a = Algebra(SPACE, (rot, rot2), "dup")
    c = CandidateSolution(SPACE, {"u": P("x")}, name="plane")
    rep = constant_kernel_generators(
        a, c, named_combinations={"rot2 - 2 rot": (-2.0, 1.0)})
    assert len(rep.constant_kernel) == 1
    assert rep.matched_combination == "rot2 - 2 rot"
    assert rep.pointwise_kernel_dim == 1
    # a combination off the kernel's span is not named
    rep = constant_kernel_generators(a, c, named_combinations={"rot2 + 2 rot": (2.0, 1.0)})
    assert rep.matched_combination is None


def test_constant_kernel_with_fewer_rows_than_generators():
    # one seed of 4 points and q = 1 stack a 4 x 5 B: four pivots leave
    # one free column, whose null vector is the whole kernel
    fields = (_field(("1", "0"), ("0",), "tx"), _field(("0", "1"), ("0",), "ty"),
              _field(("y", "-x"), ("0",), "rot"), _field(("0", "0"), ("u",), "su"),
              _field(("x", "y"), ("0",), "dil"))
    a = Algebra(SPACE, fields, "five")
    plan = SamplePlan(count=4, min_accepted=4, seeds=(5,))
    c = CandidateSolution(SPACE, {"u": P("x^2 - y^2")}, name="saddle", plan=plan)
    rep = constant_kernel_generators(a, c, named_combinations={"2 su + dil": (0, 0, 0, 1, 0.5)})
    assert len(rep.constant_kernel) == 1
    assert rep.matched_combination == "2 su + dil"


def test_symmetry_check_positive_and_negative():
    heat_like = (P("d(u,x,x) + d(u,y,y)"),)
    rot = _field(("y", "-x"), ("0",), "rot")
    assert symmetry_check(heat_like, rot,
                          CandidateSolution(SPACE, {"u": P("x^2 - y^2")},
                                            name="h1"))
    # shear leaves the residue -2*d(u,x,y); pick a donor where it survives
    shear = _field(("y", "0"), ("0",), "shear")
    assert not symmetry_check(heat_like, shear,
                              CandidateSolution(SPACE, {"u": P("x*y")},
                                                name="h2"))


def test_symmetry_check_rejects_non_solution_donor():
    heat_like = (P("d(u,x,x) + d(u,y,y)"),)
    wrong = CandidateSolution(SPACE, {"u": P("x^2")}, name="w")
    rot = _field(("y", "-x"), ("0",), "rot")
    with pytest.raises(AnalysisError):
        symmetry_check(heat_like, rot, wrong)


def test_a_non_solution_donor_fails_before_a_starving_action():
    # pr v(u - x) = 1/(u - x^2), a pole at every point of u = x^2's
    # graph: that reading starves, yet the donor is read first and fails
    wrong = CandidateSolution(SPACE, {"u": P("x^2")}, name="w")
    pole = _field(("0", "0"), ("(u - x^2)^(-1)",), "pole")
    with pytest.raises(SamplingError, match="kept 0 of 20"):
        max_abs_on_points(P("(u - x^2)^(-1)"), sample_points(wrong, wrong.plan, [P("u")]),
                          wrong.plan)
    with pytest.raises(AnalysisError, match="donor w is not a solution"):
        symmetry_check((P("u - x"),), pole, wrong)


def test_invariance_check_matches_defect_zero():
    rot = _field(("y", "-x"), ("0",), "rot")
    a = Algebra(SPACE, (rot,), "rot1")
    assert invariance_check(a, CandidateSolution(SPACE, {"u": P("x^2 + y^2")},
                                                 name="radial"))
    assert not invariance_check(a, CandidateSolution(SPACE, {"u": P("x")},
                                                     name="plane"))


def test_max_abs_on_points_skips_rejected():
    c = CandidateSolution(SPACE, {"u": P("x")}, name="c")
    plan = SamplePlan()
    e = P("(x - y)^(-1) * 0 + u - x")
    pts = sample_points(c, plan, [e])
    # 1/(x - y) blows up near the diagonal; those points are skipped
    worst = max_abs_on_points(e, pts, plan)
    assert worst < 1e-12


def test_characteristic_matrix_shape_full_width():
    rot = _field(("y", "-x"), ("0",), "rot")
    scale = _field(("x", "y"), ("u",), "scale")
    q = characteristic_matrix(Algebra(SPACE, (rot, scale), "rs"))
    assert q.shape == (2, 1)
    assert q.row_labels == ("rot", "scale")
