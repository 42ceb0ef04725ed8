"""Jet geometry: spaces, total derivatives, candidate sampling."""

import collections

import numpy as np
import pytest

import symred.jets
from symred.expr import FunctionSymbol, derivative, free_variables, function_symbols, var
from symred.jets import (
    CandidateSolution,
    JetError,
    _key_dvars,
    candidate_instantiation,
    jet_keys,
    key_of_variable,
    key_variable,
    make_space,
    sample_points,
    substitute_candidate,
    total_derivative,
)
from symred.models import MODEL_IDS, builtin, resolve_candidate
from symred.numeric import Binding, evaluate, substitute_functions
from symred.parser import parse_expression
from symred.sampling import SamplePlan

from helpers import finite_difference

SPACE = make_space(("x", "y"), ("u", "v"), 2)


def test_jet_key_enumeration():
    keys = jet_keys(SPACE, 1)
    # u, v, and four first derivatives
    assert len(keys) == 6
    assert len(jet_keys(SPACE, 2)) == 12


def test_key_of_variable():
    k = key_of_variable(SPACE, "d(u,x,y)")
    assert k is not None and k.alpha == 0 and k.orders == (1, 1)
    assert key_of_variable(SPACE, "u") is not None
    assert key_of_variable(SPACE, "x") is None
    assert key_of_variable(SPACE, "d(w,x)") is None


def test_total_derivative_of_dependent():
    e = total_derivative(var("u"), SPACE, 0)
    assert free_variables(e) == {"d(u,x)"}


def test_total_derivative_product():
    # D_x(x * u) = u + x u_x
    e = total_derivative(parse_expression("x*u"), SPACE, 0)
    b = Binding({"x": 2.0, "u": 3.0, "d(u,x)": 5.0})
    assert evaluate(e, b) == 13.0


def test_total_derivative_chain_through_jets():
    # D_y(u_x) = u_xy
    e = total_derivative(parse_expression("d(u,x)"), SPACE, 1)
    assert free_variables(e) == {"d(u,x,y)"}


def test_total_derivative_order_cap():
    with pytest.raises(JetError):
        total_derivative(parse_expression("d(u,x,x)"), SPACE, 0)


def test_substitute_candidate_replaces_jets():
    c = CandidateSolution(SPACE, {
        "u": parse_expression("x^2*y"),
        "v": parse_expression("x + y"),
    }, name="poly")
    e = substitute_candidate(parse_expression("d(u,x,y) - 2*x"), c)
    # u_xy of x^2 y is 2x, so the residual vanishes identically
    b = Binding({"x": 1.3, "y": -0.4})
    assert evaluate(e, b) == pytest.approx(0.0, abs=1e-14)


def test_sample_points_slots_match_assignments():
    c = CandidateSolution(SPACE, {
        "u": parse_expression("x^3 + y^2"),
        "v": parse_expression("x*y"),
    }, name="poly")
    plan = SamplePlan()
    read = ("u", "d(u,x)", "d(u,x,x)", "d(v,x,y)")
    points = sample_points(c, plan, [parse_expression(name) for name in read])
    assert len(points) >= plan.min_accepted
    pt = points[0]
    assert set(pt.slots) == set(read)
    vx, vy = pt.base["x"], pt.base["y"]
    assert pt.slots["u"] == pytest.approx(vx**3 + vy**2)
    assert pt.slots["d(u,x)"] == pytest.approx(3 * vx**2)
    assert pt.slots["d(u,x,x)"] == pytest.approx(6 * vx)
    assert pt.slots["d(v,x,y)"] == pytest.approx(1.0)


def test_sample_points_with_opaque_function_match_fd():
    f = FunctionSymbol("f", ("s",))
    c = CandidateSolution(SPACE, {
        "u": parse_expression("f(x*y)", {"f": f}),
        "v": parse_expression("0"),
    }, name="opaque")
    plan = SamplePlan()
    points = sample_points(c, plan, [parse_expression("d(u,x)")])
    for pt in points[:4]:
        inst = candidate_instantiation(c, pt.seed)
        concrete = substitute_functions(c.assignments["u"], inst)
        fd = finite_difference(concrete, "x", dict(pt.base))
        assert pt.slots["d(u,x)"] == pytest.approx(fd, rel=1e-6)


def test_sample_points_skip_excluded_loci():
    c = CandidateSolution(SPACE, {
        "u": parse_expression("1/(x - y)"),
        "v": parse_expression("0"),
    }, (parse_expression("x - y"),), name="singular")
    points = sample_points(c, SamplePlan(), [parse_expression("d(u,x)")])
    for pt in points:
        assert abs(pt.base["x"] - pt.base["y"]) > 1e-6


def test_unread_dependent_does_not_reject():
    # ln(x) is outside the real domain for x < 0, but only where v is read
    c = CandidateSolution(SPACE, {
        "u": parse_expression("x + y"),
        "v": parse_expression("ln(x)"),
    }, name="log")
    plan = SamplePlan(box={"x": ((-0.5, 2.0),)})
    kept = sample_points(c, plan, [parse_expression("u")])
    assert any(pt.base["x"] < 0 for pt in kept)
    assert all(set(pt.slots) == {"u"} for pt in kept)
    guarded = sample_points(c, plan, [parse_expression("u + v")])
    assert guarded and all(pt.base["x"] > 0 for pt in guarded)
    assert len(guarded) < len(kept)


def test_sampling_requires_full_assignment():
    # classes with free components are written with opaque functions,
    # never by omitting a dependent
    c = CandidateSolution(SPACE, {"u": parse_expression("x + y")}, name="part")
    with pytest.raises(JetError):
        sample_points(c, SamplePlan(), [parse_expression("d(u,x)")])


def test_candidate_rejects_jet_expressions():
    with pytest.raises(JetError):
        CandidateSolution(SPACE, {"u": parse_expression("d(v,x)")}, name="bad")


def test_candidate_rejects_unknown_dependent():
    with pytest.raises(JetError):
        CandidateSolution(SPACE, {"w": parse_expression("x")}, name="bad")


def test_order_zero_rejected():
    with pytest.raises(JetError):
        make_space(("x",), ("u",), 0)


def test_space_name_collision():
    with pytest.raises(JetError):
        make_space(("x", "u"), ("u",), 1)


def _opaque_candidates():
    return [(model_id, name) for model_id in MODEL_IDS
            for name, c in sorted(builtin(model_id).candidates.items())
            if any(function_symbols(rhs) for rhs in c.assignments.values())]


OPAQUE_CANDIDATES = _opaque_candidates()


def test_the_paper_families_with_arbitrary_functions_are_all_checked():
    assert {("euler", "SE_corrected"), ("euler", "SE_printed"), ("euler", "example8_euler"),
            ("isentropic", "IF11"), ("navier_stokes", "sol")} <= set(OPAQUE_CANDIDATES)


@pytest.mark.parametrize("model_id, name", OPAQUE_CANDIDATES)
def test_bound_stand_ins_read_what_the_substituted_tree_gives(model_id, name):
    # Oracle: the slots read with the seed's stand-ins bound at evaluation
    # equal the slots of the tree with those stand-ins substituted.
    _, c = resolve_candidate(builtin(model_id), name)
    space, seeds = c.space, (7, 8, 29)
    plan = c.plan.with_(seeds=seeds)
    reads = [key_variable(space, key) for key in jet_keys(space, space.max_order)]
    points = sample_points(c, plan, reads)
    assert {pt.seed for pt in points} == set(seeds)
    for seed in seeds:
        run = [pt for pt in points if pt.seed == seed]
        inst = candidate_instantiation(c, seed)
        b = Binding({x: np.array([pt.base[x] for pt in run], dtype=complex)
                     for x in space.independents})
        for key in jet_keys(space, space.max_order):
            slot = key_variable(space, key).name
            tree = substitute_functions(c.assignments[space.dependents[key.alpha]], inst)
            want = evaluate(derivative(tree, _key_dvars(space, key)), b,
                            real_domain=not plan.allow_complex)
            for pt, value in zip(run, want):
                assert pt.slots[slot] == pytest.approx(value, rel=1e-12, abs=1e-12), slot


def test_sample_points_builds_each_slot_derivative_once_for_all_seeds(monkeypatch):
    calls = collections.Counter()

    def counted(e, dvars):
        calls[e, dvars] += 1
        return derivative(e, dvars)

    monkeypatch.setattr(symred.jets, "derivative", counted)
    ws, c = resolve_candidate(builtin("navier_stokes"), "sol")
    points = sample_points(c, c.plan.with_(seeds=(7, 8, 29)), ws.equations)
    assert {pt.seed for pt in points} == {7, 8, 29}
    assert len(calls) == len(points[0].slots)
    assert set(calls.values()) == {1}
