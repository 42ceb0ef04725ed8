"""Built-in model library: construction, certification of the stored
solutions, closure of every algebra, the defect table, reduced-ODE and
derived-constraint checks, and the diagnostic report."""

import math
import zlib
from dataclasses import replace
from importlib.resources import files

import numpy as np
import pytest

from symred import fields
from symred.analysis import (
    classify_transversality,
    defect,
    graph_plan,
    invariance_check,
    weak_check_candidate,
)
from symred.dsl import DslError, parse_workspace, workspace_from_entry, workspace_to_text
from symred.fields import closure_check
from symred.models import (
    _CONSTRAINT_CHECKS,
    _DRAW_RULES,
    _ODE_CHECKS,
    MODEL_IDS,
    ModelError,
    _check_workspace,
    builtin,
    derived_constraint_check,
    discrepancy_report,
    draw_params,
    reduced_ode_check,
    residual,
    resolve_candidate,
    vnls_residual,
)
from symred.sampling import SamplePlan


def _worst(report: dict) -> float:
    return max(report.values())


def test_all_entries_build():
    assert set(MODEL_IDS) == {"navier_stokes", "euler", "isentropic",
                              "vnls3", "laplace_fo"}
    for model_id in MODEL_IDS:
        entry = builtin(model_id)
        assert entry.id == model_id
        assert entry.equations
        assert entry.algebras
        assert entry.candidates


def test_unknown_ids_raise():
    with pytest.raises(ModelError):
        builtin("burgers")
    with pytest.raises(ModelError):
        builtin("euler", params={"zeta": 1})


def test_every_stored_solution_certifies():
    for model_id in MODEL_IDS:
        entry = builtin(model_id)
        for name in sorted(entry.solutions):
            worst = _worst(residual(entry, candidate=name))
            assert worst < 1e-8, (model_id, name, worst)


def test_printed_steady_euler_fails_but_corrected_passes():
    entry = builtin("euler")
    assert _worst(residual(entry, candidate="SE_printed")) > 1e-2
    assert _worst(residual(entry, candidate="SE_corrected")) < 1e-8


def test_every_algebra_closes():
    for model_id in MODEL_IDS:
        entry = builtin(model_id)
        for name in sorted(entry.algebras):
            plan = entry.algebra_plan(name)
            rep = closure_check(entry.algebras[name], entry.algebras[name],
                                plan)
            assert rep.ok, (model_id, name, rep.worst_residual)
            # every built-in field is polynomial, so no sampling decides
            assert rep.exact and not rep.flagged and rep.worst_residual == 0.0


DEFECT_TABLE = [
    ("navier_stokes", "rot3", "sol", 0, "Invariant"),
    ("navier_stokes", "g2", "S25S26", 0, "Invariant"),
    ("navier_stokes", "rot3", "fp", 0, "Invariant"),
    ("isentropic", "gal_p3", "IF11", 1, "PartiallyInvariant"),
    ("laplace_fo", "tr2", "SLE", 1, "PartiallyInvariant"),
    ("laplace_fo", "tr2", "const", 0, "Invariant"),
    ("euler", "gal3", "SE_corrected", 2, "PartiallyInvariant"),
    ("euler", "gal3", "E1E2", 2, "PartiallyInvariant"),
    ("vnls3", "subSE", "printed", 1, "PartiallyInvariant"),
    ("vnls3", "rot", "t0_zero", 0, "Invariant"),
]


@pytest.mark.parametrize("model_id, algebra, candidate, delta, label",
                         DEFECT_TABLE,
                         ids=["%s-%s-%s" % row[:3] for row in DEFECT_TABLE])
def test_defect_table(model_id, algebra, candidate, delta, label):
    entry = builtin(model_id)
    entry, cand = resolve_candidate(entry, candidate)
    rep = defect(entry.algebras[algebra], cand)
    assert rep.delta == delta
    assert rep.classification == label


def test_defect_report_fields():
    entry = builtin("isentropic")
    entry, cand = resolve_candidate(entry, "IF11")
    rep = defect(entry.algebras["gal_p3"], cand)
    assert rep.m0 == 4
    assert rep.algebra == "gal_p3"
    assert rep.candidate == "IF11"


def test_invariance_check_on_library():
    ns = builtin("navier_stokes")
    _, cand = resolve_candidate(ns, "S25S26")
    assert invariance_check(ns.algebras["g2"], cand)
    _, cand2 = resolve_candidate(ns, "sol")
    assert not invariance_check(ns.algebras["g2"], cand2)


def test_random_parameter_draws_still_certify():
    for seed in (3, 4, 5):
        params = draw_params("navier_stokes", seed)
        entry = builtin("navier_stokes", params=params)
        worst = _worst(residual(entry, candidate="S25S26"))
        assert worst < 1e-8, (seed, params, worst)


def test_draw_params_deterministic_and_in_range():
    a = draw_params("euler", 7)
    b = draw_params("euler", 7)
    assert a == b
    assert a != draw_params("euler", 8)
    k = float(a["k"])
    assert 0.5 <= abs(k) <= 3.0 and abs(k - 1) > 0.1


def test_draw_params_match_the_rules_driven_by_numpy():
    for model_id in MODEL_IDS:
        for seed in range(31):
            rng = np.random.default_rng([seed, zlib.crc32(model_id.encode())])
            expected = {name: rule(rng) for name, rule in _DRAW_RULES[model_id].items()}
            assert draw_params(model_id, seed) == expected, (model_id, seed)


def test_reduced_ode_checks_pass():
    rep = reduced_ode_check("IF_k2")
    assert rep["ode"] < 1e-7
    assert rep["amplitude"] < 1e-7
    assert rep["system"] < 1e-7
    rep = reduced_ode_check("IF9_k1")
    assert rep["ode"] < 1e-6
    assert rep["amplitude"] < 1e-7
    assert rep["system"] < 1e-7
    rep = reduced_ode_check("IF7_general")
    assert rep["IF1_z"] < 1e-7
    assert rep["reduction_identity"] < 1e-7
    assert rep["system"] < 1e-7


@pytest.mark.parametrize("kind, main, read", [
    ("IF_k2", "example3_k_minus2", "IF_k2"),
    ("IF9_k1", "example3_k_minus1", "example3_k_minus1"),
])
def test_reduced_ode_check_parses_once_per_param_set(monkeypatch, kind, main, read):
    # the check text, then the one param set both pinned candidates share
    ws = _check_workspace("isentropic")
    want = residual(ws, read, "IF7")
    want["system"] = _worst(residual(ws, main, "isentropic"))
    # every read of workspace text, whole or lazy, goes through _read_workspace
    import symred.dsl
    calls = []
    original = symred.dsl._read_workspace

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(symred.dsl, "_read_workspace", counted)
    assert reduced_ode_check(kind) == want
    assert calls == ["builtin:isentropic"] * 2


def test_reduced_ode_check_detects_fault():
    # breaking the leading coefficient must surface in the ODE residual
    rep = reduced_ode_check("IF_k2", {"lead": 5})
    assert rep["ode"] > 1e-2
    assert rep["system"] < 1e-7


def test_reduced_ode_check_unknown_kind():
    with pytest.raises(ModelError):
        reduced_ode_check("IF_k3")


def test_derived_constraint_checks():
    rep = derived_constraint_check("E83_E86")
    for key, value in rep.items():
        assert value < 1e-8, (key, value)
    assert {"E83", "E84", "E85", "E86", "system"} <= set(rep)
    rep = derived_constraint_check("IF12")
    for key in ("IF12_ax", "IF12_ay", "IF12_z", "IF12_t"):
        assert rep[key] < 1e-8
    for key in ("equiv_1", "equiv_2", "equiv_3", "equiv_4"):
        assert rep[key] < 1e-9
    rep = derived_constraint_check("LNS")
    assert rep["LNS"] < 1e-8
    assert rep["system"] < 1e-8


def test_derived_constraint_unknown_id():
    with pytest.raises(ModelError):
        derived_constraint_check("E99")


def test_vnls_residual_defaults_to_printed():
    assert _worst(vnls_residual()) < 1e-8
    assert _worst(vnls_residual(candidate="t0_zero")) < 1e-8
    assert _worst(vnls_residual(candidate="zero")) == 0.0


def test_vnls_t0_zero_parameter_rejected():
    with pytest.raises(ModelError):
        builtin("vnls3", params={"t0": 0})


def test_trivial_residual_value():
    # u = (x, 0, 0), p = 0 leaves div u = 1 exactly
    entry = builtin("navier_stokes")
    from symred.jets import CandidateSolution
    from symred.parser import parse_expression
    cand = CandidateSolution(
        entry.space,
        {"u1": parse_expression("x"),
         "u2": parse_expression("0"),
         "u3": parse_expression("0"),
         "p": parse_expression("0")},
        name="shear")
    rep = residual(entry, candidate=cand)
    assert rep["continuity"] == 1.0
    assert rep["momentum_x"] > 0.1    # u1*d(u1,x) = x survives
    assert rep["momentum_y"] == 0.0


def test_resolve_candidate_applies_candidate_params():
    entry = builtin("isentropic")
    entry2, cand = resolve_candidate(entry, "example3_k_minus2")
    assert entry2.params["k"] == -2
    # the sound-speed amplitude is sqrt(6)*z*sqrt(t^2/(1+t+t^4))
    from symred.numeric import Binding, evaluate
    a = evaluate(cand.assignments["a"],
                 Binding({"t": 1.0, "x": 0.0, "y": 0.0, "z": 1.0}))
    assert abs(a - math.sqrt(6.0) / math.sqrt(3.0)) < 1e-12
    assert cand.plan.box["t"] == ((0.6, 2.0),)


def test_discrepancy_report_pinpoints_failure():
    entry = builtin("euler")
    rep = discrepancy_report(entry, "SE_printed")
    assert rep["first_failing"] == "momentum_x"
    assert rep["residuals"]["momentum_x"] > 1e-2
    assert rep["dominant_term"]
    assert any(row["term"] == rep["dominant_term"] for row in rep["terms"])
    assert set(rep["worst_point"]) == set(entry.space.independents)
    assert rep["jet_fd_gap"] < 1e-5
    clean = discrepancy_report(entry, "SE_corrected")
    assert clean["first_failing"] is None
    assert "terms" not in clean


def test_discrepancy_report_evaluates_opaque_functions():
    # the failing equation holds a(t); its terms are read with the
    # stand-in sampled bound at the worst point's seed, so they bracket
    # that point's residual
    ws = parse_workspace("""
space { independent x t; dependent u; order 1; }
func a(t);
system s { eq e1: d(u,t) - a(t)*u = 0; }
candidate c { u = x*t; }
""")
    rep = discrepancy_report(ws, "c")
    assert rep["first_failing"] == "e1"
    assert rep["dominant_term"] == "(-1)*u*a(t)"
    small, large = sorted(row["value"] for row in rep["terms"])
    assert large - small <= rep["residuals"]["e1"] * (1 + 1e-12)
    assert rep["residuals"]["e1"] <= (large + small) * (1 + 1e-12)


def test_residual_accepts_plan_override():
    entry = builtin("laplace_fo")
    plan = SamplePlan(count=12, min_accepted=6, seeds=(9, 10, 11))
    sle = replace(entry.candidates["SLE"], plan=plan)
    assert _worst(residual(entry, candidate=sle)) < 1e-8


def test_closure_check_defaults_to_the_algebras_own_plan(monkeypatch):
    # navier_stokes g2 has t^(5/3) coefficients: on the t < 0 half of
    # the default plan its closure sampling starves.  Only the sampled
    # route reads a plan, so the exact one is turned off here.
    monkeypatch.setattr(fields, "_closure_exact", lambda a, within: None)
    for model_id in MODEL_IDS:
        ws = builtin(model_id)
        for name, algebra in sorted(ws.algebras.items()):
            assert algebra.plan == ws.algebra_plan(name)
            rep = closure_check(algebra, algebra)
            assert rep.ok, (model_id, name, rep.worst_residual)


def test_analyses_default_to_the_algebras_own_plan():
    # the default plan's t < 0 half starves g2's rank sampling as well
    rep = classify_transversality(builtin("navier_stokes").algebras["g2"])
    assert (rep.rank_xi1, rep.rank_xi2) == (3, 4)


@pytest.mark.parametrize("candidate", ["sol", "Sl1", "fp", "example8_ns"])
def test_weak_status_under_g2_agrees_with_the_minors(candidate):
    ns = builtin("navier_stokes")
    g2, cand = ns.algebras["g2"], ns.candidates[candidate]
    rep = classify_transversality(g2, cand)
    assert (rep.rank_xi1, rep.rank_xi2) == (3, 4)
    assert (rep.weak_status == "WeakHolds") == weak_check_candidate(g2, cand)


def test_a_graph_is_read_on_the_candidates_plan_completed_by_the_algebras():
    ws = parse_workspace("""
space s { independent x t; dependent u; order 1; }
field P { xi = [1, 0]; phi = [0]; }
algebra a { fields P; domain t (1, 2); domain x (3, 4); complex; }
algebra b { fields P; }
candidate c { u = x; domain x (5, 6); }
""", source="t")
    cand = ws.candidates["c"]
    plan = graph_plan(ws.algebras["a"], cand)
    assert plan.box == {"t": ((1.0, 2.0),), "x": ((5.0, 6.0),)} and plan.allow_complex
    assert plan.count == cand.plan.count and plan.seeds == cand.plan.seeds
    assert graph_plan(ws.algebras["b"], cand) == cand.plan


@pytest.mark.parametrize("model_id", sorted(MODEL_IDS))
def test_builtin_is_its_shipped_text_parsed(model_id):
    text = (files("symred") / "library" / (model_id + ".sr")).read_text()
    ws = builtin(model_id)
    again = parse_workspace(text, source="builtin:" + model_id)
    assert ws.id == model_id
    assert list(ws.systems) == [model_id]
    assert workspace_to_text(ws) == workspace_to_text(again)
    assert (ws.equation_names, ws.solutions, ws.candidate_params, ws.kernel_hints) == \
        (again.equation_names, again.solutions, again.candidate_params, again.kernel_hints)


PINNED = """
space s { independent x t; dependent u; order 1; }
param k = 1;
system s { eq d(u,t) - k*u = 0; }
field P { xi = [1, 0]; phi = [0]; }
field T { xi = [0, 1]; phi = [0]; }
algebra tr { fields P T; }
candidate grow { u = exp(t); param k = 1; solution; }
candidate decay { u = exp(-t); param k = -1; kernel tr T + k*P; solution; }
"""


def test_pinned_candidates_resolve_against_their_own_params():
    ws = parse_workspace(PINNED, source="pins.sr")
    assert ws.candidate_params == {"grow": {"k": 1}, "decay": {"k": -1}}
    assert ws.kernel_hints == {"decay": {"tr": {"T + k*P": (1.0, 1.0)}}}
    same, _ = resolve_candidate(ws, "grow")
    assert same is ws
    again, _ = resolve_candidate(ws, "decay")
    assert again.params["k"] == -1
    assert again.kernel_hints["decay"]["tr"]["T + k*P"] == (-1.0, 1.0)
    assert _worst(residual(ws, "grow")) < 1e-12
    assert _worst(residual(ws, "decay")) < 1e-12
    # the export keeps only what solves the system at the file's own k
    assert set(workspace_from_entry(ws).candidates) == {"grow"}
    with pytest.raises(DslError):
        parse_workspace(PINNED.replace("param k = -1", "param q = -1"), source="t")


@pytest.mark.parametrize("model_id, system, candidate", [
    ("euler", "E83_E86", "SE_corrected"),
    ("euler", "E83_E86_equiv", "E1E2"),
    ("isentropic", "IF12", "IF4_class"),
    ("navier_stokes", "LNS", "S25S26"),
])
def test_derived_systems_fail_off_their_class(model_id, system, candidate):
    # the shipped check data is not vacuous: off its class each system fails
    assert _worst(residual(_check_workspace(model_id), candidate, system)) > 1.0


@pytest.mark.parametrize("model_id", ["euler", "isentropic", "navier_stokes"])
def test_every_check_declaration_is_read_by_a_table_row(model_id):
    base, ws = builtin(model_id), _check_workspace(model_id)
    # a check file adds systems, candidates and params, nothing else
    assert (ws.functions, ws.fields.keys(), ws.algebras.keys()) == \
        (base.functions, base.fields.keys(), base.algebras.keys())
    rows = [row for row in (*_ODE_CHECKS.values(), *_CONSTRAINT_CHECKS.values())
            if row.model == model_id]
    systems = {system for row in rows for system, _ in row.reads}
    candidates = {row.main for row in rows} | {c for row in rows for _, c in row.reads if c}
    assert systems == set(ws.systems) - set(base.systems)
    assert set(ws.candidates) - set(base.candidates) <= candidates <= set(ws.candidates)


def test_a_zero_divisor_param_names_its_declaration():
    with pytest.raises(DslError) as err:
        builtin("isentropic", {"k": 0})
    assert str(err.value) == "builtin:isentropic: param invk: division by exact zero"
