"""Built-in model library.

The five models ship as .sr workspace files in `symred/library/`, read
by the one workspace parser: a built-in is a `dsl.Workspace` like any
user file.  This module keeps what is not a declaration: the parameter
draws, the residual engine that certifies stored solutions, the
reduced-ODE and derived-constraint checks, and the discrepancy report.
"""

from __future__ import annotations

import zlib
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .analysis import max_abs_on_points
from .dsl import ModelError, Workspace, parse_workspace
from .expr import (
    Expression,
    FunctionSymbol,
    Sum,
    apply_symbol,
    con,
    differentiate,
    mul,
    normalize,
    sqrt,
    to_text,
    var,
)
from .jets import (
    CandidateSolution,
    JetPoint,
    _key_dvars,
    candidate_instantiation,
    key_of_variable,
    sample_points,
)
from .numeric import Binding, PointRejected, evaluate, substitute_functions
from .parser import parse_expression
from .sampling import EPS_SING, SamplePlan, sampled

__all__ = [
    "MODEL_IDS",
    "ModelError",
    "builtin",
    "derived_constraint_check",
    "discrepancy_report",
    "draw_params",
    "reduced_ode_check",
    "residual",
    "resolve_candidate",
    "vnls_residual",
]


@lru_cache(maxsize=None)
def _shipped_text(model_id: str) -> str:
    """The model's .sr text, read on first use so that importing symred
    reads no file."""
    from importlib.resources import files
    return (files(__package__) / "library" / (model_id + ".sr")).read_text(encoding="utf-8")


def builtin(model_id: str, params: Mapping | None = None) -> Workspace:
    """Parse a shipped model, optionally overriding its literal params."""
    if model_id not in MODEL_IDS:
        raise ModelError("unknown model id %r; available: %s"
                         % (model_id, ", ".join(MODEL_IDS)))
    params = params or {}
    if model_id == "vnls3" and "t0" in params and Fraction(params["t0"]) == 0:
        raise ModelError("t0 = 0 collapses the printed vnls3 candidate;"
                         " the t0_zero candidate covers that limit")
    return parse_workspace(_shipped_text(model_id), "builtin:" + model_id, params)


# ---------------------------------------------------------------------------
# parameter draws

def _uniform(lo, hi, avoid=(), gap=Fraction(1, 3)):
    lo, hi = float(Fraction(lo)), float(Fraction(hi))
    forbidden = tuple(Fraction(a) for a in avoid)

    def draw(rng):
        while True:
            q = Fraction(float(rng.uniform(lo, hi))).limit_denominator(48)
            if all(abs(q - a) >= gap for a in forbidden):
                return q

    return draw


_DRAW_RULES = {
    "navier_stokes": {"nu": _uniform("1/4", 2), "k": _uniform(-3, 3, avoid=(0, 1)),
                      "c1": _uniform("1/2", 2), "c2": _uniform("1/2", 2),
                      "b": _uniform(-1, 1), "c3": _uniform("1/2", 2)},
    "euler": {"k": _uniform(-3, 3, avoid=(0, 1)),
              "mu": _uniform(-2, 2, avoid=(0,)),
              "lam": _uniform(-2, 2, avoid=(0,))},
    "isentropic": {"k": _uniform(-3, "-1/2"), "t0": _uniform("1/2", 2),
                   "c0": _uniform("1/2", 2), "c1": _uniform("1/2", 2),
                   "c2": _uniform("1/2", 2)},
    "vnls3": {"g1": _uniform("1/3", "3/2"), "g2": _uniform("1/3", "3/2"),
              "g3": _uniform("1/3", "3/2"), "t0": _uniform("1/2", "3/2"),
              "a1": _uniform("1/2", 2)},
    "laplace_fo": {"a": _uniform(-2, 2, avoid=(0,)), "b": _uniform(-2, 2, avoid=(0,)),
                   "c": _uniform(-2, 2), "u0": _uniform(-2, 2)},
}


MODEL_IDS = tuple(sorted(_DRAW_RULES))


def draw_params(model_id: str, seed: int) -> dict:
    """Random admissible values for a model's drawn literal params;
    degenerate values are avoided, and the others keep their defaults."""
    if model_id not in _DRAW_RULES:
        raise ModelError("unknown model id %r" % model_id)
    rng = np.random.default_rng([seed, zlib.crc32(model_id.encode())])
    return {name: rule(rng) for name, rule in _DRAW_RULES[model_id].items()}


# ---------------------------------------------------------------------------
# residual engine

def resolve_candidate(ws: Workspace, candidate) -> tuple[Workspace, CandidateSolution]:
    """(workspace, candidate) for a candidate name or object; the
    candidate carries the plan it is sampled on.

    A candidate pinned to other param values resolves against the
    workspace parsed again at those values.
    """
    if isinstance(candidate, CandidateSolution):
        return ws, candidate
    if candidate is None:
        raise ModelError("a candidate name or CandidateSolution is required")
    if not ws.holds_here(candidate):
        ws = ws.with_params(ws.candidate_params[candidate])
    try:
        cand = ws.candidates[candidate]
    except KeyError:
        raise ModelError("%s has no candidate %r; available: %s"
                         % (ws.id, candidate, ", ".join(sorted(ws.candidates)) or "none"))
    return ws, cand


def residual(ws: Workspace, candidate=None, system: str | None = None) -> dict:
    """Per-equation max |residual| of the candidate over accepted samples
    of its plan, on the named system (default: the only one)."""
    ws, cand = resolve_candidate(ws, candidate)
    system = ws.system(system)
    return _max_on_graph(cand, dict(zip(system.equation_names, system.equations)))


def _max_on_graph(cand: CandidateSolution, exprs: Mapping[str, Expression]) -> dict:
    """Largest |e| of each named expression over the candidate's jet
    points, drawn on its plan."""
    points = sample_points(cand, cand.plan, exprs.values())
    return {name: max_abs_on_points(e, points, cand.plan) for name, e in exprs.items()}


def vnls_residual(candidate=None) -> dict:
    """Residual of the three-component Schrodinger system in complex form."""
    return residual(builtin("vnls3"), candidate or "printed")


# ---------------------------------------------------------------------------
# reduced ODE certification (the example3_* closed forms)

def _if7_residual(w: Expression, wt: Expression, k: Fraction) -> Expression:
    t = var("t")
    wtt = differentiate(wt, "t")
    return normalize(wtt + con(2 * (2 + 1 / k)) * w * wt
                     + con(2 * (1 + 1 / k)) * w * w * w
                     + con(4 / k) * (wt + w * w) / t)


def _if6_amplitude(w: Expression, wt: Expression, k: Fraction) -> Expression:
    return sqrt(mul(con(-1 / k), w * w + wt))


def _check_k2(params: Mapping) -> dict:
    p = {"c1": Fraction(1), "c2": Fraction(1), "lead": Fraction(4)}
    p.update({n: Fraction(v) for n, v in params.items()})
    k = Fraction(-2)
    plan = SamplePlan(box={"t": ((0.6, 2.0),)})
    w = parse_expression("(lead*t^3 + c1)/(t^4 + c1*t + c2)", None, p)
    amp = parse_expression("6^(1/2)*(t^2/(t^4 + c1*t + c2))^(1/2)", None, p)
    wt = differentiate(w, "t")
    out = {
        "ode": max_abs_on_points(_if7_residual(w, wt, k), None, plan),
        "amplitude": max_abs_on_points(normalize(amp - _if6_amplitude(w, wt, k)),
                                       None, plan),
    }
    ws = builtin("isentropic", {"k": k, "c1": p["c1"], "c2": p["c2"]})
    out["system"] = max(residual(ws, "example3_k_minus2").values())
    return out


def _check_k1(params: Mapping) -> dict:
    p = {"c1": Fraction(1, 2), "c2": Fraction(1)}
    p.update({n: Fraction(v) for n, v in params.items()})
    k = Fraction(-1)
    plan = SamplePlan(box={"t": ((0.5, 1.5),)})
    w = parse_expression("c1*t^2*(besseli(-5/6; (c1/3)*t^3) + c2*besseli(5/6; (c1/3)*t^3))"
                         "/(besseli(1/6; (c1/3)*t^3) + c2*besseli(-1/6; (c1/3)*t^3))",
                         None, p)
    wt = differentiate(w, "t")
    t = var("t")
    # canonical k=-1 form W'' = -2WW' + (4/t)(W' + W^2)
    ode = normalize(differentiate(wt, "t") + con(2) * w * wt
                    - con(4) * (wt + w * w) / t)
    out = {
        "ode": max_abs_on_points(ode, None, plan),
        "amplitude": max_abs_on_points(normalize(parse_expression("c1*t^2", None, p)
                                                 - _if6_amplitude(w, wt, k)),
                                       None, plan),
    }
    ws = builtin("isentropic", {"k": k, "c1": p["c1"], "c2": p["c2"]})
    out["system"] = max(residual(ws, "example3_k_minus1").values())
    return out


def _check_general(params: Mapping) -> dict:
    p = {"k": Fraction(-3, 2)}
    p.update({n: Fraction(v) for n, v in params.items()})
    k = p["k"]
    if k == 0 or k == 1:
        raise ModelError("degenerate k")
    plan = SamplePlan(box={"t": ((0.5, 2.0),)}, count=40, min_accepted=10)
    w_sym = FunctionSymbol("W", ("t",))
    t = var("t")
    w = apply_symbol(w_sym, t)
    wt = differentiate(w, "t")
    amp = _if6_amplitude(w, wt, k)
    amp_t = differentiate(amp, "t")
    # reduced equation: multiplying the sound equation on the class
    # u = (x/t, y/t, zW), a = zA by -2kA reproduces the W ODE exactly
    identity = normalize(con(-2) * con(k) * amp
                         * (amp_t + w * amp + (amp / con(k)) * (con(2) / t + w))
                         - _if7_residual(w, wt, k))
    out = {
        "IF1_z": max_abs_on_points(normalize(wt + w * w + con(k) * amp * amp),
                                   None, plan),
        "reduction_identity": max_abs_on_points(identity, None, plan),
    }
    # the assembled class satisfies the momentum equations identically;
    # its sound equation IS the ODE, which reduction_identity covers
    ws = builtin("isentropic", {"k": k})
    z = var("z")
    cand = CandidateSolution(ws.space, {
        "u1": parse_expression("x/t"), "u2": parse_expression("y/t"),
        "u3": normalize(mul(z, w)), "a": normalize(mul(z, amp)),
    }, (parse_expression("t"),), name="IF5_reduced", plan=plan)
    momentum = {name: eq for name, eq in zip(ws.equation_names, ws.equations)
                if name != "sound"}
    out["system"] = max(_max_on_graph(cand, momentum).values())
    return out


_ODE_CHECKS = {"IF_k2": _check_k2, "IF9_k1": _check_k1,
               "IF7_general": _check_general}


def reduced_ode_check(kind: str, params: Mapping | None = None) -> dict:
    """Certify a reduced ODE closed form and its assembled fluid candidate.

    IF_k2 accepts c1, c2 and a fault-injection knob `lead` (the cubic
    coefficient of the W numerator; anything but 4 breaks the ODE).
    IF9_k1 accepts c1, c2.  IF7_general accepts k and checks the
    reduction identity with an opaque W.
    """
    try:
        check = _ODE_CHECKS[kind]
    except KeyError:
        raise ModelError("unknown reduced ODE kind %r; available: %s"
                         % (kind, ", ".join(sorted(_ODE_CHECKS))))
    return check(params or {})


# ---------------------------------------------------------------------------
# derived constraint systems (the example8_* candidates and IF12)

def _check_e83_e86(candidate) -> dict:
    ws, cand = resolve_candidate(builtin("euler"), candidate or "example8_euler")
    constraints = {name: parse_expression(text, ws.functions, ws.params) for name, text in (
        ("E83", "t^2*d(p,x) + k*km1*x"),
        ("E84", "t^2*d(p,y) + k*km1*y"),
        ("E85", "d(u3,z) + 2*k/t"),
        ("E86", "d(u3,t) + u3*d(u3,z) + (k/t)*(x*d(u3,x) + y*d(u3,y)) + d(p,z)"),
    )}
    eqs = dict(zip(ws.equation_names, ws.equations))
    out = _max_on_graph(cand, {**constraints, **eqs})
    out["system"] = max(out.pop(name) for name in eqs)

    # on the weak class (u3, p arbitrary) the Euler system is equivalent
    # to the constraint system; checked identity by identity
    t = var("t")
    pairs = {
        "equiv_x": normalize(eqs["momentum_x"] * t * t - constraints["E83"]),
        "equiv_y": normalize(eqs["momentum_y"] * t * t - constraints["E84"]),
        "equiv_z": normalize(eqs["momentum_z"] - constraints["E86"]),
        "equiv_div": normalize(eqs["continuity"] - constraints["E85"]),
    }
    return out | _max_on_graph(ws.candidates["example8_class"], pairs)


def _check_if12(candidate) -> dict:
    ws, cand = resolve_candidate(builtin("isentropic"), candidate or "IF11")

    def parse(text):
        return parse_expression(text, ws.functions, ws.params)

    system = {
        "IF12_ax": parse("d(a,x)"),
        "IF12_ay": parse("d(a,y)"),
        "IF12_z": parse("d(u3,t) + u3*d(u3,z) + (x/t)*d(u3,x) + (y/t)*d(u3,y)"
                        " + k*a*d(a,z)"),
        "IF12_t": parse("d(a,t) + u3*d(a,z) + (a/k)*(2/t + d(u3,z))"),
    }
    out = _max_on_graph(cand, system)

    eqs = dict(zip(ws.equation_names, ws.equations))
    pairs = {
        "equiv_1": normalize(eqs["momentum_x"] - parse("k*a*d(a,x)")),
        "equiv_2": normalize(eqs["momentum_y"] - parse("k*a*d(a,y)")),
        "equiv_3": normalize(eqs["momentum_z"] - system["IF12_z"]),
        "equiv_4": normalize(eqs["sound"] - system["IF12_t"]
                             - parse("(x/t)*d(a,x) + (y/t)*d(a,y)")),
    }
    return out | _max_on_graph(ws.candidates["IF4_class"], pairs)


def _check_lns(candidate) -> dict:
    ws, cand = resolve_candidate(builtin("navier_stokes"), candidate or "example8_ns")
    alpha = parse_expression("c3*x*y", None, ws.params)
    t, x, y = var("t"), var("x"), var("y")
    lns = normalize(differentiate(alpha, "t")
                    + (con(ws.params["k"]) / t)
                    * (x * differentiate(alpha, "x")
                       + y * differentiate(alpha, "y") - con(2) * alpha)
                    - con(ws.params["nu"])
                    * (differentiate(differentiate(alpha, "x"), "x")
                       + differentiate(differentiate(alpha, "y"), "y")))
    out = {"LNS": max_abs_on_points(lns, None, cand.plan)}
    out["system"] = max(residual(ws, cand).values())
    return out


_CONSTRAINT_CHECKS = {"E83_E86": _check_e83_e86, "IF12": _check_if12,
                      "LNS": _check_lns}


def derived_constraint_check(constraint_id: str, candidate=None) -> dict:
    """Residuals of an intermediate constraint system plus the identities
    tying it to the full system on the corresponding weak class."""
    try:
        check = _CONSTRAINT_CHECKS[constraint_id]
    except KeyError:
        raise ModelError("unknown constraint id %r; available: %s"
                         % (constraint_id, ", ".join(sorted(_CONSTRAINT_CHECKS))))
    return check(candidate)


# ---------------------------------------------------------------------------
# discrepancy diagnosis

def _central_difference(e: Expression, values: dict, axes, plan, h=1e-4):
    if not axes:
        return evaluate(e, Binding(values), eps_sing=EPS_SING,
                        real_domain=not plan.allow_complex)
    axis, rest = axes[0], axes[1:]
    step = h * max(1.0, abs(values[axis]))
    hi = dict(values)
    lo = dict(values)
    hi[axis] = values[axis] + step
    lo[axis] = values[axis] - step
    return (_central_difference(e, hi, rest, plan, h)
            - _central_difference(e, lo, rest, plan, h)) / (2 * step)


def _fd_jet_gap(cand: CandidateSolution, point: JetPoint, plan: SamplePlan) -> float:
    """Cross-check the point's exact jet slots against finite differences."""
    space = cand.space
    inst = candidate_instantiation(cand, point.seed)
    base = dict(point.base)
    worst = 0.0
    for name, slot in point.slots.items():
        key = key_of_variable(space, name)
        if key is None or key.order == 0:
            continue
        rhs = substitute_functions(cand.assignments[space.dependents[key.alpha]], inst)
        try:
            approx = _central_difference(rhs, base, _key_dvars(space, key), plan)
        except PointRejected:
            continue
        gap = abs(approx - slot) / max(1.0, abs(slot))
        worst = max(worst, gap)
    return worst


def discrepancy_report(ws: Workspace, candidate=None, tol: float = 1e-6) -> dict:
    """Locate the first equation a candidate fails and the dominant term.

    The finite-difference leg distinguishes a wrong printed formula
    (small jet gap, large residual) from a differentiation defect.
    """
    ws, cand = resolve_candidate(ws, candidate)
    plan = cand.plan
    points = sample_points(cand, plan, ws.equations)
    residuals = {}
    failing = None
    worst_point = None
    for name, eq in zip(ws.equation_names, ws.equations):
        peak, peak_pt = 0.0, None
        for s in sampled((eq,), plan, points=points, label="equation %s" % name):
            value = abs(s.values[0])
            if value > peak:
                peak, peak_pt = value, s.where
        residuals[name] = peak
        if failing is None and peak > tol:
            failing, worst_point = name, peak_pt
    report = {
        "candidate": cand.name,
        "tolerance": tol,
        "residuals": residuals,
        "first_failing": failing,
    }
    if failing is None:
        return report
    eq = ws.equations[ws.equation_names.index(failing)]
    b = Binding(worst_point.binding_values())
    terms = eq.terms if isinstance(eq, Sum) else (eq,)
    rows = []
    for term in terms:
        try:
            value = evaluate(term, b, eps_sing=EPS_SING,
                             real_domain=not plan.allow_complex)
        except PointRejected:
            value = complex("nan")
        rows.append({"term": to_text(term), "value": abs(value)})
    report["worst_point"] = {name: worst_point.base[name]
                             for name in ws.space.independents}
    report["terms"] = rows
    report["dominant_term"] = max(rows, key=lambda r: r["value"])["term"]
    report["jet_fd_gap"] = _fd_jet_gap(cand, worst_point, plan)
    return report
