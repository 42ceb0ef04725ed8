"""Built-in model library.

The five models ship as .sr workspace files in `symred/library/`, read
by the one workspace parser: a built-in is a `dsl.Workspace` like any
user file.  The paper's intermediate systems (the reduced ODE IF7 with
its amplitude IF6, and the constraint systems E83-E86, IF12 and LNS)
ship as `library/checks/<model>.sr`, read only by `reduced_ode_check`
and `derived_constraint_check`, which append one to its model's text
and read each (system, candidate) pair through `residual`.  This module
keeps what is not a declaration: the parameter draws, the residual
engine that certifies stored solutions, the table of derived checks,
and the discrepancy report.
"""

from __future__ import annotations

import zlib
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from .dsl import ModelError, Workspace, _read_workspace, parse_workspace
from .expr import Expression, Sum, to_text
from .jets import (
    CandidateSolution,
    JetPoint,
    _key_dvars,
    candidate_instantiation,
    key_of_variable,
    sample_points,
)
from .numeric import Binding, PointRejected, evaluate
from .sampling import SamplePlan, peaks, shared_instantiation
from .stream import Stream

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
def _shipped_text(name: str) -> str:
    """The .sr text of `library/<name>.sr` (a model id, or `checks/<id>`),
    read on first use so that importing symred reads no file."""
    from importlib.resources import files
    return (files(__package__) / "library" / (name + ".sr")).read_text(encoding="utf-8")


def _model_text(model_id: str, params: Mapping) -> str:
    if model_id not in MODEL_IDS:
        raise ModelError("unknown model id %r; available: %s"
                         % (model_id, ", ".join(MODEL_IDS)))
    if model_id == "vnls3" and "t0" in params and Fraction(params["t0"]) == 0:
        raise ModelError("t0 = 0 collapses the printed vnls3 candidate;"
                         " the t0_zero candidate covers that limit")
    return _shipped_text(model_id)


def builtin(model_id: str, params: Mapping | None = None) -> Workspace:
    """Parse a shipped model whole, optionally overriding its literal
    params."""
    params = params or {}
    return parse_workspace(_model_text(model_id, params), "builtin:" + model_id, params)


def _lazy_builtin(model_id: str) -> Workspace:
    """A shipped model at its default params whose system, field, algebra
    and candidate blocks are each parsed the first time they are looked
    up: what a command line's `builtin:<id>` reads.  The shipped texts
    are parsed whole by the test suite."""
    return _read_workspace(_model_text(model_id, {}), "builtin:" + model_id)


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
    rng = Stream([seed, zlib.crc32(model_id.encode())])
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
    points = sample_points(cand, cand.plan, system.equations)
    return {name: peak.value for name, peak in
            zip(system.equation_names, peaks(system.equations, cand.plan, points=points))}


def vnls_residual(candidate=None) -> dict:
    """Residual of the three-component Schrodinger system in complex form."""
    return residual(builtin("vnls3"), candidate or "printed")


# ---------------------------------------------------------------------------
# the paper's reduced ODEs and derived constraint systems

class _Check(NamedTuple):
    """The (system, candidate) pairs a check reads, None meaning its main
    candidate; `system` is the model's own system there, less `omit`."""
    model: str
    main: str
    reads: tuple[tuple[str, str | None], ...]
    omit: tuple[str, ...] = ()


_ODE_CHECKS = {
    "IF_k2": _Check("isentropic", "example3_k_minus2", (("IF7", "IF_k2"),)),
    "IF9_k1": _Check("isentropic", "example3_k_minus1", (("IF7", None),)),
    "IF7_general": _Check("isentropic", "IF5_reduced", (("IF7_general", None),),
                          omit=("sound",)),
}

_CONSTRAINT_CHECKS = {
    "E83_E86": _Check("euler", "example8_euler",
                      (("E83_E86", None), ("E83_E86_equiv", "example8_class"))),
    "IF12": _Check("isentropic", "IF11", (("IF12", None), ("IF12_equiv", "IF4_class"))),
    "LNS": _Check("navier_stokes", "example8_ns", (("LNS", None),)),
}


def _check_workspace(model_id: str, params: Mapping | None = None) -> Workspace:
    """The built-in with its check file appended, under the built-in's
    source id, so that a pinned candidate's re-parse keeps the checks."""
    text = _shipped_text(model_id) + "\n" + _shipped_text("checks/" + model_id)
    return parse_workspace(text, "builtin:" + model_id, params)


def _run_check(table, what: str, kind: str, params=None, candidate=None) -> dict:
    try:
        check = table[kind]
    except KeyError:
        raise ModelError("unknown %s %r; available: %s"
                         % (what, kind, ", ".join(sorted(table))))
    ws = _check_workspace(check.model, params)
    main = candidate or check.main
    pinned = {}   # the workspace parsed again, once per set of pins

    def read(cand, system):
        at = ws
        if isinstance(cand, str) and not ws.holds_here(cand):
            pins = ws.candidate_params[cand]
            key = tuple(sorted(pins.items()))
            if key not in pinned:
                pinned[key] = ws.with_params(pins)
            at = pinned[key]
        return residual(at, cand, system)

    out = {}
    for system, cand in check.reads:
        out |= read(cand or main, system)
    own = read(main, check.model)
    out["system"] = max(v for name, v in own.items() if name not in check.omit)
    return out


def reduced_ode_check(kind: str, params: Mapping | None = None) -> dict:
    """Certify a reduced ODE closed form and its assembled fluid candidate.

    IF_k2 reads IF7 (keys `ode`, `amplitude`) on a copy of
    example3_k_minus2 whose W has the cubic coefficient `lead`, a
    fault-injection knob (anything but 4 breaks the ODE); it accepts c1,
    c2 and lead.  IF9_k1 reads IF7 on example3_k_minus1 and accepts c1
    and c2.  IF7_general accepts k and reads IF1_z and the reduction
    identity with an opaque W.  `system` is the isentropic system on the
    assembled candidate.
    """
    return _run_check(_ODE_CHECKS, "reduced ODE kind", kind, params)


def derived_constraint_check(constraint_id: str, candidate=None) -> dict:
    """Residuals of an intermediate constraint system on a candidate
    (default: the one the paper derives it for), its model's own system
    there under `system`, and, for E83_E86 and IF12, the identities
    tying it to the full system on the corresponding weak class."""
    return _run_check(_CONSTRAINT_CHECKS, "constraint id", constraint_id, None, candidate)


# ---------------------------------------------------------------------------
# discrepancy diagnosis

def _central_difference(e: Expression, values: dict, functions, axes, plan, h=1e-4):
    if not axes:
        return evaluate(e, Binding(values, functions), real_domain=not plan.allow_complex)
    axis, rest = axes[0], axes[1:]
    step = h * max(1.0, abs(values[axis]))
    hi = dict(values)
    lo = dict(values)
    hi[axis] = values[axis] + step
    lo[axis] = values[axis] - step
    return (_central_difference(e, hi, functions, rest, plan, h)
            - _central_difference(e, lo, functions, rest, plan, h)) / (2 * step)


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
        rhs = cand.assignments[space.dependents[key.alpha]]
        try:
            approx = _central_difference(rhs, base, inst, _key_dvars(space, key), plan)
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
    labels = ["equation %s" % name for name in ws.equation_names]
    for name, peak in zip(ws.equation_names, peaks(ws.equations, plan, points=points,
                                                   labels=labels)):
        residuals[name] = peak.value
        if failing is None and peak.value > tol:
            failing, worst_point = name, peak.where
    report = {
        "candidate": cand.name,
        "tolerance": tol,
        "residuals": residuals,
        "first_failing": failing,
    }
    if failing is None:
        return report
    eq = ws.equations[ws.equation_names.index(failing)]
    b = Binding(worst_point.binding_values(), shared_instantiation((eq,), worst_point.seed))
    terms = eq.terms if isinstance(eq, Sum) else (eq,)
    rows = []
    for term in terms:
        try:
            value = evaluate(term, b, real_domain=not plan.allow_complex)
        except PointRejected:
            value = complex("nan")
        rows.append({"term": to_text(term), "value": abs(value)})
    report["worst_point"] = {name: worst_point.base[name]
                             for name in ws.space.independents}
    report["terms"] = rows
    report["dominant_term"] = max(rows, key=lambda r: r["value"])["term"]
    report["jet_fd_gap"] = _fd_jet_gap(cand, worst_point, plan)
    return report
