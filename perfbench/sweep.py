"""The symbolic-sweep workload: the exact construction every analysis
starts from, for one built-in model at one parameter draw.

Each step is one job.  It takes the shared `state` of the model's pass
and returns None when its known answer holds, else what went wrong.
The known answers:
  builtin      the entry carries the algebras the README table lists;
  round_trip   export and re-parse keep the space and every name, and a
               second export is byte-identical (tests/test_dsl.py,
               test_export_round_trip);
  matrices     Xi1, Xi2 and Q have the shapes their definitions give
               (r x p, r x (p+q), r x q), and every algebra closes
               (criterion c12 of tests/test_acceptance.py);
  prolonged    the prolongation of a translation along x_i acts as
               d/dx_i: it has no coefficient beyond xi = e_i.
"""

from __future__ import annotations

# Calls go through the module attributes, so that the tracer's wrappers
# (installed on those attributes) see them.
from symred import analysis, dsl, expr, fields, models

README_ALGEBRAS = {
    "navier_stokes": {"rot3", "g2", "full12"},
    "euler": {"gal3", "rot3", "full13"},
    "isentropic": {"gal_p3", "full12", "ex3"},
    "vnls3": {"subSE", "rot"},
    "laplace_fo": {"tr2", "tr2u"},
}


def step_builtin(state):
    model_id = state["model"]
    entry = models.builtin(model_id, params=models.draw_params(model_id, state["seed"]))
    state["entry"] = entry
    missing = README_ALGEBRAS[model_id] - set(entry.algebras)
    return "missing algebras %s" % sorted(missing) if missing else None


def step_round_trip(state):
    ws = dsl.workspace_from_entry(state["entry"])
    text = dsl.workspace_to_text(ws)
    again = dsl.parse_workspace(text, source=state["model"])
    for part in ("systems", "fields", "algebras", "candidates"):
        if set(getattr(again, part)) != set(getattr(ws, part)):
            return "round trip changed the %s" % part
    if again.space != ws.space:
        return "round trip changed the space"
    if dsl.workspace_to_text(again) != text:
        return "second export differs from the first"
    return None


def _complete(candidate, space) -> bool:
    return all(dep in candidate.assignments for dep in space.dependents)


def step_matrices(state):
    entry = state["entry"]
    space = entry.space
    for name, algebra in entry.algebras.items():
        xi1, xi2 = fields.xi_matrices(algebra)
        q_matrix = fields.characteristic_matrix(algebra)
        want = [(algebra.r, space.p), (algebra.r, space.p + space.q),
                (algebra.r, space.q)]
        if [xi1.shape, xi2.shape, q_matrix.shape] != want:
            return "%s: matrix shapes %s" % (name, [xi1.shape, xi2.shape, q_matrix.shape])
        for candidate in entry.candidates.values():
            if _complete(candidate, space):
                analysis.substitute_matrix(q_matrix, candidate)
                analysis.substitute_matrix(xi2, candidate)
        if not fields.closure_check(algebra, algebra, entry.algebra_plan(name)).ok:
            return "%s does not close" % name
    return None


def _translation_axis(field):
    """i when the field is d/dx_i, else None."""
    if any(phi != expr.ZERO for phi in field.phi):
        return None
    units = [i for i, xi in enumerate(field.xi) if xi == expr.ONE]
    zeros = [i for i, xi in enumerate(field.xi) if xi == expr.ZERO]
    if len(units) == 1 and len(units) + len(zeros) == len(field.xi):
        return units[0]
    return None


def step_prolonged(state):
    entry = state["entry"]
    by_name = {f.name: f for algebra in entry.algebras.values() for f in algebra.fields}
    for name in sorted(by_name):
        field = by_name[name]
        axis = _translation_axis(field)
        for k, equation in enumerate(entry.equations):
            acted = fields.apply_prolonged(field, equation)
            if axis is not None:
                expected = expr.differentiate(equation, entry.space.independents[axis])
                if expr.normalize(acted - expected) != expr.ZERO:
                    return "pr %s of equation %d is not d/d%s" % (
                        name, k, entry.space.independents[axis])
    return None


STEPS = (
    ("builtin", step_builtin),
    ("round_trip", step_round_trip),
    ("matrices", step_matrices),
    ("prolonged", step_prolonged),
)
