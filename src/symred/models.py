"""Built-in model library.

Each entry bundles a PDE system with the symmetry algebras, candidate
reductions and exact solutions used by the analysis layer, together
with the residual engine that certifies the exact ones.  Entries are
constants: rebuilding with different parameters goes through builtin().
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .analysis import max_abs_on_points
from .expr import (
    Expression,
    FunctionSymbol,
    I,
    Sum,
    SymredError,
    apply_symbol,
    con,
    differentiate,
    exp,
    mul,
    normalize,
    sqrt,
    to_text,
    var,
)
from .fields import Algebra, VectorField
from .jets import (
    CandidateSolution,
    JetPoint,
    VariableSpace,
    _key_dvars,
    candidate_instantiation,
    jet_order,
    key_of_variable,
    make_space,
    sample_points,
    total_derivative,
)
from .numeric import Binding, PointRejected, evaluate, substitute_functions
from .parser import parse_expression
from .sampling import SamplePlan, sampled

__all__ = [
    "MODEL_IDS",
    "ModelEntry",
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


class ModelError(SymredError, ValueError):
    """Unknown model id, parameter, or candidate."""


def _fmt(value) -> str:
    # parenthesized rational literal, safe to splice into any expression text
    q = Fraction(value)
    if q.denominator == 1:
        return "(%d)" % q.numerator
    return "(%d/%d)" % (q.numerator, q.denominator)


def _parser(functions: Mapping[str, FunctionSymbol], consts: Mapping[str, Fraction]):
    declared = dict(functions)
    table = {name: _fmt(value) for name, value in consts.items()}

    def parse(text: str) -> Expression:
        return parse_expression(text.format(**table), declared)

    return parse


def _make_fields(space, parse, spec) -> dict[str, VectorField]:
    out = {}
    for name, (xi, phi) in spec.items():
        out[name] = VectorField(space,
                                tuple(parse(t) for t in xi),
                                tuple(parse(t) for t in phi),
                                name=name)
    return out


@dataclass(frozen=True)
class ModelEntry:
    """One library system and everything the analyses need around it.

    plans/algebra_plans carry per-candidate and per-algebra sampling
    domains (positive time, positive x, complex mode...).  Candidates
    listed in candidate_params only make sense for specific parameter
    values; resolving them by name rebuilds the entry accordingly.
    """

    id: str
    space: VariableSpace
    equations: tuple[Expression, ...]
    equation_names: tuple[str, ...]
    order: int
    params: Mapping[str, Fraction]
    functions: Mapping[str, FunctionSymbol]
    algebras: Mapping[str, Algebra]
    algebra_plans: Mapping[str, SamplePlan]
    candidates: Mapping[str, CandidateSolution]
    candidate_params: Mapping[str, Mapping[str, Fraction]]
    plans: Mapping[str, SamplePlan]
    default_plan: SamplePlan
    solutions: frozenset
    kernel_hints: Mapping[str, Mapping[str, Mapping[str, tuple]]]

    def plan_for(self, candidate: str | None = None) -> SamplePlan:
        if candidate is None:
            return self.default_plan
        return self.plans.get(candidate, self.default_plan)

    def algebra_plan(self, name: str) -> SamplePlan:
        return self.algebra_plans.get(name, self.default_plan)


def builtin(model_id: str, params: Mapping | None = None) -> ModelEntry:
    """Construct a library entry, optionally overriding parameters."""
    try:
        build = _BUILDERS[model_id]
    except KeyError:
        raise ModelError("unknown model id %r; available: %s"
                         % (model_id, ", ".join(MODEL_IDS)))
    merged = dict(_DEFAULTS[model_id])
    for name, value in (params or {}).items():
        if name not in merged:
            raise ModelError("%s has no parameter %r" % (model_id, name))
        merged[name] = Fraction(value)
    return build(merged)


# ---------------------------------------------------------------------------
# incompressible fluids (shared between the viscous and inviscid entries)

_ZERO4 = ("0", "0", "0", "0")


def _momentum(u: str, x: str, nu: str | None) -> str:
    text = "d({u},t) + u1*d({u},x) + u2*d({u},y) + u3*d({u},z) + d(p,{x})".format(u=u, x=x)
    if nu is not None:
        text += " - {nu}*(d({u},x,x) + d({u},y,y) + d({u},z,z))".format(u=u, nu=nu)
    return text


def _fluid_equations(parse, viscous: bool):
    nu = "{nu}" if viscous else None
    eqs = tuple(parse(_momentum(u, x, nu))
                for u, x in (("u1", "x"), ("u2", "y"), ("u3", "z")))
    eqs += (parse("d(u1,x) + d(u2,y) + d(u3,z)"),)
    return eqs, ("momentum_x", "momentum_y", "momentum_z", "continuity")


def _fluid_common_fields(space, parse):
    return _make_fields(space, parse, {
        "P1": (("1", "0", "0", "0"), _ZERO4),
        "P2": (("0", "1", "0", "0"), _ZERO4),
        "P3": (("0", "0", "1", "0"), _ZERO4),
        "T": (("0", "0", "0", "1"), _ZERO4),
        "K1": (("t", "0", "0", "0"), ("1", "0", "0", "0")),
        "K2": (("0", "t", "0", "0"), ("0", "1", "0", "0")),
        "K3": (("0", "0", "t", "0"), ("0", "0", "1", "0")),
        "Q": (_ZERO4, ("0", "0", "0", "1")),
        "L1": (("0", "z", "-y", "0"), ("0", "u3", "-u2", "0")),
        "L2": (("-z", "0", "x", "0"), ("-u3", "0", "u1", "0")),
        "L3": (("y", "-x", "0", "0"), ("u2", "-u1", "0", "0")),
    })


_T_POS = SamplePlan(box={"t": ((0.5, 2.0),)})


def _navier_stokes(params: dict) -> ModelEntry:
    space = make_space(("x", "y", "z", "t"), ("u1", "u2", "u3", "p"), 2)
    functions = {
        "a": FunctionSymbol("a", ("t",)),
        "f": FunctionSymbol("f", ("x", "y", "z", "t")),
        "p0": FunctionSymbol("p0", ("x", "y", "z", "t")),
        "g": FunctionSymbol("g", ("r", "t")),
        "h": FunctionSymbol("h", ("r", "t")),
        "pf": FunctionSymbol("pf", ("t",)),
    }
    k = params["k"]
    consts = dict(params, km1=k - 1, km2=k - 2)
    parse = _parser(functions, consts)

    equations, names = _fluid_equations(parse, viscous=True)
    fields = _fluid_common_fields(space, parse)
    fields.update(_make_fields(space, parse, {
        "D": (("x", "y", "z", "2*t"), ("-u1", "-u2", "-u3", "-2*p")),
        "X": (("t^{k}", "0", "0", "0"),
              ("{k}*t^{km1}", "0", "0", "-{k}*{km1}*t^{km2}*x")),
        "Y": (("0", "t^{k}", "0", "0"),
              ("0", "{k}*t^{km1}", "0", "-{k}*{km1}*t^{km2}*y")),
    }))
    f = fields
    algebras = {
        "rot3": Algebra(space, (f["L1"], f["L2"], f["L3"]), "rot3"),
        "g2": Algebra(space, (f["D"], f["L3"], f["X"], f["Y"]), "g2"),
        "full12": Algebra(space, (f["P1"], f["P2"], f["P3"], f["T"],
                                  f["K1"], f["K2"], f["K3"], f["Q"], f["D"],
                                  f["L1"], f["L2"], f["L3"]), "full12"),
    }

    r2 = "(x^2 + y^2 + z^2)"
    candidates = {
        "sol": CandidateSolution(space, {
            "u1": parse("a(t)*x*%s^(-3/2)" % r2),
            "u2": parse("a(t)*y*%s^(-3/2)" % r2),
            "u3": parse("a(t)*z*%s^(-3/2)" % r2),
            "p": parse("d(a,t)*%s^(-1/2) - (1/2)*a(t)^2*%s^(-2) + {b}" % (r2, r2)),
        }, (parse(r2),), name="sol"),
        "Sl1": CandidateSolution(space, {
            "u1": parse("f(x, y, z, t)*x"),
            "u2": parse("f(x, y, z, t)*y"),
            "u3": parse("f(x, y, z, t)*z"),
            "p": parse("p0(x, y, z, t)"),
        }, (), name="Sl1"),
        "fp": CandidateSolution(space, {
            "u1": parse("g(%s^(1/2), t)*x" % r2),
            "u2": parse("g(%s^(1/2), t)*y" % r2),
            "u3": parse("g(%s^(1/2), t)*z" % r2),
            "p": parse("h(%s^(1/2), t)" % r2),
        }, (parse(r2),), name="fp"),
        "S25S26": CandidateSolution(space, {
            "u1": parse("{k}*x/t"),
            "u2": parse("{k}*y/t"),
            "u3": parse("{c1}*t^(-1/2) - 2*{k}*z/t"),
            "p": parse("(1/(2*t^2))*({c1}*t^(1/2)*z"
                       " + {k}*(x^2 + y^2 + 4*{c1}*t^(1/2)*z - 2*z^2)"
                       " - {k}^2*(x^2 + y^2 + 4*z^2) + 2*{c2}*t)"),
        }, (parse("t"),), name="S25S26"),
        "example8_ns": CandidateSolution(space, {
            "u1": parse("{k}*x/t"),
            "u2": parse("{k}*y/t"),
            "u3": parse("-2*{k}*z/t + {c3}*x*y"),
            "p": parse("-{k}*{km1}*(x^2 + y^2)/(2*t^2)"
                       " - {k}*(2*{k} + 1)*z^2/t^2 + pf(t)"),
        }, (parse("t"),), name="example8_ns"),
    }
    return ModelEntry(
        id="navier_stokes", space=space,
        equations=equations, equation_names=names,
        order=max(1, jet_order(space, equations)),
        params=consts_view(params), functions=functions,
        algebras=algebras, algebra_plans={"g2": _T_POS},
        candidates=candidates, candidate_params={},
        plans={"S25S26": _T_POS},
        default_plan=SamplePlan(),
        solutions=frozenset({"sol", "S25S26", "example8_ns"}),
        kernel_hints={},
    )


def _euler(params: dict) -> ModelEntry:
    space = make_space(("x", "y", "z", "t"), ("u1", "u2", "u3", "p"), 2)
    functions = {
        "U": FunctionSymbol("U", ("x", "y", "z", "t")),
        "N": FunctionSymbol("N", ("x", "y", "z", "t")),
        "h1": FunctionSymbol("h1", ("t",)),
        "h2": FunctionSymbol("h2", ("t",)),
        "F": FunctionSymbol("F", ("s1", "s2")),
        "pf": FunctionSymbol("pf", ("t",)),
    }
    k, mu, lam = params["k"], params["mu"], params["lam"]
    consts = dict(params, km1=k - 1, mink_inv=-1 / k,
                  M=mu * mu * (1 + lam * lam) + 1,
                  a1c=mu * mu * (1 - 2 * lam * lam) + 1,
                  a2c=mu * mu * (lam * lam - 2) + 1,
                  a3c=mu * mu * (1 + lam * lam) - 2)
    parse = _parser(functions, consts)

    equations, names = _fluid_equations(parse, viscous=False)
    fields = _fluid_common_fields(space, parse)
    fields.update(_make_fields(space, parse, {
        "D1": (("x", "y", "z", "t"), _ZERO4),
        "D2": (("0", "0", "0", "t"), ("-u1", "-u2", "-u3", "-2*p")),
    }))
    f = fields
    algebras = {
        "gal3": Algebra(space, (f["K1"], f["K2"], f["K3"]), "gal3"),
        "rot3": Algebra(space, (f["L1"], f["L2"], f["L3"]), "rot3"),
        "full13": Algebra(space, (f["P1"], f["P2"], f["P3"], f["T"],
                                  f["K1"], f["K2"], f["K3"],
                                  f["L1"], f["L2"], f["L3"],
                                  f["D1"], f["D2"], f["Q"]), "full13"),
    }

    fargs = "(({lam}*y - x)/t, ({lam}*{mu}*z - x)/t)"
    candidates = {
        "E1E2": CandidateSolution(space, {
            "u1": parse("x/t - {mu}*{lam}*z/t + {mu}*{lam}*U(x, y, z, t) + h1(t)"),
            "u2": parse("{mu}*U(x, y, z, t) + y/t - {mu}*z/t + h2(t)"),
            "u3": parse("U(x, y, z, t)"),
            "p": parse("N(x, y, z, t)"),
        }, (parse("t"),), name="E1E2"),
        "SE_printed": CandidateSolution(space, {
            "u1": parse("(x*{a1c} - 3*{lam}*{mu}*({mu}*y + z))/({M}*t)"
                        " + {lam}*{mu}*t^2*F" + fargs),
            "u2": parse("(y*{a2c} - 3*{mu}*({lam}*{mu}*x + z))/({M}*t)"
                        " + {mu}*t^2*F" + fargs),
            "u3": parse("(z*{a3c} - 3*({lam}*x + y))/({M}*t)"
                        " + t^2*F" + fargs),
            "p": parse("-3*{mu}^2*({lam}*x + y + z/{mu})^2/(t^2*{M}) + pf(t)"),
        }, (parse("t"),), name="SE_printed"),
        "SE_corrected": CandidateSolution(space, {
            "u1": parse("(x*{a1c} - 3*{lam}*{mu}*({mu}*y + z))/({M}*t)"
                        " + {lam}*{mu}*t^2*F" + fargs),
            "u2": parse("(y*{a2c} - 3*{mu}*({lam}*{mu}*x + z))/({M}*t)"
                        " + {mu}*t^2*F" + fargs),
            "u3": parse("(z*{a3c} - 3*{mu}*({lam}*x + y))/({M}*t)"
                        " + t^2*F" + fargs),
            "p": parse("-3*{mu}^2*({lam}*x + y + z/{mu})^2/(t^2*{M}) + pf(t)"),
        }, (parse("t"),), name="SE_corrected"),
        "example8_euler": CandidateSolution(space, {
            "u1": parse("{k}*x/t"),
            "u2": parse("{k}*y/t"),
            "u3": parse("-2*{k}*z/t + x^2*F(t*x^{mink_inv}, y/x)"),
            "p": parse("-{k}*{km1}*(x^2 + y^2)/(2*t^2)"
                       " - {k}*(2*{k} + 1)*z^2/t^2 + pf(t)"),
        }, (parse("t"), parse("x")), name="example8_euler"),
        "example8_class": CandidateSolution(space, {
            "u1": parse("{k}*x/t"),
            "u2": parse("{k}*y/t"),
            "u3": parse("U(x, y, z, t)"),
            "p": parse("N(x, y, z, t)"),
        }, (parse("t"),), name="example8_class"),
    }
    return ModelEntry(
        id="euler", space=space,
        equations=equations, equation_names=names,
        order=max(1, jet_order(space, equations)),
        params=consts_view(params), functions=functions,
        algebras=algebras, algebra_plans={},
        candidates=candidates, candidate_params={},
        plans={"example8_euler": SamplePlan(box={"x": ((0.5, 2.0),)})},
        default_plan=SamplePlan(),
        solutions=frozenset({"SE_corrected", "example8_euler"}),
        kernel_hints={},
    )


def _isentropic(params: dict) -> ModelEntry:
    space = make_space(("x", "y", "z", "t"), ("u1", "u2", "u3", "a"), 2)
    functions = {
        "lam": FunctionSymbol("lam", ("s1", "s2")),
        "W": FunctionSymbol("W", ("t",)),
        "A": FunctionSymbol("A", ("t",)),
        "M": FunctionSymbol("M", ("x", "y", "z", "t")),
        "S": FunctionSymbol("S", ("x", "y", "z", "t")),
    }
    k = params["k"]
    consts = dict(params, invk=1 / k)
    parse = _parser(functions, consts)

    equations = tuple(parse("d(%s,t) + u1*d(%s,x) + u2*d(%s,y) + u3*d(%s,z)"
                            " + {k}*a*d(a,%s)" % (u, u, u, u, x))
                      for u, x in (("u1", "x"), ("u2", "y"), ("u3", "z")))
    equations += (parse("d(a,t) + u1*d(a,x) + u2*d(a,y) + u3*d(a,z)"
                        " + (a/{k})*(d(u1,x) + d(u2,y) + d(u3,z))"),)
    names = ("momentum_x", "momentum_y", "momentum_z", "sound")

    fields = _make_fields(space, parse, {
        "P0": (("0", "0", "0", "1"), _ZERO4),
        "P1": (("1", "0", "0", "0"), _ZERO4),
        "P2": (("0", "1", "0", "0"), _ZERO4),
        "P3": (("0", "0", "1", "0"), _ZERO4),
        "K1": (("t", "0", "0", "0"), ("1", "0", "0", "0")),
        "K2": (("0", "t", "0", "0"), ("0", "1", "0", "0")),
        "K3": (("0", "0", "t", "0"), ("0", "0", "1", "0")),
        "L1": (("0", "z", "-y", "0"), ("0", "u3", "-u2", "0")),
        "L2": (("-z", "0", "x", "0"), ("-u3", "0", "u1", "0")),
        "L3": (("y", "-x", "0", "0"), ("u2", "-u1", "0", "0")),
        "F": (("x", "y", "z", "t"), _ZERO4),
        "G": (("0", "0", "0", "-t"), ("u1", "u2", "u3", "a")),
        "FG": (("x", "y", "z", "0"), ("u1", "u2", "u3", "a")),
    })
    f = fields
    full12_fields = (f["P0"], f["P1"], f["P2"], f["P3"],
                     f["K1"], f["K2"], f["K3"],
                     f["L1"], f["L2"], f["L3"], f["F"], f["G"])
    algebras = {
        "gal_p3": Algebra(space, (f["K1"], f["K2"], f["K3"], f["P3"]), "gal_p3"),
        "full12": Algebra(space, full12_fields, "full12"),
        "ex3": Algebra(space, (f["L3"], f["FG"], f["K1"], f["K2"]), "ex3"),
    }

    bessel_arg = "(({c1}/3)*t^3)"
    quotient = ("{c1}*t^2*(besseli(-5/6; %s) + {c2}*besseli(5/6; %s))"
                "/(besseli(1/6; %s) + {c2}*besseli(-1/6; %s))"
                % (bessel_arg, bessel_arg, bessel_arg, bessel_arg))
    g_poly = "(t^4 + {c1}*t + {c2})"
    candidates = {
        "IF4_class": CandidateSolution(space, {
            "u1": parse("x/t"), "u2": parse("y/t"),
            "u3": parse("M(x, y, z, t)"), "a": parse("S(x, y, z, t)"),
        }, (parse("t"),), name="IF4_class"),
        "IF5_class": CandidateSolution(space, {
            "u1": parse("x/t"), "u2": parse("y/t"),
            "u3": parse("z*W(t)"), "a": parse("z*A(t)"),
        }, (parse("t"),), name="IF5_class"),
        "IF11": CandidateSolution(space, {
            "u1": parse("x/t"), "u2": parse("y/t"),
            "u3": parse("(z + lam(x/t, y/t))/(t + {t0})"),
            "a": parse("{c0}*(t^(-2)*(t + {t0})^(-1))^{invk}"),
        }, (parse("t"), parse("t + {t0}")), name="IF11"),
        "example3_k_minus2": CandidateSolution(space, {
            "u1": parse("x/t"), "u2": parse("y/t"),
            "u3": parse("z*(4*t^3 + {c1})/" + g_poly),
            "a": parse("z*6^(1/2)*(t^2/%s)^(1/2)" % g_poly),
        }, (parse("t"), parse(g_poly)), name="example3_k_minus2"),
        "example3_k_minus1": CandidateSolution(space, {
            "u1": parse("x/t"), "u2": parse("y/t"),
            "u3": parse("z*" + quotient),
            "a": parse("z*{c1}*t^2"),
        }, (parse("t"),), name="example3_k_minus1"),
    }
    t0 = params["t0"]
    hint = (0.0, 0.0, 0.0, float(t0), 0.0, 0.0, 1.0,
            0.0, 0.0, 0.0, 0.0, 0.0)
    return ModelEntry(
        id="isentropic", space=space,
        equations=equations, equation_names=names,
        order=max(1, jet_order(space, equations)),
        params=consts_view(params), functions=functions,
        algebras=algebras, algebra_plans={},
        candidates=candidates,
        candidate_params={"example3_k_minus2": {"k": Fraction(-2)},
                          "example3_k_minus1": {"k": Fraction(-1)}},
        plans={"IF11": _T_POS,
               "example3_k_minus2": SamplePlan(box={"t": ((0.6, 2.0),)}),
               "example3_k_minus1": SamplePlan(box={"t": ((0.5, 1.5),)})},
        default_plan=SamplePlan(),
        solutions=frozenset({"IF11", "example3_k_minus2", "example3_k_minus1"}),
        kernel_hints={"IF11": {"full12": {"K3 + t0*P3": hint}}},
    )


def _vnls3(params: dict) -> ModelEntry:
    if params["t0"] == 0:
        raise ModelError("t0 = 0 collapses the printed vnls3 candidate;"
                         " the t0_zero candidate covers that limit")
    space = make_space(("x", "y", "t"), ("rho1", "rho2", "rho3", "w1", "w2", "w3"), 2)
    g1, g2, g3, t0 = (params[n] for n in ("g1", "g2", "g3", "t0"))
    consts = dict(params, g1sq_t0=g1 * g1 / t0, gsq23=g2 * g2 + g3 * g3)
    parse = _parser({}, consts)

    # i psi_t + psi_xx + psi_yy - (rho.rho) psi with psi_j = rho_j e^{i w_j}
    density = parse("rho1^2 + rho2^2 + rho3^2")
    equations = []
    for j in (1, 2, 3):
        psi = mul(var("rho%d" % j), exp(mul(I, var("w%d" % j))))
        d_t = total_derivative(psi, space, 2)
        d_xx = total_derivative(total_derivative(psi, space, 0), space, 0)
        d_yy = total_derivative(total_derivative(psi, space, 1), space, 1)
        equations.append(normalize(mul(I, d_t) + d_xx + d_yy - mul(density, psi)))
    equations = tuple(equations)
    names = ("vnse1", "vnse2", "vnse3")

    zero6 = ("0",) * 6
    fields = _make_fields(space, parse, {
        "P1": (("1", "0", "0"), zero6),
        "P2": (("0", "1", "0"), zero6),
        "R": (("y", "-x", "0"), ("0", "0", "0", "{a1}", "{a2}", "{a3}")),
        "R0": (("y", "-x", "0"), zero6),
    })
    f = fields
    algebras = {
        "subSE": Algebra(space, (f["P1"], f["P2"], f["R"]), "subSE"),
        "rot": Algebra(space, (f["R0"],), "rot"),
    }

    phase_tail = "{g1sq_t0}*ln(t/(t - {t0})) - {gsq23}*t"
    candidates = {
        "printed": CandidateSolution(space, {
            "rho1": parse("{g1}*(t*(t - {t0}))^(-1/2)"),
            "rho2": parse("{g2}"), "rho3": parse("{g3}"),
            "w1": parse("x^2/(4*(t - {t0})) + y^2/(4*t) + " + phase_tail),
            "w2": parse(phase_tail), "w3": parse(phase_tail),
        }, (parse("t"), parse("t - {t0}")), name="printed"),
        "t0_zero": CandidateSolution(space, {
            "rho1": parse("{g1}/t"),
            "rho2": parse("{g2}"), "rho3": parse("{g3}"),
            "w1": parse("(x^2 + y^2)/(4*t) + {g1}^2/t - {gsq23}*t"),
            "w2": parse("{g1}^2/t - {gsq23}*t"),
            "w3": parse("{g1}^2/t - {gsq23}*t"),
        }, (parse("t"),), name="t0_zero"),
        "zero": CandidateSolution(space, {name: parse("0") for name in space.dependents},
                                  (), name="zero"),
    }
    complex_plan = SamplePlan(box={"t": ((1.2, 3.0),)}, allow_complex=True)
    return ModelEntry(
        id="vnls3", space=space,
        equations=equations, equation_names=names,
        order=max(1, jet_order(space, equations)),
        params=consts_view(params), functions={},
        algebras=algebras, algebra_plans={},
        candidates=candidates, candidate_params={},
        plans={"t0_zero": SamplePlan(box={"t": ((0.5, 2.5),)}, allow_complex=True)},
        default_plan=complex_plan,
        solutions=frozenset({"printed", "t0_zero", "zero"}),
        kernel_hints={},
    )


def _laplace_fo(params: dict) -> ModelEntry:
    space = make_space(("x", "y"), ("u", "v", "w"), 1)
    parse = _parser({}, params)
    equations = (parse("d(u,x) - v"), parse("d(u,y) - w"),
                 parse("d(v,y) - d(w,x)"), parse("d(v,x) + d(w,y)"))
    names = ("grad_x", "grad_y", "curl", "div")

    zero3 = ("0", "0", "0")
    fields = _make_fields(space, parse, {
        "P1": (("1", "0"), zero3),
        "P2": (("0", "1"), zero3),
        "PU": (("0", "0"), ("1", "0", "0")),
    })
    algebras = {
        "tr2": Algebra(space, (fields["P1"], fields["P2"]), "tr2"),
        "tr2u": Algebra(space, (fields["P1"], fields["P2"], fields["PU"]), "tr2u"),
    }
    candidates = {
        "SLE": CandidateSolution(space, {
            "u": parse("{a}*x + {b}*y + {c}"),
            "v": parse("{a}"), "w": parse("{b}"),
        }, (), name="SLE"),
        "const": CandidateSolution(space, {
            "u": parse("{u0}"), "v": parse("0"), "w": parse("0"),
        }, (), name="const"),
    }
    return ModelEntry(
        id="laplace_fo", space=space,
        equations=equations, equation_names=names,
        order=max(1, jet_order(space, equations)),
        params=consts_view(params), functions={},
        algebras=algebras, algebra_plans={},
        candidates=candidates, candidate_params={},
        plans={}, default_plan=SamplePlan(),
        solutions=frozenset({"SLE", "const"}),
        kernel_hints={},
    )


def consts_view(params: dict) -> dict:
    return {name: Fraction(value) for name, value in params.items()}


_DEFAULTS = {
    "navier_stokes": {"nu": Fraction(1), "k": Fraction(5, 3),
                      "c1": Fraction(3, 4), "c2": Fraction(4, 5),
                      "b": Fraction(1, 3), "c3": Fraction(7, 5)},
    "euler": {"k": Fraction(5, 3), "mu": Fraction(1, 2), "lam": Fraction(2, 3)},
    "isentropic": {"k": Fraction(-3, 2), "t0": Fraction(3, 4),
                   "c0": Fraction(6, 5), "c1": Fraction(1), "c2": Fraction(1)},
    "vnls3": {"g1": Fraction(1), "g2": Fraction(1, 2), "g3": Fraction(1, 3),
              "t0": Fraction(1), "a1": Fraction(1), "a2": Fraction(0),
              "a3": Fraction(0)},
    "laplace_fo": {"a": Fraction(1, 3), "b": Fraction(5, 7), "c": Fraction(1),
                   "u0": Fraction(1)},
}

_BUILDERS = {
    "navier_stokes": _navier_stokes,
    "euler": _euler,
    "isentropic": _isentropic,
    "vnls3": _vnls3,
    "laplace_fo": _laplace_fo,
}

MODEL_IDS = tuple(sorted(_BUILDERS))


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


def draw_params(model_id: str, seed: int) -> dict:
    """Random admissible parameters; degenerate values are avoided."""
    if model_id not in _DEFAULTS:
        raise ModelError("unknown model id %r" % model_id)
    rng = np.random.default_rng([seed, zlib.crc32(model_id.encode())])
    out = dict(_DEFAULTS[model_id])
    for name, rule in _DRAW_RULES[model_id].items():
        out[name] = rule(rng)
    return out


# ---------------------------------------------------------------------------
# residual engine

def resolve_candidate(entry: ModelEntry, candidate, plan: SamplePlan | None):
    if isinstance(candidate, CandidateSolution):
        return entry, candidate, plan or entry.default_plan
    if candidate is None:
        raise ModelError("a candidate name or CandidateSolution is required")
    overrides = entry.candidate_params.get(candidate)
    if overrides:
        entry = builtin(entry.id, {**{n: entry.params[n] for n in _DEFAULTS[entry.id]},
                                   **overrides})
    try:
        cand = entry.candidates[candidate]
    except KeyError:
        raise ModelError("%s has no candidate %r; available: %s"
                         % (entry.id, candidate, ", ".join(sorted(entry.candidates))))
    return entry, cand, plan or entry.plans.get(candidate, entry.default_plan)


def residual(entry: ModelEntry, candidate=None, plan: SamplePlan | None = None) -> dict:
    """Per-equation max |residual| of the candidate over accepted samples."""
    entry, cand, plan = resolve_candidate(entry, candidate, plan)
    points = sample_points(cand, plan, entry.order)
    return {name: max_abs_on_points(eq, points, plan)
            for name, eq in zip(entry.equation_names, entry.equations)}


def vnls_residual(candidate=None, plan: SamplePlan | None = None) -> dict:
    """Residual of the three-component Schrodinger system in complex form."""
    return residual(builtin("vnls3"), candidate or "printed", plan)


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


def _ode_plan(plan, lo, hi, **extra):
    if plan is not None:
        return plan
    return SamplePlan(box={"t": ((lo, hi),)}, **extra)


def _check_k2(params: Mapping, plan: SamplePlan | None) -> dict:
    p = {"c1": Fraction(1), "c2": Fraction(1), "lead": Fraction(4)}
    p.update({n: Fraction(v) for n, v in params.items()})
    k = Fraction(-2)
    plan = _ode_plan(plan, 0.6, 2.0)
    parse = _parser({}, p)
    w = parse("({lead}*t^3 + {c1})/(t^4 + {c1}*t + {c2})")
    amp = parse("6^(1/2)*(t^2/(t^4 + {c1}*t + {c2}))^(1/2)")
    wt = differentiate(w, "t")
    out = {
        "ode": max_abs_on_points(_if7_residual(w, wt, k), None, plan),
        "amplitude": max_abs_on_points(normalize(amp - _if6_amplitude(w, wt, k)),
                                       None, plan),
    }
    entry = builtin("isentropic", {"k": k, "c1": p["c1"], "c2": p["c2"]})
    out["system"] = max(residual(entry, "example3_k_minus2").values())
    return out


def _check_k1(params: Mapping, plan: SamplePlan | None) -> dict:
    p = {"c1": Fraction(1, 2), "c2": Fraction(1)}
    p.update({n: Fraction(v) for n, v in params.items()})
    k = Fraction(-1)
    plan = _ode_plan(plan, 0.5, 1.5)
    parse = _parser({}, p)
    arg = "(({c1}/3)*t^3)"
    w = parse("{c1}*t^2*(besseli(-5/6; %s) + {c2}*besseli(5/6; %s))"
              "/(besseli(1/6; %s) + {c2}*besseli(-1/6; %s))"
              % (arg, arg, arg, arg))
    wt = differentiate(w, "t")
    t = var("t")
    # canonical k=-1 form W'' = -2WW' + (4/t)(W' + W^2)
    ode = normalize(differentiate(wt, "t") + con(2) * w * wt
                    - con(4) * (wt + w * w) / t)
    out = {
        "ode": max_abs_on_points(ode, None, plan),
        "amplitude": max_abs_on_points(normalize(parse("{c1}*t^2") - _if6_amplitude(w, wt, k)),
                                       None, plan),
    }
    entry = builtin("isentropic", {"k": k, "c1": p["c1"], "c2": p["c2"]})
    out["system"] = max(residual(entry, "example3_k_minus1").values())
    return out


def _check_general(params: Mapping, plan: SamplePlan | None) -> dict:
    p = {"k": Fraction(-3, 2)}
    p.update({n: Fraction(v) for n, v in params.items()})
    k = p["k"]
    if k == 0 or k == 1:
        raise ModelError("degenerate k")
    plan = _ode_plan(plan, 0.5, 2.0, count=40, min_accepted=10)
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
    entry = builtin("isentropic", {"k": k})
    z = var("z")
    cand = CandidateSolution(entry.space, {
        "u1": parse_expression("x/t"), "u2": parse_expression("y/t"),
        "u3": normalize(mul(z, w)), "a": normalize(mul(z, amp)),
    }, (parse_expression("t"),), name="IF5_reduced")
    points = sample_points(cand, plan, entry.order)
    out["system"] = max(max_abs_on_points(eq, points, plan)
                        for name, eq in zip(entry.equation_names, entry.equations)
                        if name != "sound")
    return out


_ODE_CHECKS = {"IF_k2": _check_k2, "IF9_k1": _check_k1,
               "IF7_general": _check_general}


def reduced_ode_check(kind: str, params: Mapping | None = None,
                      plan: SamplePlan | None = None) -> dict:
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
    return check(params or {}, plan)


# ---------------------------------------------------------------------------
# derived constraint systems (the example8_* candidates and IF12)

def _check_e83_e86(candidate, plan) -> dict:
    entry = builtin("euler")
    entry, cand, plan2 = resolve_candidate(entry, candidate or "example8_euler", plan)
    k = entry.params["k"]
    parse = _parser(entry.functions, dict(entry.params, km1=k - 1))
    constraints = {
        "E83": parse("t^2*d(p,x) + {k}*{km1}*x"),
        "E84": parse("t^2*d(p,y) + {k}*{km1}*y"),
        "E85": parse("d(u3,z) + 2*{k}/t"),
        "E86": parse("d(u3,t) + u3*d(u3,z) + ({k}/t)*(x*d(u3,x) + y*d(u3,y)) + d(p,z)"),
    }
    points = sample_points(cand, plan2, entry.order)
    out = {name: max_abs_on_points(e, points, plan2)
           for name, e in constraints.items()}
    out["system"] = max(max_abs_on_points(eq, points, plan2)
                        for eq in entry.equations)

    # on the weak class (u3, p arbitrary) the Euler system is equivalent
    # to the constraint system; checked identity by identity
    cls = entry.candidates["example8_class"]
    cls_points = sample_points(cls, entry.default_plan, entry.order)
    eqs = dict(zip(entry.equation_names, entry.equations))
    t = var("t")
    pairs = {
        "equiv_x": normalize(eqs["momentum_x"] * t * t - constraints["E83"]),
        "equiv_y": normalize(eqs["momentum_y"] * t * t - constraints["E84"]),
        "equiv_z": normalize(eqs["momentum_z"] - constraints["E86"]),
        "equiv_div": normalize(eqs["continuity"] - constraints["E85"]),
    }
    for name, e in pairs.items():
        out[name] = max_abs_on_points(e, cls_points, entry.default_plan)
    return out


def _check_if12(candidate, plan) -> dict:
    entry = builtin("isentropic")
    entry, cand, plan2 = resolve_candidate(entry, candidate or "IF11", plan)
    k = entry.params["k"]
    parse = _parser(entry.functions, dict(entry.params))
    system = {
        "IF12_ax": parse("d(a,x)"),
        "IF12_ay": parse("d(a,y)"),
        "IF12_z": parse("d(u3,t) + u3*d(u3,z) + (x/t)*d(u3,x) + (y/t)*d(u3,y)"
                        " + {k}*a*d(a,z)"),
        "IF12_t": parse("d(a,t) + u3*d(a,z) + (a/{k})*(2/t + d(u3,z))"),
    }
    points = sample_points(cand, plan2, 1)
    out = {name: max_abs_on_points(e, points, plan2)
           for name, e in system.items()}

    cls = entry.candidates["IF4_class"]
    cls_points = sample_points(cls, entry.default_plan, 1)
    eqs = dict(zip(entry.equation_names, entry.equations))
    pairs = {
        "equiv_1": normalize(eqs["momentum_x"] - parse("{k}*a*d(a,x)")),
        "equiv_2": normalize(eqs["momentum_y"] - parse("{k}*a*d(a,y)")),
        "equiv_3": normalize(eqs["momentum_z"] - system["IF12_z"]),
        "equiv_4": normalize(eqs["sound"] - system["IF12_t"]
                             - parse("(x/t)*d(a,x) + (y/t)*d(a,y)")),
    }
    for name, e in pairs.items():
        out[name] = max_abs_on_points(e, cls_points, entry.default_plan)
    return out


def _check_lns(candidate, plan) -> dict:
    entry = builtin("navier_stokes")
    entry, cand, plan2 = resolve_candidate(entry, candidate or "example8_ns", plan)
    parse = _parser({}, dict(entry.params))
    alpha = parse("{c3}*x*y")
    t, x, y = var("t"), var("x"), var("y")
    lns = normalize(differentiate(alpha, "t")
                    + (con(entry.params["k"]) / t)
                    * (x * differentiate(alpha, "x")
                       + y * differentiate(alpha, "y") - con(2) * alpha)
                    - con(entry.params["nu"])
                    * (differentiate(differentiate(alpha, "x"), "x")
                       + differentiate(differentiate(alpha, "y"), "y")))
    out = {"LNS": max_abs_on_points(lns, None, plan or entry.default_plan)}
    out["system"] = max(residual(entry, cand, plan).values())
    return out


_CONSTRAINT_CHECKS = {"E83_E86": _check_e83_e86, "IF12": _check_if12,
                      "LNS": _check_lns}


def derived_constraint_check(constraint_id: str, candidate=None,
                             plan: SamplePlan | None = None) -> dict:
    """Residuals of an intermediate constraint system plus the identities
    tying it to the full system on the corresponding weak class."""
    try:
        check = _CONSTRAINT_CHECKS[constraint_id]
    except KeyError:
        raise ModelError("unknown constraint id %r; available: %s"
                         % (constraint_id, ", ".join(sorted(_CONSTRAINT_CHECKS))))
    return check(candidate, plan)


# ---------------------------------------------------------------------------
# discrepancy diagnosis

def _central_difference(e: Expression, values: dict, axes, plan, h=1e-4):
    if not axes:
        return evaluate(e, Binding(values), eps_sing=plan.eps_sing,
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


def discrepancy_report(entry: ModelEntry, candidate=None,
                       plan: SamplePlan | None = None, tol: float = 1e-6) -> dict:
    """Locate the first equation a candidate fails and the dominant term.

    The finite-difference leg distinguishes a wrong printed formula
    (small jet gap, large residual) from a differentiation defect.
    """
    entry, cand, plan = resolve_candidate(entry, candidate, plan)
    points = sample_points(cand, plan, entry.order)
    residuals = {}
    failing = None
    worst_point = None
    for name, eq in zip(entry.equation_names, entry.equations):
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
    eq = entry.equations[entry.equation_names.index(failing)]
    b = Binding(worst_point.binding_values())
    terms = eq.terms if isinstance(eq, Sum) else (eq,)
    rows = []
    for term in terms:
        try:
            value = evaluate(term, b, eps_sing=plan.eps_sing,
                             real_domain=not plan.allow_complex)
        except PointRejected:
            value = complex("nan")
        rows.append({"term": to_text(term), "value": abs(value)})
    report["worst_point"] = {name: worst_point.base[name]
                             for name in entry.space.independents}
    report["terms"] = rows
    report["dominant_term"] = max(rows, key=lambda r: r["value"])["term"]
    report["jet_fd_gap"] = _fd_jet_gap(cand, worst_point, plan)
    return report
