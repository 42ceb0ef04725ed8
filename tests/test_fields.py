"""Vector fields: characteristics, prolongation, brackets, closure."""

import numpy as np
import pytest

from helpers import numpy_lstsq_fit
from symred import fields
from symred.expr import (MINUS_ONE, ZERO, Product, Sum, differentiate, free_variables,
                         normalize)
from symred.fields import (
    CLOSURE_TOL,
    Algebra,
    FieldError,
    VectorField,
    apply_prolonged,
    characteristic_matrix,
    closure_check,
    lie_bracket,
    prolong,
    xi_matrices,
)
from symred.jets import (CandidateSolution, JetError, JetKey, key_of_variable, key_variable,
                         make_space, sample_points, total_derivative)
from symred.models import MODEL_IDS, builtin, draw_params
from symred.numeric import Binding, evaluate
from symred.parser import parse_expression
from symred.sampling import SamplePlan, numeric_equiv

SPACE = make_space(("x", "y"), ("u",), 2)
P = parse_expression


def _field(xi, phi, name="v"):
    return VectorField(SPACE, tuple(P(t) for t in xi), tuple(P(t) for t in phi),
                       name=name)


ROT = _field(("y", "-x"), ("0",), "rot")
SCALE = _field(("x", "y"), ("2*u",), "scale")


def test_coefficients_must_be_jet_free():
    with pytest.raises(FieldError):
        _field(("d(u,x)", "0"), ("0",))


def test_characteristic():
    q = characteristic_matrix(Algebra(SPACE, (ROT,), "a"))
    # Q = phi - xi u_x - eta u_y = -y u_x + x u_y
    expected = P("x*d(u,y) - y*d(u,x)")
    assert numeric_equiv(q.entries[0][0], expected)


def test_xi_matrices_shapes():
    a = Algebra(SPACE, (ROT, SCALE), "a")
    xi1, xi2 = xi_matrices(a)
    assert xi1.shape == (2, 2)
    assert xi2.shape == (2, 3)
    # Xi2 appends the phi block
    assert numeric_equiv(xi2.entries[1][2], P("2*u"))


def test_prolongation_translation_is_trivial():
    t = _field(("1", "0"), ("0",), "P1")
    coeffs = prolong(t, 2)
    for key, e in coeffs.items():
        assert normalize(e) == normalize(P("0")), key


def test_prolongation_first_order_rotation():
    # coefficients are keyed by JetKey; translate through jet names
    from symred.jets import key_of_variable
    coeffs = prolong(ROT, 1)
    got = {}
    for key, e in coeffs.items():
        got[key] = e
    kx = key_of_variable(SPACE, "d(u,x)")
    ky = key_of_variable(SPACE, "d(u,y)")
    b = Binding({"x": 0.7, "y": -1.1, "u": 0.2,
                 "d(u,x)": 1.5, "d(u,y)": -2.0})
    # phi^x = u_y, phi^y = -u_x for the plain rotation
    assert evaluate(got[kx], b) == pytest.approx(-2.0)
    assert evaluate(got[ky], b) == pytest.approx(-1.5)


def test_prolongation_dilation_second_order():
    # v = x dx + u du: phi^{xx} = -u_xx. Classic dilation bookkeeping.
    from symred.jets import key_of_variable
    v = _field(("x", "0"), ("u",), "D")
    coeffs = prolong(v, 2)
    b = Binding({"x": 0.9, "y": 0.4, "u": 1.1, "d(u,x)": 0.6,
                 "d(u,y)": -0.3, "d(u,x,x)": 2.0, "d(u,x,y)": -1.0,
                 "d(u,y,y)": 0.8})
    def at(name):
        return evaluate(coeffs[key_of_variable(SPACE, name)], b)
    assert at("d(u,x)") == pytest.approx(0.0)
    assert at("d(u,y)") == pytest.approx(-0.3)
    assert at("d(u,x,x)") == pytest.approx(-2.0)


def test_apply_prolonged_on_invariant_equation():
    # rotation annihilates x^2 + y^2 and commutes with the Laplacian
    e = P("d(u,x,x) + d(u,y,y)")
    acted = apply_prolonged(ROT, e)
    c = CandidateSolution(SPACE, {"u": P("x^2 - y^2")}, name="harmonic")
    pts = sample_points(c, SamplePlan(), [e, acted])
    from symred.analysis import max_abs_on_points
    assert max_abs_on_points(acted, pts, SamplePlan()) < 1e-12


def test_lie_bracket_antisymmetry():
    b1 = lie_bracket(ROT, SCALE)
    b2 = lie_bracket(SCALE, ROT)
    for e1, e2 in zip(b1.xi + b1.phi, b2.xi + b2.phi):
        assert numeric_equiv(e1, normalize(P("0") - e2))


def test_lie_bracket_translations_commute():
    p1 = _field(("1", "0"), ("0",), "P1")
    p2 = _field(("0", "1"), ("0",), "P2")
    br = lie_bracket(p1, p2)
    assert all(normalize(e) == normalize(P("0")) for e in br.xi + br.phi)


def test_bracket_rotation_translation():
    # [P1, rot] = -P2 in these conventions: xi components (0, -1)
    p1 = _field(("1", "0"), ("0",), "P1")
    br = lie_bracket(p1, ROT)
    assert numeric_equiv(br.xi[0], P("0"))
    assert numeric_equiv(br.xi[1], P("-1"))


def test_closure_detects_open_sets():
    p1 = _field(("1", "0"), ("0",), "P1")
    a = Algebra(SPACE, (p1, ROT), "open")   # [P1, rot] = -P2 not in span
    rep = closure_check(a, a)
    assert not rep.ok
    # exactly: the remainder (0, -1, 0) over max(1, |(0, -1, 0)|)
    assert rep.exact and rep.worst_residual == 1.0
    full = Algebra(SPACE, (p1, _field(("0", "1"), ("0",), "P2"), ROT), "closed")
    assert closure_check(full, full).ok


def test_closure_membership_of_subalgebra():
    p1 = _field(("1", "0"), ("0",), "P1")
    p2 = _field(("0", "1"), ("0",), "P2")
    sub = Algebra(SPACE, (p1,), "sub")
    big = Algebra(SPACE, (p1, p2, ROT), "big")
    assert closure_check(sub, big).ok
    # but the big one is not inside the small one
    assert not closure_check(big, sub).ok


def test_closure_sampling_rejects_points_outside_the_real_domain():
    # x^(1/2) and (x^2)^(1/4) agree for x > 0; for x < 0 the principal
    # branch makes the first imaginary, so a real plan must drop those x
    plan = SamplePlan(box={"x": ((-0.25, 2.0),)})
    root = Algebra(SPACE, (_field(("x^(1/2)", "0"), ("0",), "root"),), "root")
    modulus = Algebra(SPACE, (_field(("(x^2)^(1/4)", "0"), ("0",), "mod"),), "mod")
    rep = closure_check(root, modulus, plan)
    assert rep.ok and not rep.exact     # (x^2)^(1/4) is not a polynomial
    assert rep.membership[0] == pytest.approx((1.0,))


def test_closure_of_a_builtin_field_is_sampled():
    grow = Algebra(SPACE, (_field(("exp(x)", "0"), ("0",), "grow"),
                           _field(("0", "1"), ("0",), "P2")), "grow")
    rep = closure_check(grow, grow)
    assert rep.ok and not rep.exact
    assert rep.structure[(0, 1)] == pytest.approx((0.0, 0.0))


def _agree(basis, targets, fit=fields._fit_in_span):
    """Fit targets over basis by _fit_in_span and by the lstsq oracle;
    assert they agree and return whether basis has full rank."""
    want, want_flagged = numpy_lstsq_fit(targets, basis)
    got, flagged = fit([list(t) for t in targets], [list(v) for v in basis])
    assert flagged == want_flagged
    for (coeff, resid), (want_coeff, want_resid) in zip(got, want):
        assert (resid < CLOSURE_TOL) == (want_resid < CLOSURE_TOL), (resid, want_resid)
        if not flagged and resid < CLOSURE_TOL:
            scale = max(1.0, *map(abs, want_coeff))
            assert max(map(abs, np.subtract(coeff, want_coeff))) <= 1e-10 * scale
    return not flagged


def _close(got, want):
    scale = max(1.0, *map(abs, want))
    return max(abs(g - w) for g, w in zip(got, want)) <= 1e-10 * scale


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_closure_fit_agrees_with_lstsq_on_the_library(monkeypatch, model_id):
    # the sampled route, driven directly, against lstsq; the exact route
    # closure_check takes on every built-in against the sampled one
    fit = fields._fit_in_span
    seen = []

    def checked(targets, basis):
        seen.append(_agree(basis, targets))
        return fit(targets, basis)

    monkeypatch.setattr(fields, "_fit_in_span", checked)
    for draw in (None, 1, 2, 3, 4):
        ws = builtin(model_id, None if draw is None else draw_params(model_id, draw))
        for name, algebra in sorted(ws.algebras.items()):
            sampled = fields._closure_by_sampling(algebra, algebra, ws.algebra_plan(name))
            assert sampled.ok and not sampled.flagged and sampled.worst_residual < 1e-8, \
                (name, draw)
            exact = closure_check(algebra, algebra, ws.algebra_plan(name))
            assert exact.exact and not sampled.exact
            assert (exact.ok, exact.flagged) == (sampled.ok, sampled.flagged), (name, draw)
            assert exact.worst_residual == 0.0
            for fits, want in ((exact.membership, sampled.membership),
                               (exact.structure, sampled.structure)):
                assert fits.keys() == want.keys()
                assert all(_close(fits[k], want[k]) for k in fits), (name, draw)
    assert len(seen) == 5 * len(ws.algebras) and all(seen)


def test_closure_fit_agrees_with_lstsq_on_random_designs():
    rng = np.random.default_rng(20240)
    full = 0
    for design in range(240):
        n = int(rng.integers(1, 9))
        samples = int(rng.integers(n, 90))
        complex_ = design % 2 == 1
        shape = (n, samples)
        basis = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0)
        if design % 5 == 2 and n > 1:      # rank deficient: a last vector in the span
            basis[-1] = rng.normal(size=n - 1) @ basis[:-1]
        if design % 7 == 3:                # a zero vector
            basis[int(rng.integers(n))] = 0
        if design % 11 == 5:               # all zero
            basis[:] = 0
        basis *= 10.0 ** rng.uniform(-3, 3)
        members = rng.normal(size=(4, n)) @ basis
        if complex_:
            members = members + 1j * (rng.normal(size=(4, n)) @ basis)
        strangers = rng.normal(size=(3, samples)) * np.max(np.abs(basis), initial=1.0)
        full += _agree(basis.tolist(), members.tolist() + strangers.tolist())
    assert full > 120


def test_closure_fit_flags_a_basis_at_the_rank_tolerance():
    # a third vector off the span of the first two by 1e-11 of the scale:
    # lstsq's rcond (eps times the sample count) counts it, the elimination
    # does not, at RANK_PIVOT_REL_TOL = 1e-9 like every other rank
    rng = np.random.default_rng(5)
    basis = rng.normal(size=(3, 40))
    basis[2] = basis[0] - basis[1] + 1e-11 * rng.normal(size=40)
    assert not numpy_lstsq_fit([basis[0]], basis)[1]
    assert fields._fit_in_span([list(basis[0])], basis.tolist())[1]


def test_algebra_requires_common_space():
    other = make_space(("x", "y"), ("w",), 1)
    w = VectorField(other, (P("1"), P("0")), (P("0"),), "w")
    with pytest.raises(FieldError):
        Algebra(SPACE, (ROT, w), "mixed")


# ---------------------------------------------------------------------------
# on-demand prolongation against the level-by-level recursion it replaced

def _level_prolong(v, order):
    """The level-by-level prolong, kept verbatim as the oracle."""
    space = v.space
    if order > space.max_order:
        raise JetError("prolongation order %d exceeds max_order %d"
                       % (order, space.max_order))
    out = {}
    for alpha in range(space.q):
        out[JetKey(alpha, (0,) * space.p)] = v.phi[alpha]
    d_xi = [[total_derivative(v.xi[j], space, i) for j in range(space.p)]
            for i in range(space.p)]
    for level in range(1, order + 1):
        for key in list(out):
            if key.order != level - 1:
                continue
            for i in range(space.p):
                new_orders = tuple(k + (1 if j == i else 0)
                                   for j, k in enumerate(key.orders))
                new_key = JetKey(key.alpha, new_orders)
                if new_key in out:
                    continue
                terms = [total_derivative(out[key], space, i)]
                for j in range(space.p):
                    if d_xi[i][j] == ZERO:
                        continue
                    bump = tuple(k + (1 if l == j else 0)
                                 for l, k in enumerate(key.orders))
                    jet = key_variable(space, JetKey(key.alpha, bump))
                    terms.append(Product((MINUS_ONE, d_xi[i][j], jet)))
                out[new_key] = normalize(Sum(tuple(terms)))
    return out


def _jet_order(space, exprs):
    keys = (key_of_variable(space, name) for e in exprs for name in free_variables(e))
    return max((key.order for key in keys if key is not None), default=0)


def _level_apply_prolonged(v, e):
    """apply_prolonged over the whole oracle prolongation, kept verbatim."""
    space = v.space
    coeffs = _level_prolong(v, _jet_order(space, (e,)))
    terms = []
    for i, x in enumerate(space.independents):
        de = differentiate(e, x)
        if de == ZERO or v.xi[i] == ZERO:
            continue
        terms.append(Product((v.xi[i], de)))
    for key, phi in coeffs.items():
        de = differentiate(e, key_variable(space, key).name)
        if de == ZERO or phi == ZERO:
            continue
        terms.append(Product((phi, de)))
    return normalize(Sum(tuple(terms))) if terms else ZERO


def _builtin_fields(model_id, draw):
    ws = builtin(model_id, draw_params(model_id, 7) if draw else None)
    return ws, [v for a in ws.algebras.values() for v in a.fields]


@pytest.mark.parametrize("draw", [False, True], ids=["default", "draw7"])
@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_prolong_matches_the_level_recursion(model_id, draw):
    _, fields = _builtin_fields(model_id, draw)
    for v in fields:
        for order in (1, v.space.max_order):
            got = prolong(v, order)
            want = _level_prolong(v, order)
            assert list(got) == list(want), (v.name, order)
            assert got == want, (v.name, order)


@pytest.mark.parametrize("draw", [False, True], ids=["default", "draw7"])
@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_apply_prolonged_matches_the_level_recursion(model_id, draw):
    ws, fields = _builtin_fields(model_id, draw)
    for v in fields:
        for name, e in zip(ws.equation_names, ws.equations):
            assert apply_prolonged(v, e) == _level_apply_prolonged(v, e), (v.name, name)


def test_prolong_above_max_order_raises():
    with pytest.raises(JetError):
        prolong(ROT, SPACE.max_order + 1)
