"""Workspace grammar: parsing, validation errors, plan directives, and
the export/reparse round trip for every built-in model."""

import pytest

from symred.dsl import (
    DslError,
    load_workspace,
    parse_workspace,
    workspace_from_entry,
    workspace_to_text,
)
from symred.expr import to_text
from symred.models import MODEL_IDS, builtin

DEMO = """
# planar rotation demo
space plane { independent x y; dependent u; order 2; }

system laplace {
  eq d(u,x,x) + d(u,y,y) = 0;
}

field rot { xi = [y, -x]; phi = [0]; }
field P1  { xi = [1, 0];  phi = [0]; }

algebra turn { fields rot; }

candidate radial {
  u = x^2 + y^2;
  domain x (0.5, 2);
}
"""


def test_parse_demo_workspace():
    ws = parse_workspace(DEMO, source="demo")
    assert ws.space.independents == ("x", "y")
    assert ws.space.dependents == ("u",)
    assert ws.space.max_order == 2
    assert set(ws.systems) == {"laplace"}
    assert len(ws.systems["laplace"]) == 1
    assert set(ws.fields) == {"rot", "P1"}
    assert to_text(ws.fields["rot"].xi[0]) == "y"
    assert set(ws.algebras) == {"turn"}
    assert len(ws.algebras["turn"].fields) == 1
    assert set(ws.candidates) == {"radial"}
    assert ws.plan_for("radial").box["x"] == ((0.5, 2.0),)


def test_eq_rhs_moves_to_lhs():
    ws = parse_workspace("""
space s { independent x; dependent u; order 1; }
system sys { eq d(u,x) = u; }
""", source="t")
    assert to_text(ws.systems["sys"][0]) == "d(u,x) - u"


def test_declared_functions_usable():
    ws = parse_workspace("""
space s { independent t x; dependent u; order 2; }
func w(t);
system sys { eq d(u,t) - w(t)*u = 0; }
candidate c { u = w(t)*x; }
""", source="t")
    assert "w" in ws.functions
    assert "w" in to_text(ws.candidates["c"].assignments["u"])


def test_complex_candidate_plan():
    ws = parse_workspace("""
space s { independent t; dependent u; order 1; }
candidate c { u = i*t; complex; domain t (1, 2); }
""", source="t")
    plan = ws.plan_for("c")
    assert plan.allow_complex
    assert plan.box["t"] == ((1.0, 2.0),)


def test_algebra_plan_and_name_clash():
    text = """
space s { independent t; dependent u; order 1; }
field f { xi = [1]; phi = [0]; }
algebra g { fields f; domain t (1, 2); complex; }
candidate %s { u = t; }
"""
    plan = parse_workspace(text % "c", source="t").plan_for("g")
    assert plan.allow_complex and plan.box["t"] == ((1.0, 2.0),)
    with pytest.raises(DslError) as err:
        parse_workspace(text % "g", source="t")
    assert "g names both an algebra and a candidate" in str(err.value)


def test_exclude_clause():
    ws = parse_workspace("""
space s { independent t; dependent u; order 1; }
candidate c { u = t^(-1); exclude t; }
""", source="t")
    assert len(ws.candidates["c"].excluded_loci) == 1


def test_two_spaces_rejected():
    with pytest.raises(DslError):
        parse_workspace("""
space a { independent x; dependent u; order 1; }
space b { independent y; dependent v; order 1; }
""", source="t")


def test_missing_space_rejected():
    with pytest.raises(DslError):
        parse_workspace("system s { eq 0 = 0; }", source="t")


def test_unknown_block_rejected():
    with pytest.raises(DslError):
        parse_workspace("""
space s { independent x; dependent u; order 1; }
surface q { u = x; }
""", source="t")


def test_algebra_must_reference_known_fields():
    with pytest.raises(DslError) as err:
        parse_workspace("""
space s { independent x; dependent u; order 1; }
algebra a { fields ghost; }
""", source="t")
    assert "ghost" in str(err.value)


def test_field_vector_lengths_checked():
    with pytest.raises(DslError):
        parse_workspace("""
space s { independent x y; dependent u; order 1; }
field f { xi = [x]; phi = [0]; }
""", source="t")


def test_unbalanced_braces_rejected():
    with pytest.raises(DslError):
        parse_workspace("space s { independent x; dependent u; order 1;",
                        source="t")


def test_candidate_assignment_must_target_dependent():
    with pytest.raises(DslError):
        parse_workspace("""
space s { independent x; dependent u; order 1; }
candidate c { v = x; }
""", source="t")


@pytest.mark.parametrize("model_id", sorted(MODEL_IDS))
def test_export_round_trip(model_id):
    entry = builtin(model_id)
    ws = workspace_from_entry(entry)
    text = workspace_to_text(ws)
    ws2 = parse_workspace(text, source=model_id)
    assert ws2.space == ws.space
    assert set(ws2.systems) == set(ws.systems)
    assert set(ws2.fields) == set(ws.fields)
    assert set(ws2.algebras) == set(ws.algebras)
    assert set(ws2.candidates) == set(ws.candidates)
    for name, alg in ws.algebras.items():
        assert [f.name for f in ws2.algebras[name].fields] == \
            [f.name for f in alg.fields]
    assert ws2.plans == ws.plans
    # a second serialization is byte-stable
    assert workspace_to_text(ws2) == text


def test_export_omits_candidates_pinned_to_other_parameters():
    # example3_k_minus1/2 solve the system only at k = -1 / -2, and the
    # exported file fixes the entry's own k
    entry = builtin("isentropic")
    ws = workspace_from_entry(entry)
    assert set(ws.candidates) == set(entry.candidates) - {"example3_k_minus1",
                                                           "example3_k_minus2"}
    ws = workspace_from_entry(builtin("isentropic", {"k": -1}))
    assert "example3_k_minus1" in ws.candidates
    assert "example3_k_minus2" not in ws.candidates


def test_workspace_from_entry_shares_plans():
    entry = builtin("vnls3")
    ws = workspace_from_entry(entry)
    plan = ws.plan_for("printed")
    assert plan.allow_complex
    assert "t" in plan.box


def test_load_workspace_reads_files(tmp_path):
    path = tmp_path / "demo.sr"
    path.write_text(DEMO)
    ws = load_workspace(str(path))
    assert ws.source.endswith("demo.sr")
    assert set(ws.fields) == {"rot", "P1"}
