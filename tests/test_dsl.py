"""Workspace grammar: parsing, validation errors, plan directives, and
the export/reparse round trip for every built-in model."""

from fractions import Fraction
from pathlib import Path

import pytest

from symred.dsl import (
    DslError,
    ModelError,
    _read_workspace,
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
    assert ws.candidates["radial"].plan.box["x"] == ((0.5, 2.0),)


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
    plan = ws.candidates["c"].plan
    assert plan.allow_complex
    assert plan.box["t"] == ((1.0, 2.0),)


def test_algebra_plan_and_name_clash():
    text = """
space s { independent t; dependent u; order 1; }
field f { xi = [1]; phi = [0]; }
algebra g { fields f; domain t (1, 2); complex; }
candidate %s { u = t; }
"""
    plan = parse_workspace(text % "c", source="t").algebra_plan("g")
    assert plan.allow_complex and plan.box["t"] == ((1.0, 2.0),)


def test_algebra_and_candidate_may_share_a_name():
    ws = parse_workspace("""
space s { independent t; dependent u; order 1; }
field f { xi = [1]; phi = [0]; }
algebra g { fields f; domain t (1, 2); }
candidate g { u = t; domain t (3, 4); }
""", source="t")
    assert ws.algebra_plan("g").box["t"] == ((1.0, 2.0),)
    assert ws.candidates["g"].plan.box["t"] == ((3.0, 4.0),)


@pytest.mark.parametrize("space, block, message", [
    ("", "candidate c { u = 1; u = t; }", "t: candidate c: u given twice"),
    ("", "field g { xi = [1]; xi = [t]; phi = [0]; }", "t: field g: xi given twice"),
    ("", "field g { xi = [1]; phi = [0]; phi = [u]; }", "t: field g: phi given twice"),
    ("", "candidate c { u = t; domain t (1, 2); domain t (3, 4); }",
     "t: candidate c: domain t given twice"),
    ("", "algebra g { fields f; domain t (1, 2); domain t (3, 4); }",
     "t: algebra g: domain t given twice"),
    ("", "algebra g { fields f f; }", "t: algebra g: field f given twice"),
    ("domain t (1, 2); domain t (3, 4);", "", "t: space: domain t given twice"),
    ("", "candidate c { u = t; param k = 1; param k = 2; }",
     "t: candidate c: param k given twice"),
    ("independent x;", "", "t: space: independent given twice"),
    ("dependent v;", "", "t: space: dependent given twice"),
    ("order 2;", "", "t: space: order given twice"),
])
def test_repeated_block_items_rejected(space, block, message):
    text = """
space s { independent t; dependent u; order 1; %s }
param k = 0;
field f { xi = [1]; phi = [0]; }
%s
""" % (space, block)
    with pytest.raises(DslError) as err:
        parse_workspace(text, source="t")
    assert str(err.value) == message


@pytest.mark.parametrize("kind, block", [
    ("system", "system s { eq u = 0; }"),
    ("field", "field f { xi = [1]; phi = [0]; }"),
    ("algebra", "algebra f2 { fields f0; }"),
    ("candidate", "candidate c { u = t; }"),
])
def test_duplicate_declarations_rejected(kind, block):
    text = """
space s { independent t; dependent u; order 1; }
field f0 { xi = [1]; phi = [0]; }
%s
%s
""" % (block, block.replace("= t", "= 1").replace("= 0", "= 1"))
    with pytest.raises(DslError) as err:
        parse_workspace(text, source="t")
    name = block.split()[1]
    assert str(err.value) == "t: duplicate %s %s" % (kind, name)


@pytest.mark.parametrize("block", [
    "candidate c { u = t; domain q (1, 2); }",
    "algebra g { fields f; domain q (1, 2); }",
])
def test_domain_must_name_a_space_variable(block):
    text = """
space s { independent t; dependent u; order 1; }
field f { xi = [1]; phi = [0]; }
%s
"""
    with pytest.raises(DslError) as err:
        parse_workspace(text % block, source="t")
    assert "domain names q, which is not a variable of the space" in str(err.value)
    # the space's own variables, dependents included, are fine
    parse_workspace(text % block.replace("domain q", "domain u"), source="t")


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


ORDER_SPACE = "space s { independent x t; dependent u; order 1; }\n"


@pytest.mark.parametrize("text, kind, name", [
    ("candidate c { u = a(t); }\nfunc a(t);\n", "candidates", "c"),
    ("algebra g { fields v; }\nfield v { xi = [1, 0]; phi = [0]; }\n", "algebras", "g"),
    ("field v { xi = [1, 0]; phi = [0]; }\ncandidate c { u = x; kernel g v; }\n"
     "algebra g { fields v; }\n", "kernel_hints", "c"),
])
def test_a_block_sees_only_earlier_declarations_when_read_lazily(text, kind, name):
    # a lazily read block raises the error the whole parse gives it
    with pytest.raises(DslError) as whole:
        parse_workspace(ORDER_SPACE + text, source="t")
    lazy = _read_workspace(ORDER_SPACE + text, "t", None, lazy=True)
    with pytest.raises(DslError) as read:
        getattr(lazy, kind)[name]
    assert str(read.value) == str(whole.value)


def test_the_whole_parse_raises_the_first_bad_block_in_text_order():
    with pytest.raises(DslError, match="candidate c: call of undeclared function 'g'"):
        parse_workspace(ORDER_SPACE + "candidate c { u = g(t); }\n"
                        "system s { eq d(u,x) = h(x); }\n", source="t")


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
    assert {name: c.plan for name, c in ws2.candidates.items()} == \
        {name: c.plan for name, c in ws.candidates.items()}
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
    plan = ws.candidates["printed"].plan
    assert plan.allow_complex
    assert "t" in plan.box


def test_load_workspace_reads_files(tmp_path):
    path = tmp_path / "demo.sr"
    path.write_text(DEMO)
    ws = load_workspace(str(path))
    assert ws.source.endswith("demo.sr")
    assert set(ws.fields) == {"rot", "P1"}


def test_duplicate_func_rejected():
    with pytest.raises(DslError) as err:
        parse_workspace("""
space s { independent t x; dependent u; order 1; }
func a(t);
func a(x);
""", source="t")
    assert str(err.value) == "t: duplicate func a"


@pytest.mark.parametrize("decl, message", [
    ("func u(t);", "t: func u shadows dependent u"),
    ("func x(t);", "t: func x shadows independent x"),
    ("param u = 1;", "t: param u shadows dependent u"),
    ("param k = 1; param k = 2;", "t: duplicate param k"),
    ("param k = 1; func k(t);", "t: func k shadows param k"),
])
def test_func_and_param_names_share_one_name_space(decl, message):
    # with `func u(t)` accepted, d(u,t) meant the opaque function's
    # derivative and u = x failed d(u,t) = 0
    text = """
space s { independent x t; dependent u; order 1; }
%s
system s { eq d(u,t) = 0; }
candidate c { u = x; }
""" % decl
    with pytest.raises(DslError) as err:
        parse_workspace(text, source="t")
    assert str(err.value) == message


PARAMS = """
space s { independent x t; dependent u; order 1; }
param k = 5/3;
param km1 = k - 1;
system s { eq grow: d(u,t) = k*t^km1*x; eq d(u,x) = t^k; }
candidate c { u = t^k*x; solution; }
"""


def test_params_stand_for_exact_constants_exponents_included():
    ws = parse_workspace(PARAMS, source="t")
    assert ws.params == {"k": Fraction(5, 3), "km1": Fraction(2, 3)}
    inlined = parse_workspace(PARAMS.replace("param k = 5/3;\nparam km1 = k - 1;\n", "")
                              .replace("km1", "(2/3)").replace("k", "(5/3)"), source="t")
    assert ws.systems == inlined.systems
    assert ws.candidates == inlined.candidates
    assert ws.equation_names == ("grow", "eq2")
    assert ws.solutions == {"c"}


def test_only_literal_params_can_be_overridden():
    ws = parse_workspace(PARAMS, source="t", params={"k": 2})
    assert ws.params == {"k": 2, "km1": 1}
    assert to_text(ws.candidates["c"].assignments["u"]) == "x*t^2"
    assert ws.with_params({"k": 3}).params["km1"] == 2
    for name in ("km1", "zeta"):
        with pytest.raises(ModelError) as err:
            parse_workspace(PARAMS, source="t", params={name: 1})
        assert str(err.value) == "t has no parameter %r" % name


@pytest.mark.parametrize("decl", ["param k = x;", "param k = 2^(1/2);", "param = 1;"])
def test_param_must_be_a_rational_constant(decl):
    with pytest.raises(DslError):
        parse_workspace("space s { independent x; dependent u; order 1; }\n" + decl,
                        source="t")


def test_space_block_sets_the_default_plan():
    ws = parse_workspace("""
space s { independent t; dependent u; order 1; domain t (1, 2); complex; }
field f { xi = [1]; phi = [0]; }
algebra a { fields f; }
algebra b { fields f; domain t (3, 4); }
candidate c { u = t; }
""", source="t")
    default = ws.candidates["c"].plan
    assert default.allow_complex and default.box["t"] == ((1.0, 2.0),)
    assert ws.algebra_plan("a") == default
    assert ws.algebra_plan("b").box == {"t": ((3.0, 4.0),)}
    assert not ws.algebra_plan("b").allow_complex


@pytest.mark.parametrize("hint", ["kernel tr T*P;", "kernel tr T + 1;", "kernel ghost T;",
                                  "kernel tr;"])
def test_kernel_hint_must_combine_an_algebras_generators(hint):
    with pytest.raises(DslError):
        parse_workspace("""
space s { independent x t; dependent u; order 1; }
field P { xi = [1, 0]; phi = [0]; }
field T { xi = [0, 1]; phi = [0]; }
algebra tr { fields P T; }
candidate c { u = x; %s }
""" % hint, source="t")


@pytest.mark.parametrize("model_id", sorted(MODEL_IDS))
def test_export_matches_the_golden_text(model_id):
    # tests/exports holds `symred models --export ID` as printed before
    # the built-ins became shipped .sr text
    golden = (Path(__file__).parent / "exports" / (model_id + ".sr")).read_bytes()
    text = workspace_to_text(workspace_from_entry(builtin(model_id)))
    assert text.encode("utf-8") == golden


@pytest.mark.parametrize("decl", ["func w(t)", "param k = 1"])
def test_declaration_missing_its_semicolon_rejected(decl):
    # it used to swallow the header of the block after it, so system b
    # vanished without a word
    with pytest.raises(DslError) as err:
        parse_workspace("""
space s { independent x t; dependent u; order 1; }
system a { eq d(u,t) = 0; }
%s
system b { eq d(u,x) = 1; }
""" % decl, source="t")
    assert str(err.value) == "t: %s is missing its ';'" % " ".join(decl.split()[:2])


@pytest.mark.parametrize("decl, message", [
    ("param a = 0; param b = 1/a; system s { eq u = 0; }",
     "t: param b: division by exact zero"),
    ("system s { eq e1: u/0 = 0; }", "t: system s: division by exact zero"),
    ("system s { }", "t: system s declares no equations"),
    # a whole read looks a candidate's kernel hints up after its body, so
    # the bad assignment is reported before the bad hint written above it
    ("field v { xi = [1]; phi = [0]; } algebra g { fields v; }"
     " candidate c { kernel g w; u = h(x); }",
     "t: candidate c: call of undeclared function 'h' (line 1, column 2)"),
])
def test_zero_divisors_and_empty_systems_name_their_declaration(decl, message):
    text = "space s { independent x; dependent u; order 1; }\n%s\n" % decl
    with pytest.raises(DslError) as err:
        parse_workspace(text, source="t")
    assert str(err.value) == message
