"""Command line driver: output text, exit codes, JSON envelopes, and the
file-workspace path."""

import json

import pytest

from symred.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_rot3_text(capsys):
    code, out = run(capsys, "classify", "builtin:navier_stokes",
                    "--algebra", "rot3")
    assert code == 0
    assert "rank Xi1=2, rank Xi2=3, strong transversality VIOLATED" in out


def test_classify_tr2_strong(capsys):
    code, out = run(capsys, "classify", "builtin:laplace_fo",
                    "--algebra", "tr2")
    assert code == 0
    assert "strong transversality HOLDS" in out


def test_classify_with_candidate_weak_line(capsys):
    code, out = run(capsys, "classify", "builtin:navier_stokes",
                    "--algebra", "rot3", "--candidate", "Sl1")
    assert code == 0
    assert "weak transversality HOLDS" in out


def test_defect_text(capsys):
    code, out = run(capsys, "defect", "builtin:laplace_fo",
                    "--algebra", "tr2", "--candidate", "SLE")
    assert code == 0
    assert "defect delta=1" in out
    assert "PartiallyInvariant" in out


def test_verify_pass_and_flag(capsys):
    code, out = run(capsys, "verify", "builtin:navier_stokes",
                    "--candidate", "sol")
    assert code == 0
    assert "PASS" in out
    code, out = run(capsys, "verify", "builtin:euler",
                    "--candidate", "SE_printed")
    assert code == 2
    assert "FAIL" in out


def test_minors_on_candidate(capsys):
    code, out = run(capsys, "minors", "builtin:navier_stokes",
                    "--algebra", "rot3", "--candidate", "Sl1")
    assert code == 0
    assert "HOLDS" in out


def test_minors_flags_failed_weak_transversality(capsys):
    code, out = run(capsys, "minors", "builtin:euler",
                    "--algebra", "rot3", "--candidate", "SE_printed")
    assert code == 2
    assert "weak transversality FAILS" in out


def test_minors_none_exist(capsys):
    code, out = run(capsys, "minors", "builtin:laplace_fo",
                    "--algebra", "tr2")
    assert code == 0
    assert "no minors" in out


def test_kernel_reports_match(capsys):
    code, out = run(capsys, "kernel", "builtin:isentropic",
                    "--algebra", "full12", "--candidate", "IF11")
    assert code == 0
    assert "pointwise kernel dimension: 8" in out
    assert "constant kernel dimension: 1" in out
    assert "matches named combination: K3 + t0*P3" in out


def test_symcheck_yes_and_donor_precondition(capsys):
    code, out = run(capsys, "symcheck", "builtin:laplace_fo",
                    "--field", "PU", "--candidate", "SLE")
    assert code == 0
    assert ": yes" in out
    # Sl1 is a class, not a solution; the donor precondition rejects it
    code, _ = run(capsys, "symcheck", "builtin:navier_stokes",
                  "--field", "T", "--candidate", "Sl1")
    assert code == 1


def test_symcheck_on_a_candidate_that_rebuilds_its_model(capsys):
    # example3_k_minus1 resolves to isentropic at k = -1; the donor must
    # be checked against that system, not the default-k one
    code, out = run(capsys, "symcheck", "builtin:isentropic",
                    "--field", "K1", "--candidate", "example3_k_minus1")
    assert code == 0
    assert ": yes" in out


def test_models_listing(capsys):
    code, out = run(capsys, "models")
    assert code == 0
    for model_id in ("navier_stokes", "euler", "isentropic", "vnls3",
                     "laplace_fo"):
        assert model_id in out
    assert "sol*" in out


def test_models_export_reparses(capsys, tmp_path):
    code, out = run(capsys, "models", "--export", "euler")
    assert code == 0
    path = tmp_path / "euler.sr"
    path.write_text(out)
    code2, out2 = run(capsys, "classify", str(path), "--algebra", "gal3")
    assert code2 == 0
    assert "strong transversality HOLDS" in out2
    # g2 (fields with t^(5/3)) needs its algebra's t > 0 domain in the file
    code, out = run(capsys, "models", "--export", "navier_stokes")
    path = tmp_path / "ns.sr"
    path.write_text(out)
    code, out = run(capsys, "classify", str(path), "--algebra", "g2")
    assert code == 0
    assert "rank Xi1=3, rank Xi2=4" in out


def test_json_envelope_byte_identical(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _ = run(capsys, "classify", "builtin:navier_stokes",
                      "--algebra", "rot3", "--seed", "5",
                      "--json", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["schema"] == 1
    assert payload["command"] == "classify"
    assert payload["workspace"] == "builtin:navier_stokes"
    assert payload["seed"] == 5
    assert payload["flagged"] is False
    assert payload["report"]["rank_xi1"] == 2
    assert first.read_text().endswith("\n")


def test_usage_errors_exit_one(capsys):
    assert main(["classify", "builtin:navier_stokes"]) == 1          # no algebra
    capsys.readouterr()
    assert main(["classify", "builtin:nope", "--algebra", "x"]) == 1
    capsys.readouterr()
    assert main(["classify", "builtin:navier_stokes",
                 "--algebra", "ghost"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["verify", "/no/such/file.sr", "--candidate", "c"]) == 1
    capsys.readouterr()


LINE_SPACE = "space line { independent x; dependent u; order 1; }"
LINE_SR = """
%s
system flat { eq d(u,x) = 0; }
field v { xi = [%s]; phi = [0]; }
algebra a { fields v; }
candidate c { u = 1; domain x %s; }
"""
VERIFY_C = ("verify", "{sr}", "--candidate", "c")


@pytest.mark.parametrize("space, xi, domain, argv", [
    (LINE_SPACE, "d(u,x)", "(1, 2)", ("classify", "{sr}", "--algebra", "a")),
    (LINE_SPACE, "1", "(1, 2)", ("verify", "builtin:navier_stokes", "--candidate", "sol",
                                 "--samples", "3")),
    (LINE_SPACE, "1", "(2, 1)", VERIFY_C),
    (LINE_SPACE, "1", "(a, 1)", VERIFY_C),
    (LINE_SPACE, "1", "(1, 2, 3)", VERIFY_C),
    (LINE_SPACE.replace("order 1", "order two"), "1", "(1, 2)", VERIFY_C),
    (LINE_SPACE.replace("order 1", "order"), "1", "(1, 2)", VERIFY_C),
    (LINE_SPACE, "1", "(1, 2)", VERIFY_C + ("--seed", "-1")),
    (LINE_SPACE, "1", "(1, 2)", VERIFY_C + ("--tol", "nan")),
    (LINE_SPACE, "1", "(1, 2); domain q (1, 2)", VERIFY_C),
    (LINE_SPACE, "1", "(1, 2); }\nalgebra b { fields v; domain q (1, 2)",
     ("classify", "{sr}", "--algebra", "b")),
], ids=["field-uses-jet-coordinate", "samples-below-4", "domain-empty",
        "domain-not-a-number", "domain-not-a-pair", "order-not-a-number",
        "order-missing", "seed-negative", "tol-not-a-number",
        "domain-outside-the-space", "algebra-domain-outside-the-space"])
def test_errors_exit_one_with_one_line(capsys, tmp_path, space, xi, domain, argv):
    path = tmp_path / "line.sr"
    path.write_text(LINE_SR % (space, xi, domain))
    assert main([a.format(sr=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("symred: ") and err.count("\n") == 1


def test_samples_and_tol_flags(capsys):
    code, out = run(capsys, "verify", "builtin:navier_stokes",
                    "--candidate", "sol", "--samples", "20",
                    "--tol", "1e-6", "--seed", "11")
    assert code == 0
    assert "PASS" in out


def test_file_workspace_verify_and_symcheck(capsys, tmp_path):
    path = tmp_path / "plane.sr"
    path.write_text("""
space plane { independent x y; dependent u; order 2; }
system laplace { eq d(u,x,x) + d(u,y,y) = 0; }
field rot { xi = [y, -x]; phi = [0]; }
field shear { xi = [y, 0]; phi = [0]; }
algebra turn { fields rot; }
candidate saddle { u = x^2 - y^2; }
candidate twist { u = x*y; }
candidate bad { u = x^2; }
""")
    code, out = run(capsys, "verify", str(path), "--candidate", "saddle")
    assert code == 0 and "PASS" in out
    code, out = run(capsys, "verify", str(path), "--candidate", "bad")
    assert code == 2 and "FAIL" in out
    code, out = run(capsys, "symcheck", str(path), "--field", "rot",
                    "--candidate", "saddle")
    assert code == 0 and ": yes" in out
    # shear is not a symmetry; its residue -2*d(u,x,y) survives on x*y
    code, out = run(capsys, "symcheck", str(path), "--field", "shear",
                    "--candidate", "twist")
    assert code == 2 and ": NO" in out
    code, out = run(capsys, "classify", str(path), "--algebra", "turn",
                    "--candidate", "saddle")
    assert code == 0
