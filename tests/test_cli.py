"""Command line driver: output text, exit codes, JSON envelopes, and the
file-workspace path."""

import argparse
import gc
import json
import os
import re
import subprocess
import sys

import pytest

import symred.numeric
from helpers import perfbench_jobs
from symred.analysis import classify_transversality, constant_kernel_generators, defect
from symred.cli import _build_parser, _load, _read_argv, main
from symred.dsl import workspace_to_text
from symred.models import MODEL_IDS, builtin, draw_params, resolve_candidate


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


def test_stand_ins_are_bound_never_substituted(monkeypatch, capsys):
    # Opaque functions are read from the binding's stand-ins: with the
    # tree-rewriting instantiation refused wherever symred binds it, the
    # commands on the Euler family with a(t), F and h1 still reach their
    # documented verdicts.
    rebuilders = (symred.numeric.substitute_functions, symred.numeric.instantiate_functions)

    def refuse(*args, **kwargs):
        raise AssertionError("a stand-in was substituted into a tree")

    patched = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "symred" or name.startswith("symred.")):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is f for f in rebuilders):
                monkeypatch.setattr(module, attr, refuse)
                patched += 1
    assert patched >= 2
    code, out = run(capsys, "verify", "builtin:euler", "--candidate", "SE_corrected")
    assert code == 0
    assert "(PASS at tol" in out
    code, out = run(capsys, "kernel", "builtin:euler",
                    "--algebra", "full13", "--candidate", "SE_corrected")
    assert code == 0
    assert "pointwise kernel dimension: 9" in out
    assert "constant kernel dimension: 0" in out


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


def test_minors_all_zero_hold_on_a_candidate(capsys, tmp_path):
    # proportional fields: every 2x2 minor of Xi2 vanishes identically
    path = tmp_path / "ab.sr"
    path.write_text("""
space s { independent x y; dependent u; order 1; }
field A { xi = [1, 0]; phi = [0]; }
field B { xi = [2, 0]; phi = [0]; }
algebra ab { fields A B; }
candidate c { u = x; }
""")
    code, out = run(capsys, "minors", str(path), "--algebra", "ab", "--candidate", "c",
                    "--json", str(tmp_path / "out.json"))
    assert code == 0
    assert "0 distinct minors" in out
    assert "max |minor| on c: 0.000000e+00 -> weak transversality HOLDS" in out
    report = json.loads((tmp_path / "out.json").read_text())["report"]
    assert report["max_on_candidate"] == 0.0 and report["weak_holds"]


def test_kernel_reports_match(capsys):
    code, out = run(capsys, "kernel", "builtin:isentropic",
                    "--algebra", "full12", "--candidate", "IF11")
    assert code == 0
    assert "pointwise kernel dimension: 8" in out
    assert "constant kernel dimension: 1" in out
    assert "matches named combination: K3 + t0*P3" in out


def _fresh_process(*commands, after="", env=None):
    """Run each argv through symred.cli.main, then the code after, in one
    new interpreter where importing numpy fails; return its stdout.  The
    variables in env override the inherited ones."""
    code = "import sys\nsys.modules['numpy'] = None\nfrom symred.cli import main\n"
    code += "".join("main(%r)\n" % list(argv) for argv in commands) + after
    src = os.path.dirname(os.path.dirname(symred.__file__))
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_every_module_compiles_from_source_without_warnings(tmp_path):
    # CLI processes compile symred from source each time when bytecode is
    # not written; a compile-time warning (say `x is 0`) would then load
    # the warnings machinery in every one of them.  Each module file is
    # imported by name, since some (symred.poly) load only on demand.
    src = os.path.dirname(os.path.dirname(symred.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    modules = sorted("symred." + name[:-3] for name in os.listdir(os.path.join(src, "symred"))
                     if name.endswith(".py") and name != "__init__.py")
    code = ("import importlib, sys\n"
            "for name in %r:\n"
            "    importlib.import_module(name)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('symred.'))))"
            % modules)
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == modules
    assert not any(tmp_path.iterdir())


CLOSE_EVERY_ALGEBRA = """
from symred.fields import closure_check
from symred.models import MODEL_IDS, builtin
for model_id in MODEL_IDS:
    ws = builtin(model_id)
    for name, algebra in sorted(ws.algebras.items()):
        print(model_id, name, closure_check(algebra, algebra).ok)
"""


# one run of each CLI command
SEVEN_COMMANDS = (
    ["classify", "builtin:navier_stokes", "--algebra", "rot3", "--candidate", "Sl1"],
    ["defect", "builtin:laplace_fo", "--algebra", "tr2", "--candidate", "SLE"],
    ["verify", "builtin:navier_stokes", "--candidate", "sol"],
    ["minors", "builtin:navier_stokes", "--algebra", "rot3", "--candidate", "Sl1"],
    ["kernel", "builtin:isentropic", "--algebra", "full12", "--candidate", "IF11"],
    ["symcheck", "builtin:laplace_fo", "--field", "PU", "--candidate", "SLE"],
    ["models"],
)


def test_no_code_path_imports_numpy():
    out = _fresh_process(*SEVEN_COMMANDS, after=CLOSE_EVERY_ALGEBRA)
    assert "weak transversality HOLDS" in out and "PASS" in out and ": yes" in out
    assert "matches named combination: K3 + t0*P3" in out
    closures = out.splitlines()[-13:]
    assert len({line.split()[0] for line in closures}) == 5, closures
    assert all(line.endswith(" True") for line in closures), closures


def test_only_minors_and_closure_check_import_poly():
    # symred.poly is compiled on demand, so only the weak minors and
    # closure_check pay for it: the six other commands leave it unloaded
    loaded = "print('poly loaded:', 'symred.poly' in sys.modules)\n"
    others = [argv for argv in SEVEN_COMMANDS if argv[0] != "minors"]
    minors, = [argv for argv in SEVEN_COMMANDS if argv[0] == "minors"]
    out = _fresh_process(*others, after=loaded + "main(%r)\n" % minors + loaded)
    assert len(others) == 6 and "weak transversality HOLDS" in out
    assert re.findall("poly loaded: .*", out) == ["poly loaded: False", "poly loaded: True"]
    out = _fresh_process(after=CLOSE_EVERY_ALGEBRA + loaded)
    assert out.splitlines()[-1] == "poly loaded: True"


def test_the_first_command_freezes_the_heap_once():
    # main freezes the heap it starts with, so exit skips tearing it
    # down; later commands in the process, a usage error among them,
    # freeze nothing more.  Frozen objects still die by reference
    # counting, so the count may fall, but a second freeze would raise it.
    count = "print('frozen:', gc.get_freeze_count())\n"
    out = _fresh_process(after="import gc\n" + count + "main(%r)\n" % ["models"] + count
                         + "print('exit', main(%r))\n" % ["classify"] + count
                         + "main(%r)\n" % list(SEVEN_COMMANDS[2]) + count)
    counts = [int(n) for n in re.findall(r"frozen: (\d+)", out)]
    assert counts[0] == 0 < counts[1] and counts[1:] == sorted(counts[1:], reverse=True), counts
    assert "exit 1" in out and "PASS" in out


# Records each block symred.dsl builds: fields, algebras and candidates by
# name, and one ("system", None) per normalized equation (dsl normalizes
# nothing else outside candidates' kernel hints).
SPY_ON_BLOCKS = """
import symred.dsl as dsl
read = []
def spy(kind, make):
    def made(*args, **kwargs):
        read.append((kind, kwargs.get("name")))
        return make(*args, **kwargs)
    return made
dsl.VectorField = spy("field", dsl.VectorField)
dsl.Algebra = spy("algebra", dsl.Algebra)
dsl.CandidateSolution = spy("candidate", dsl.CandidateSolution)
dsl.normalize = spy("system", dsl.normalize)
"""


GAL_P3 = [("algebra", "gal_p3"), ("field", "K1"), ("field", "K2"), ("field", "K3"),
          ("field", "P3")]


@pytest.mark.parametrize("argv, blocks", [
    (["classify", "builtin:euler", "--algebra", "gal3"],
     [("algebra", "gal3"), ("field", "K1"), ("field", "K2"), ("field", "K3")]),
    (["models"], []),
    # IF11's `kernel full12 ...` hint is read only when a command looks it up
    (["defect", "builtin:isentropic", "--algebra", "gal_p3", "--candidate", "IF11"],
     GAL_P3 + [("candidate", "IF11")]),
    # a pinned candidate's workspace is the only one that reads the algebra
    (["classify", "builtin:isentropic", "--algebra", "gal_p3",
      "--candidate", "example3_k_minus2"],
     GAL_P3 + [("candidate", "example3_k_minus2")]),
])
def test_a_builtin_command_parses_only_the_blocks_it_reads(argv, blocks):
    # a command line's builtin:<id> parses a block, once, when the command
    # looks it up, and the models listing reads names only
    out = _fresh_process(after=SPY_ON_BLOCKS + "print('exit', main(%r))\n" % argv
                         + "print(sorted(read))\n")
    assert out.splitlines()[-2:] == ["exit 0", repr(sorted(blocks))]


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_the_lazy_builtin_reads_as_the_whole_one(monkeypatch, model_id):
    # the constructors SPY_ON_BLOCKS watches, spied on in this process
    import symred.dsl as dsl
    built = []
    for kind, name in (("field", "VectorField"), ("algebra", "Algebra"),
                       ("candidate", "CandidateSolution"), ("system", "normalize")):
        def made(*args, kind=kind, make=getattr(dsl, name), **kwargs):
            built.append((kind, kwargs.get("name")))
            return make(*args, **kwargs)
        monkeypatch.setattr(dsl, name, made)
    for draw in (None, 1, 2):
        params = {} if draw is None else draw_params(model_id, draw)
        built.clear()
        lazy = _load(argparse.Namespace(workspace="builtin:" + model_id))
        if params:
            lazy = lazy.with_params(params)
        # neither the load nor with_params builds a block until one is looked up
        assert built == []
        first = next(iter(lazy.candidates))
        lazy.candidates[first]
        assert built == [("candidate", first)]
        whole = builtin(model_id, params)
        assert workspace_to_text(lazy) == workspace_to_text(whole)   # reads every block
        for part in ("params", "eq_names", "solutions", "candidate_params"):
            assert getattr(lazy, part) == getattr(whole, part), part
        assert list(lazy.kernel_hints.items()) == list(whole.kernel_hints.items())


@pytest.mark.parametrize("frozen", (0, 1))
def test_main_freezes_only_when_nothing_is_frozen(monkeypatch, capsys, frozen):
    calls = []
    monkeypatch.setattr(gc, "get_freeze_count", lambda: frozen)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(1))
    code, _ = run(capsys, "models")
    assert code == 0
    assert len(calls) == (0 if frozen else 1)


def test_json_is_byte_identical_across_hash_seeds(tmp_path):
    # the README promises byte-identical --json between runs: two fresh
    # processes with different string hashing give the same bytes
    commands = [argv + ["--json", str(tmp_path / ("%s.json" % argv[0]))]
                for argv in SEVEN_COMMANDS]
    runs = []
    for hash_seed in ("1", "2"):
        out = _fresh_process(*commands, env={"PYTHONHASHSEED": hash_seed})
        files = {path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())}
        for path in tmp_path.iterdir():
            path.unlink()
        runs.append((out, files))
    assert len(runs[0][1]) == len(SEVEN_COMMANDS)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("candidate", ("fp", "sol"))
def test_kernel_basis_does_not_depend_on_the_seed(capsys, candidate):
    # Q vanishes on these candidates, so the constant kernel is all of
    # rot3's span: its echelon basis is the unit rows at every seed
    printed = []
    for seed in ("7", "29"):
        code, out = run(capsys, "kernel", "builtin:navier_stokes", "--algebra", "rot3",
                        "--candidate", candidate, "--seed", seed)
        assert code == 0
        printed.append(out.split("constant kernel dimension: 3\n")[1])
    assert printed[0] == printed[1] == "  [1, 0, 0]\n  [0, 1, 0]\n  [0, 0, 1]\n"


def test_a_complex_constant_kernel_exits_one(capsys, tmp_path):
    # Q = (-1, -i) on c, so the constant kernel is span{(1, i)}: it has
    # no real basis, and printing real parts would show (1, 0)
    path = tmp_path / "complex.sr"
    path.write_text("""
space { independent x y; dependent u; order 1; }
system s { eq d(u,x) + i*d(u,y) = 0; }
field tx { xi = [1, 0]; phi = [0]; }
field ty { xi = [0, 1]; phi = [0]; }
algebra tr { fields tx ty; }
candidate c { u = x + i*y; complex; }
""")
    assert main(["kernel", str(path), "--algebra", "tr", "--candidate", "c"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "symred: constant kernel of tr on candidate c is complex\n"


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


def test_json_seed_keys_sort_as_text(capsys, tmp_path):
    # --seed 8 samples seeds 8, 9, 10; written as text keys under
    # sort_keys, "10" comes first
    path = tmp_path / "line.sr"
    path.write_text(LINE_SR % (LINE_SPACE, "1", "(1, 2)"))
    out = tmp_path / "out.json"
    code, _ = run(capsys, "defect", str(path), "--algebra", "a", "--candidate", "c",
                  "--seed", "8", "--json", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["tol"] is None
    assert list(payload["report"]["rank_report"]["ranks"]) == ["10", "8", "9"]


COMMANDS = ("classify", "defect", "verify", "minors", "kernel", "symcheck", "models")


def test_usage_errors_exit_one(capsys):
    assert main(["classify", "builtin:navier_stokes"]) == 1          # no algebra
    assert capsys.readouterr().err == \
        "symred: the following arguments are required: --algebra\n"
    assert main(["classify", "builtin:nope", "--algebra", "x"]) == 1
    capsys.readouterr()
    assert main(["classify", "builtin:navier_stokes",
                 "--algebra", "ghost"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("symred: argument command: invalid choice: 'frobnicate'")
    assert len(err.splitlines()) == 1 and all(c in err for c in COMMANDS), err
    assert main([]) == 1
    assert capsys.readouterr().err == \
        "symred: the following arguments are required: command\n"
    assert main(["verify", "/no/such/file.sr", "--candidate", "c"]) == 1
    capsys.readouterr()


VERIFY_SOL = ("verify", "builtin:navier_stokes", "--candidate", "sol")


def _well_formed_command_lines(work):
    jobs = perfbench_jobs()
    lines = [job.command(7, work, None) for job in jobs.CLI_DEFAULT]
    lines += [job.command(13, work, jobs.DENSE_SAMPLES) for job in jobs.CLI_DENSE]
    return lines + [list(VERIFY_SOL) + ["--system", "navier_stokes", "--tol", "1e-6"],
                    list(VERIFY_SOL) + ["--seed", "+7", "--seed", " 8 ", "--tol", "inf"],
                    ["verify", "", "--candidate", ""], ["models", "--export", "euler"]]


@pytest.mark.parametrize("json_path", (None, "out.json"))
def test_a_well_formed_command_line_reads_as_argparse_reads_it(tmp_path, json_path):
    parser = _build_parser()
    for argv in _well_formed_command_lines(str(tmp_path)):
        if json_path:
            argv += ["--json", str(tmp_path / json_path)]
        assert vars(_read_argv(argv)) == vars(parser.parse_args(argv)), argv


# command lines argparse reads instead of _read_argv, with today's message
@pytest.mark.parametrize("argv, err", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from %s)"
     % ", ".join("'%s'" % c for c in COMMANDS)),
    (["classify", "builtin:navier_stokes"], "the following arguments are required: --algebra"),
    (["classify"], "the following arguments are required: workspace, --algebra"),
    (["verify", "--candidate", "sol"], "the following arguments are required: workspace"),
    (["classify", "--", "builtin:navier_stokes", "--algebra", "rot3"],
     "the following arguments are required: --algebra"),
    (["classify", "builtin:navier_stokes", "--algebra", "rot3", "--"],
     "unrecognized arguments: --"),
    (VERIFY_SOL + ("--seed", "-1"), "--seed must be non-negative, got -1"),
    (VERIFY_SOL[:3], "argument --candidate: expected one argument"),
    (VERIFY_SOL[:3] + ("--seed", "3"), "argument --candidate: expected one argument"),
    (VERIFY_SOL[:3] + ("-sol",), "argument --candidate: expected one argument"),
    (VERIFY_SOL + ("--bogus", "1"), "unrecognized arguments: --bogus 1"),
    (VERIFY_SOL + ("-x",), "unrecognized arguments: -x"),
    (VERIFY_SOL + ("extra",), "unrecognized arguments: extra"),
    (["models", "extra"], "unrecognized arguments: extra"),
    (["models", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (VERIFY_SOL + ("--seed", "x"), "argument --seed: invalid int value: 'x'"),
    (VERIFY_SOL + ("--samples", "1.5"), "argument --samples: invalid int value: '1.5'"),
    (VERIFY_SOL + ("--tol", "abc"), "argument --tol: invalid float value: 'abc'"),
    (["classify", "-", "--algebra", "x"], "[Errno 2] No such file or directory: '-'"),
])
def test_argparse_reads_every_other_command_line(capsys, argv, err):
    assert _read_argv(list(argv)) is None
    assert main(list(argv)) == 1
    assert capsys.readouterr().err == "symred: %s\n" % err


@pytest.mark.parametrize("spelling, spelled_out", [
    (["--algebra=rot3"], ["--algebra", "rot3"]),
    (["--alg", "rot3"], ["--algebra", "rot3"]),
    (["--algebra", "rot3", "--candidate=Sl1"], ["--algebra", "rot3", "--candidate", "Sl1"]),
])
def test_argparse_reads_other_spellings_of_a_valid_line(capsys, spelling, spelled_out):
    argv = ["classify", "builtin:navier_stokes"]
    assert _read_argv(argv + spelling) is None
    assert run(capsys, *argv, *spelling) == run(capsys, *argv, *spelled_out)


def test_a_valid_command_line_never_imports_argparse():
    # argparse, and the locale module gettext loads on its first message,
    # are imported only for help and usage errors
    loaded = "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    out = _fresh_process(after=loaded + "".join("main(%r)\n" % argv for argv in SEVEN_COMMANDS)
                         + loaded + "main(['--help'])\n")
    lines = out.splitlines()
    usage = lines.index("usage: symred [-h] {%s} ..." % ",".join(COMMANDS))
    assert lines[0] == lines[usage - 1] == "[]", (lines[0], lines[usage - 1])
    assert "matches named combination: K3 + t0*P3" in out and "PASS" in out


def test_help_exits_zero_with_its_text(capsys):
    assert _read_argv(["--help"]) is None and _read_argv(["classify", "-h"]) is None
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    out = capsys.readouterr().out
    assert exit_.value.code == 0
    assert out.startswith("usage: symred [-h] {%s} ..." % ",".join(COMMANDS))
    assert "Symmetry reduction analyses over workspaces" in out
    assert "constant kernel of Q on a candidate" in out
    with pytest.raises(SystemExit) as exit_:
        main(["classify", "--help"])
    out = capsys.readouterr().out
    assert exit_.value.code == 0
    assert out.startswith("usage: symred classify [-h] --algebra ALGEBRA")
    assert "base seed; three consecutive seeds are used" in out


LINE_SPACE = "space line { independent x; dependent u; order 1; }"
LINE_SR = """
%s
system flat { eq d(u,x) = 0; }
field v { xi = [%s]; phi = [0]; }
algebra a { fields v; }
candidate c { u = 1; domain x %s; }
"""
VERIFY_C = ("verify", "{sr}", "--candidate", "c")
# only verify reads --tol; the other commands reject it as an unknown flag
TOL_IGNORED = [
    ("classify", "{sr}", "--algebra", "a"),
    ("defect", "{sr}", "--algebra", "a", "--candidate", "c"),
    ("minors", "{sr}", "--algebra", "a"),
    ("kernel", "{sr}", "--algebra", "a", "--candidate", "c"),
    ("symcheck", "{sr}", "--field", "v", "--candidate", "c"),
]


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
    (LINE_SPACE, "1", "(1, 2); u = x", VERIFY_C),
    *((LINE_SPACE, "1", "(1, 2)", argv + ("--tol", "1e-6")) for argv in TOL_IGNORED),
], ids=["field-uses-jet-coordinate", "samples-below-4", "domain-empty",
        "domain-not-a-number", "domain-not-a-pair", "order-not-a-number",
        "order-missing", "seed-negative", "tol-not-a-number",
        "domain-outside-the-space", "algebra-domain-outside-the-space",
        "candidate-assigns-twice",
        *("tol-on-%s" % argv[0] for argv in TOL_IGNORED)])
def test_errors_exit_one_with_one_line(capsys, tmp_path, space, xi, domain, argv):
    path = tmp_path / "line.sr"
    path.write_text(LINE_SR % (space, xi, domain))
    assert main([a.format(sr=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("symred: ") and err.count("\n") == 1


FLOAT_RANGE_SR = LINE_SPACE + """
system flat { eq d(u,x) = 0; }
field v { xi = [1]; phi = [0]; }
algebra a { fields v; }
candidate c { %s }
"""


@pytest.mark.parametrize("candidate, argv", [
    ("u = 1; domain x (1/0, 2);", VERIFY_C),
    ("u = 1; domain x (1, 1e400);", VERIFY_C),
    ("u = 1; kernel a 10^400*v;", VERIFY_C),
    ("u = 10^400*x;", VERIFY_C),
    ("u = 10^400*x;", ("defect", "{sr}", "--algebra", "a", "--candidate", "c")),
    ("u = 1; exclude 10^400;", VERIFY_C),
], ids=["domain-zero-denominator", "domain-beyond-float", "kernel-beyond-float",
        "verify-constant-beyond-float", "defect-constant-beyond-float",
        "exclude-beyond-float"])
def test_numbers_beyond_float_range_exit_one_with_one_line(capsys, tmp_path, candidate, argv):
    # each of these raised ZeroDivisionError or OverflowError past main
    path = tmp_path / "range.sr"
    path.write_text(FLOAT_RANGE_SR % candidate)
    assert main([a.format(sr=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("symred: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_system_flag_resolves_on_builtins(capsys):
    code, out = run(capsys, "verify", "builtin:laplace_fo", "--candidate", "SLE",
                    "--system", "laplace_fo")
    assert code == 0 and "PASS" in out
    assert main(["verify", "builtin:laplace_fo", "--candidate", "SLE",
                 "--system", "nope"]) == 1
    assert capsys.readouterr().err == "symred: no system 'nope'; available: laplace_fo\n"


def test_models_export_takes_no_json(capsys, tmp_path):
    path = tmp_path / "export.json"
    assert main(["models", "--export", "euler", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symred: ") and captured.err.count("\n") == 1
    assert not path.exists()


def test_func_shadowing_a_dependent_is_an_error(capsys, tmp_path):
    path = tmp_path / "shadow.sr"
    path.write_text("""
space s { independent x t; dependent u; order 1; }
func u(t);
system s { eq d(u,t) = 0; }
candidate c { u = x; }
""")
    assert main(["verify", str(path), "--candidate", "c"]) == 1
    assert capsys.readouterr().err == "symred: %s: func u shadows dependent u\n" % path
    path.write_text(path.read_text().replace("func u(t);", ""))
    code, out = run(capsys, "verify", str(path), "--candidate", "c")
    assert code == 0 and "PASS" in out


def test_kernel_hint_in_a_file_workspace(capsys, tmp_path):
    # the shipped isentropic text, read as a file, names its combination
    # just as builtin:isentropic does
    from importlib.resources import files
    path = tmp_path / "isentropic.sr"
    path.write_text((files("symred") / "library" / "isentropic.sr").read_text())
    code, out = run(capsys, "kernel", str(path), "--algebra", "full12",
                    "--candidate", "IF11")
    assert code == 0
    assert "matches named combination: K3 + t0*P3" in out


def test_pinned_candidate_meets_the_algebra_at_its_own_params(capsys, tmp_path):
    # G = k*u d/du vanishes at the pinned k = 0, so Xi2 has rank 0 there
    path = tmp_path / "pinned.sr"
    path.write_text("""
space s { independent x t; dependent u; order 1; }
param k = 1;
system s { eq d(u,t) - k*u = 0; }
field G { xi = [0, 0]; phi = [k*u]; }
algebra g { fields G; }
candidate c { u = 1; param k = 0; solution; }
""")
    code, out = run(capsys, "classify", str(path), "--algebra", "g")
    assert "rank Xi2=1" in out
    code, out = run(capsys, "classify", str(path), "--algebra", "g", "--candidate", "c")
    assert code == 0
    assert "rank Xi1=0, rank Xi2=0" in out
    assert "candidate c: weak transversality HOLDS" in out


def test_pins_that_break_only_an_unread_block_are_answered(capsys, tmp_path):
    # a pinned candidate's re-read parses only the blocks verify looks up,
    # so v's 1/(k-1), an exact zero divisor at the pin k = 1, is never read
    path = tmp_path / "pin.sr"
    path.write_text("""
space s { independent x; dependent u; order 1; }
param k = 2;
system s { eq d(u,x) = 0; }
field v { xi = [1/(k-1)]; phi = [0]; }
candidate c { u = 3; param k = 1; }
""")
    code, out = run(capsys, "verify", str(path), "--candidate", "c")
    assert code == 0 and "PASS" in out


G2_DEFECTS = {"sol": 3, "Sl1": 4, "fp": 3, "example8_ns": 2}


@pytest.mark.parametrize("candidate", sorted(G2_DEFECTS))
def test_an_algebra_with_its_own_domain_meets_a_candidate(capsys, candidate):
    # g2 samples t in (0.5, 2), where its t^(5/3) coefficients are real;
    # its own ranks read there, and so does each candidate's graph
    code, out = run(capsys, "classify", "builtin:navier_stokes", "--algebra", "g2",
                    "--candidate", candidate)
    assert code == 0
    assert "rank Xi1=3, rank Xi2=4" in out
    weak = "HOLDS" if candidate == "example8_ns" else "FAILS"
    assert "candidate %s: weak transversality %s" % (candidate, weak) in out
    code, out = run(capsys, "defect", "builtin:navier_stokes", "--algebra", "g2",
                    "--candidate", candidate)
    assert code == 0
    assert "defect delta=%d (m0=4, orbit rank s=4)" % G2_DEFECTS[candidate] in out
    code, out = run(capsys, "minors", "builtin:navier_stokes", "--algebra", "g2",
                    "--candidate", candidate)
    assert code == (0 if weak == "HOLDS" else 2)
    assert "-> weak transversality %s" % weak in out


ANALYSIS_JOBS = [job for job in perfbench_jobs().CLI_DEFAULT
                 if job.argv[0] in ("classify", "defect", "kernel")
                 and job.argv[1].startswith("builtin:")]


@pytest.mark.parametrize("job", ANALYSIS_JOBS, ids=lambda job: job.name)
def test_the_cli_report_is_the_api_report(capsys, tmp_path, job):
    command, workspace, *flags = job.argv
    opts = dict(zip(flags[::2], flags[1::2]))
    code, _ = run(capsys, *job.argv, "--json", str(tmp_path / "out.json"))
    assert code == job.code
    report = json.loads((tmp_path / "out.json").read_text())["report"]

    ws, cand = builtin(workspace.removeprefix("builtin:")), None
    if "--candidate" in opts:
        ws, cand = resolve_candidate(ws, opts["--candidate"])
    alg = ws.algebras[opts["--algebra"]]
    if command == "classify":
        api = classify_transversality(alg, cand)
    elif command == "defect":
        api = defect(alg, cand)
    else:
        hints = ws.kernel_hints.get(opts["--candidate"], {}).get(opts["--algebra"])
        api = constant_kernel_generators(alg, cand, named_combinations=hints)
    assert report == json.loads(json.dumps(api.to_dict()))


@pytest.mark.parametrize("argv", [VERIFY_C, ("symcheck", "{sr}", "--field", "v",
                                              "--candidate", "c")])
def test_a_system_without_equations_exits_one(capsys, tmp_path, argv):
    # it used to crash verify with a traceback and let symcheck say yes
    path = tmp_path / "empty.sr"
    path.write_text((LINE_SR % (LINE_SPACE, "1", "(1, 2)")).replace("eq d(u,x) = 0;", ""))
    assert main([a.format(sr=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err == "symred: %s: system flat declares no equations\n" % path
