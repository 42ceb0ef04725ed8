"""Mutation fuzz of the exported workspaces through the CLI.

Each mutant of a tests/exports/*.sr file, mostly one that still parses
(a changed number, exponent or domain, a param standing for a literal,
a candidate pinned to another param value), plus a few with one
character deleted, runs through `classify`, `defect` or `verify`.  The
README's contract: exit 0, 1 or 2; an exit 1 prints one `symred:` line;
nothing prints a traceback.
"""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

from symred.cli import main
from symred.dsl import parse_workspace

EXPORTS = Path(__file__).with_name("exports")
SEED = 14
MUTANTS = 100
VALUES = ("0", "1", "2", "-1", "1/2", "-3/2", "3", "1/3", "0.5", "-0.25", "10",
          "1e300", "1e-300", "0.000001", "123456789012345678901234567890", "(-1)")
BOUNDS = ("-2", "-1", "-0.5", "0", "1e-9", "0.5", "1", "2", "1e300", "-1e300")
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?![\w.])")
EXPONENT = re.compile(r"\^\(([^()]*)\)")
BLOCK = re.compile(r"^(candidate|algebra) \w+ \{$", re.M)
CANDIDATE = re.compile(r"^candidate \w+ \{$", re.M)


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _replace_one(rng, text, pattern, make):
    found = list(pattern.finditer(text))
    if not found:
        return text
    m = _pick(rng, found)
    return text[:m.start()] + make(m) + text[m.end():]


def _declare_kz(text, value):
    head, sep, rest = text.partition("\nsystem ")
    return head + "\nparam kz = %s;" % value + sep + rest


def _mutate(rng, text, ws):
    kind = _pick(rng, ("number", "number", "exponent", "domain", "domain",
                       "param", "pin", "edit"))
    if kind == "number":
        return _replace_one(rng, text, NUMBER, lambda m: _pick(rng, VALUES))
    if kind == "exponent":
        return _replace_one(rng, text, EXPONENT, lambda m: "^(%s)" % _pick(rng, VALUES))
    if kind == "domain":
        line = "\n    domain %s (%s, %s);" % (
            _pick(rng, ws.space.independents + ws.space.dependents),
            _pick(rng, BOUNDS), _pick(rng, BOUNDS))
        return _replace_one(rng, text, BLOCK, lambda m: m.group(0) + line)
    if kind in ("param", "pin"):
        # kz stands for one literal; a pin re-parses at another value
        text = _declare_kz(text, _pick(rng, VALUES) if kind == "param" else "1")
        text = _replace_one(rng, text, NUMBER, lambda m: "kz")
        if kind == "param":
            return text
        line = "\n    param kz = %s;" % _pick(rng, VALUES)
        return _replace_one(rng, text, CANDIDATE, lambda m: m.group(0) + line)
    k = int(rng.integers(len(text)))
    return text[:k] + text[k + 1:]


def _command(rng, ws, path):
    cmd = _pick(rng, ("classify", "defect", "verify"))
    argv = [cmd, str(path), "--candidate", _pick(rng, sorted(ws.candidates)),
            "--seed", "3", "--samples", "8"]
    if cmd != "verify":
        argv += ["--algebra", _pick(rng, sorted(ws.algebras))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_mutated_exports_exit_by_the_contract(tmp_path):
    rng = np.random.default_rng(SEED)
    files = sorted(EXPORTS.glob("*.sr"))
    texts = {f: f.read_text(encoding="utf-8") for f in files}
    spaces = {f: parse_workspace(texts[f], f.name) for f in files}
    path = tmp_path / "mutant.sr"
    answered = 0
    for k in range(MUTANTS):
        f = _pick(rng, files)
        mutant = _mutate(rng, texts[f], spaces[f])
        path.write_text(mutant, encoding="utf-8")
        argv = _command(rng, spaces[f], path)
        code, out, err = _run(argv)
        where = "mutant %d of %s: %s\n%s" % (k, f.name, " ".join(argv), mutant)
        assert code in (0, 1, 2), where
        assert "Traceback" not in out + err, where
        if code == 1:
            assert err.startswith("symred: ") and len(err.splitlines()) == 1, where
        else:
            answered += 1
    # most mutants still parse and get a verdict, so the fuzz reaches
    # the analyses and not only the parser
    assert answered >= MUTANTS // 2
