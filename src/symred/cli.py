"""Command-line front end.

Workspaces come from .sr files or `builtin:<id>`.  Every command prints
a human-readable report and, with --json PATH, a versioned machine
report; identical invocations with the same --seed produce byte
identical JSON.

A well-formed command line is read directly from the declaration of
each command's arguments (`_COMMANDS`); argparse, built from the same
declaration, reads every other one and is the only source of help text
and usage errors, so a valid command never imports it.

Exit codes: 0 clean; 1 usage or resolution errors (any SymredError or
OSError, printed as one `symred:` line); 2 when an analysis raised a
flag: non-generic rank behaviour (classify, defect, kernel), residual at
or over tolerance (verify), failed weak transversality (minors), failed
symmetry (symcheck).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from .analysis import (
    AnalysisError,
    classify_transversality,
    constant_kernel_generators,
    defect,
    minors_on_candidate,
    symmetry_check,
    weak_minors,
)
from .dsl import Workspace, load_workspace, workspace_from_entry, workspace_to_text
from .expr import SymredError, to_text
from .models import MODEL_IDS, _lazy_builtin, builtin, residual, resolve_candidate

USAGE_ERROR, FLAGGED = 1, 2


class _UsageError(SymredError):
    pass


def _build_parser():
    """The argparse parser of all seven commands, built from `_COMMANDS`.
    It reads only the command lines `_read_argv` leaves to it, so it is
    the one source of help text and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad usage; our contract wants 1
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="symred",
                     description="Symmetry reduction analyses over workspaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler, **defaults)
    return parser


def _read_argv(argv: list[str]):
    """The namespace `parse_args` gives a well-formed command line, read
    without argparse, or None.

    Well formed means: argv[0] is a command; each option is its exact
    long flag followed by a value that does not start with '-'; there
    are as many positionals as the command declares; every required
    option is given; every int and float converts.  Anything else
    (`--help`, `--opt=value`, abbreviations, `--`, a missing or
    dash-leading value, unknown flags, extra positionals, bad numbers)
    gives None, and argparse reads the line and prints its help or its
    error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, arguments, handler, defaults = _COMMANDS[argv[0]]
    args = {"command": argv[0], "handler": handler, **defaults}
    options, positionals = {}, []
    for flag, spec in arguments:
        dest = spec.get("dest", flag.lstrip("-"))
        args[dest] = spec.get("default")
        if flag.startswith("-"):
            options[flag] = dest, spec
        else:
            positionals.append(dest)
    words, given = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        value = next(tokens, "-")
        if token not in options or value.startswith("-"):
            return None
        dest, spec = options[token]
        try:
            args[dest] = spec.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        given.add(token)
    if len(words) != len(positionals) or any(
            spec.get("required") and flag not in given for flag, (_, spec) in options.items()):
        return None
    args.update(zip(positionals, words))
    return SimpleNamespace(**args)


# ---------------------------------------------------------------------------
# plumbing

def _load(args) -> Workspace:
    """The command's workspace: a file is read whole, a `builtin:<id>`
    block by block as the command looks its blocks up."""
    name = args.workspace
    if name.startswith("builtin:"):
        return _lazy_builtin(name[len("builtin:"):])
    return load_workspace(name)


def _tuned(obj, args):
    """obj (an algebra or candidate) with --seed and --samples applied to
    the plan it carries."""
    changes = {}
    if args.seed is not None:
        if args.seed < 0:
            raise _UsageError("--seed must be non-negative, got %d" % args.seed)
        changes["seeds"] = (args.seed, args.seed + 1, args.seed + 2)
    if args.samples is not None:
        if args.samples < 4:
            raise _UsageError("--samples must be at least 4, got %d" % args.samples)
        changes["count"] = args.samples
        changes["min_accepted"] = max(4, int(0.6 * args.samples))
    return dataclasses.replace(obj, plan=obj.plan.with_(**changes)) if changes else obj


def _with_algebra(args):
    """(workspace, algebra, candidate or None), both tuned, for --algebra
    commands; a pinned candidate meets the algebra at its own params.
    The algebra's name is checked first and its block read last, so a
    pinned candidate's workspace is the only one that reads it."""
    ws = _load(args)
    if args.algebra not in ws.algebras:
        raise _UsageError("no algebra %r; available: %s"
                          % (args.algebra, ", ".join(sorted(ws.algebras)) or "none"))
    cand = None
    if args.candidate is not None:
        ws, cand = resolve_candidate(ws, args.candidate)
        cand = _tuned(cand, args)
    return ws, _tuned(ws.algebras[args.algebra], args), cand


def _emit(args, report: dict, flagged: bool) -> int:
    if args.json_path:
        doc = {
            "schema": 1,
            "command": args.command,
            "workspace": getattr(args, "workspace", None),
            "seed": args.seed,
            "samples": args.samples,
            "tol": getattr(args, "tol", None),
            "flagged": flagged,
            "report": report,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        Path(args.json_path).write_text(text, encoding="utf-8")
    return FLAGGED if flagged else 0


# ---------------------------------------------------------------------------
# commands

def _cmd_classify(args) -> int:
    _, alg, cand = _with_algebra(args)
    rep = classify_transversality(alg, cand)
    strong = "HOLDS" if rep.status == "Strong" else "VIOLATED"
    print("algebra %s: rank Xi1=%d, rank Xi2=%d, strong transversality %s"
          % (alg.name, rep.rank_xi1, rep.rank_xi2, strong))
    if cand is not None:
        weak = "HOLDS" if rep.weak_status == "WeakHolds" else "FAILS"
        print("candidate %s: weak transversality %s" % (cand.name, weak))
    return _emit(args, rep.to_dict(), rep.non_generic)


def _cmd_defect(args) -> int:
    _, alg, cand = _with_algebra(args)
    rep = defect(alg, cand)
    print("generators: %s" % " ".join(f.name for f in alg.fields))
    print("defect delta=%d (m0=%d, orbit rank s=%d): %s"
          % (rep.delta, rep.m0, rep.orbit_rank, rep.classification))
    return _emit(args, rep.to_dict(), rep.non_generic)


def _cmd_verify(args) -> int:
    ws, cand = resolve_candidate(_load(args), args.candidate)
    cand = _tuned(cand, args)
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise _UsageError("--tol must be positive and finite, got %g" % args.tol)
    tol = args.tol if args.tol is not None else 1e-8
    system = ws.system(args.system)
    values = residual(ws, cand, system.name)
    worst = max(values.values())
    for name, value in values.items():
        print("%-12s %.6e" % (name, value))
    verdict = "PASS" if worst < tol else "FAIL"
    print("max residual %.6e (%s at tol %.1e) for %s on %s"
          % (worst, verdict, tol, cand.name, system.name))
    report = {"system": system.name, "candidate": cand.name,
              "residuals": values, "max": worst, "pass": worst < tol}
    return _emit(args, report, worst >= tol)


def _cmd_minors(args) -> int:
    _, alg, cand = _with_algebra(args)
    try:
        minors = weak_minors(alg)
    except AnalysisError as err:
        print("no minors: %s" % err)
        return _emit(args, {"minors": [], "note": str(err)}, False)
    print("%d distinct minors (rank Xi1 + 1 sized) of Xi2:" % len(minors))
    for det in minors:
        print("  %s" % to_text(det))
    report = {"minors": [to_text(d) for d in minors]}
    holds = True
    if cand is not None:
        worst, holds = minors_on_candidate(minors, cand, alg)
        print("max |minor| on %s: %.6e -> weak transversality %s"
              % (cand.name, worst, "HOLDS" if holds else "FAILS"))
        report["candidate"] = cand.name
        report["max_on_candidate"] = worst
        report["weak_holds"] = holds
    return _emit(args, report, not holds)


def _cmd_kernel(args) -> int:
    ws, alg, cand = _with_algebra(args)
    hints = ws.kernel_hints.get(args.candidate, {}).get(args.algebra)
    rep = constant_kernel_generators(alg, cand, named_combinations=hints)
    print("generators: %s" % " ".join(rep.generator_order))
    print("pointwise kernel dimension: %d" % rep.pointwise_kernel_dim)
    print("constant kernel dimension: %d" % len(rep.constant_kernel))
    for row in rep.constant_kernel:
        print("  [%s]" % ", ".join("%.6g" % x for x in row))
    if rep.matched_combination:
        print("matches named combination: %s" % rep.matched_combination)
    return _emit(args, rep.to_dict(), rep.non_generic)


def _cmd_symcheck(args) -> int:
    ws, cand = resolve_candidate(_load(args), args.candidate)
    cand = _tuned(cand, args)
    system = ws.system(args.system)
    try:
        field = ws.fields[args.field]
    except KeyError:
        raise _UsageError("no field %r; available: %s"
                          % (args.field, ", ".join(sorted(ws.fields)) or "none"))
    ok = symmetry_check(system.equations, field, cand)
    print("pr %s annihilates %s on solution %s: %s"
          % (field.name, system.name, cand.name, "yes" if ok else "NO"))
    report = {"system": system.name, "field": field.name,
              "candidate": cand.name, "symmetry": ok}
    return _emit(args, report, not ok)


def _cmd_models(args) -> int:
    if args.export is not None:
        if args.json_path:
            raise _UsageError("--export prints .sr text and takes no --json")
        sys.stdout.write(workspace_to_text(workspace_from_entry(builtin(args.export))))
        return 0
    listing = {}
    for model_id in MODEL_IDS:
        ws = _lazy_builtin(model_id)        # names only: no block is parsed
        print("%s: %d equations on (%s | %s)"
              % (model_id, len(ws.equation_names),
                 ", ".join(ws.space.independents),
                 ", ".join(ws.space.dependents)))
        print("  algebras:   %s" % ", ".join(sorted(ws.algebras)))
        print("  candidates: %s" % ", ".join(
            name + ("*" if name in ws.solutions else "")
            for name in sorted(ws.candidates)))
        listing[model_id] = {
            "equations": len(ws.equation_names),
            "algebras": sorted(ws.algebras),
            "candidates": sorted(ws.candidates),
            "solutions": sorted(ws.solutions),
        }
    print("(* = certified exact solution)")
    if args.json_path:
        args.command, args.workspace = "models", None
        return _emit(args, listing, False)
    return 0


# A command's arguments, each a flag (or a positional's name) and the
# keywords argparse's add_argument takes for it.  Both argparse and
# _read_argv read them from here.
_WORKSPACE = ("workspace", {"help": ".sr file or builtin:<id> (%s)" % ", ".join(MODEL_IDS)})
_ALGEBRA = ("--algebra", {"required": True, "help": "algebra name"})
_CANDIDATE = ("--candidate", {"help": "candidate name"})
_REQUIRED_CANDIDATE = ("--candidate", {"required": True, "help": "candidate name"})
_PLAN = (
    ("--seed", {"type": int, "help": "base seed; three consecutive seeds are used"}),
    ("--samples", {"type": int, "help": "points per seed"}),
    ("--json", {"dest": "json_path", "help": "also write the report as JSON to this path"}),
)

# command -> (help line, arguments, handler, further defaults), in `--help` order
_COMMANDS = {
    "classify": ("strong/weak transversality ranks",
                 (_WORKSPACE, _ALGEBRA, _CANDIDATE, *_PLAN), _cmd_classify, {}),
    "defect": ("defect delta of a candidate",
               (_WORKSPACE, _ALGEBRA, _REQUIRED_CANDIDATE, *_PLAN), _cmd_defect, {}),
    "verify": ("per-equation residuals of a candidate",
               (_WORKSPACE, _REQUIRED_CANDIDATE, *_PLAN,
                ("--system", {"help": "system name, for workspaces with several"}),
                ("--tol", {"type": float,
                           "help": "residual tolerance where the command verifies"
                                   " values (rank pivots use scale-aware internal"
                                   " tolerances)"})),
               _cmd_verify, {}),
    "minors": ("weak transversality minors of Xi2",
               (_WORKSPACE, _ALGEBRA, _CANDIDATE, *_PLAN), _cmd_minors, {}),
    "kernel": ("constant kernel of Q on a candidate",
               (_WORKSPACE, _ALGEBRA, _REQUIRED_CANDIDATE, *_PLAN), _cmd_kernel, {}),
    "symcheck": ("prolonged field annihilates the system on a donor solution",
                 (_WORKSPACE, _REQUIRED_CANDIDATE, *_PLAN,
                  ("--field", {"required": True, "help": "vector field name"}),
                  ("--system", {"help": "system name"})),
                 _cmd_symcheck, {}),
    "models": ("list built-in models",
               (("--export", {"metavar": "ID",
                              "help": "print the DSL text of one built-in entry"}),
                ("--json", {"dest": "json_path"})),
               _cmd_models, {"seed": None, "samples": None}),
}


def main(argv=None) -> int:
    """Run one command; return its exit code.

    `_read_argv` reads a well-formed command line.  Any other goes to
    argparse, which prints help and exits 0, or raises the usage error
    printed here as one `symred:` line with exit code 1.

    The first call in a process moves every object alive at that moment
    (interpreter, stdlib, symred's modules) into the collector's
    permanent generation with `gc.freeze()`.  That heap lives until exit
    anyway; frozen, the command's collections skip it and shutdown
    neither walks nor tears it down, which was about a third of a cold
    command's time.  Objects the command creates stay collectable, and
    frozen ones are still freed by reference counting.  Later calls see
    a nonzero freeze count and freeze nothing, so a process that runs
    many commands keeps one snapshot, not one per call.

    Not used instead: `os._exit` at exit, which skips atexit hooks and
    stream flushing; `gc.disable()`, which would never collect a long
    command's own cyclic garbage; a freeze at import, which would freeze
    the heap of any program that merely imports this module; and a
    `gc.collect()` before the freeze, which costs about a quarter of the
    time the freeze saves, while peak memory does not move without it.
    """
    if gc.get_freeze_count() == 0:
        gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
        return args.handler(args)
    except (SymredError, OSError) as err:
        print("symred: %s" % err, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
