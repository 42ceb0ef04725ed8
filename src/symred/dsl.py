"""Workspace files.

A workspace (.sr) declares one variable space plus the parameters,
systems, vector fields, algebras and candidates living on it.  The
built-in models ship as .sr files in `symred/library/` and are read by
this same parser.  `symred models --export` prints a built-in as plain
workspace text, parameters inlined, so hand-written files can be
diffed against the library.  One reader serves every caller: it reads
the declarations at once and each system, field, algebra or candidate
body, and a candidate's kernel hints, the first time it is looked up.
`parse_workspace`, `load_workspace` and `models.builtin` look every
block up as it is declared, so a bad block anywhere is an error at
load; a command line's `builtin:<id>` and a pinned candidate's re-read
parse only the blocks their caller looks up.

    # comments run to end of line
    space {
        independent x y z t; dependent u1 u2 u3 p; order 2;
        domain t (0.5, 2);          # default plan of blocks without one
    }
    param k = 5/3;                  # a literal: builtin(id, params) may override it
    param km1 = k - 1;              # derived from earlier params
    func a(t);
    system ns { eq continuity: d(u1,x) + d(u2,y) + d(u3,z) = 0; }
    field L3 { xi = [y, -x, 0, 0]; phi = [u2, -u1, 0, 0]; }
    algebra rot { fields L3; }
    candidate sol {
        u1 = a(t)*x*(x^2 + y^2 + z^2)^(-3/2);
        exclude x^2 + y^2 + z^2;
        domain t (0.5, 2);          # sampling box for this candidate
        complex;                    # evaluate in complex mode
        param k = -2;               # pin: holds only at k = -2
        kernel rot L3;              # named combination of rot's generators
        solution;                   # a certified exact solution
    }

`eq LHS = RHS` stores the residual LHS - RHS; an equation without a
`name:` is eq1, eq2, ... by position.  A param name stands for its exact
rational value wherever it occurs, exponents included.  `domain` and
`complex` set the sampling plan the candidate or algebra they appear in
carries; in the space block they set the plan of every block that
declares none.  Resolving a pinned candidate by name parses the text
again at the pinned values.  func and param names share one name space
with the space's variables.  Each block item is given once: a second
assignment to one dependent, `xi`, `phi`, `domain` of one variable,
pin of one param, or `independent`/`dependent`/`order` is an error,
as is a second declaration of one name or a system without equations.
A block sees only the funcs, fields and algebras declared before it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .expr import (
    ZERO,
    Constant,
    Expression,
    ExpressionError,
    FunctionSymbol,
    SymredError,
    add,
    differentiate,
    neg,
    normalize,
    substitute,
    to_text,
)
from .fields import Algebra, VectorField
from .jets import CandidateSolution, VariableSpace, make_space
from .parser import parse_expression
from .sampling import SamplePlan

__all__ = [
    "DslError",
    "ModelError",
    "System",
    "Workspace",
    "load_workspace",
    "parse_workspace",
    "workspace_from_entry",
    "workspace_to_text",
]


class DslError(SymredError, ValueError):
    """Malformed workspace text."""


class ModelError(SymredError, ValueError):
    """Unknown model id, parameter, or candidate."""


class System(NamedTuple):
    name: str
    equation_names: tuple[str, ...]
    equations: tuple[Expression, ...]


@dataclass
class Workspace:
    """Everything a single .sr file declares, name-resolved.

    params holds every param by name, literal and derived; overrides are
    the literal values the text was parsed with, and `with_params` parses
    it again with more.  Each candidate and algebra carries its own
    sampling plan.  `equations` and `equation_names` read the
    workspace's only system.

    systems, fields, algebras, candidates and kernel_hints are read-only
    mappings that parse a block the first time it is looked up (a
    candidate's kernel hints apart from its body); their names,
    eq_names, params, solutions and candidate_params are read at once.
    `parse_workspace` has looked every block up before it returns;
    `with_params` looks up none, since the load checked each block.
    """

    space: VariableSpace
    params: dict[str, Fraction] = field(default_factory=dict)
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    systems: Mapping[str, tuple[Expression, ...]] = field(default_factory=dict)
    eq_names: dict[str, tuple[str, ...]] = field(default_factory=dict)
    fields: Mapping[str, VectorField] = field(default_factory=dict)
    algebras: Mapping[str, Algebra] = field(default_factory=dict)
    candidates: Mapping[str, CandidateSolution] = field(default_factory=dict)
    solutions: set[str] = field(default_factory=set)
    candidate_params: dict[str, dict[str, Fraction]] = field(default_factory=dict)
    kernel_hints: Mapping[str, dict[str, dict[str, tuple[float, ...]]]] = \
        field(default_factory=dict)
    source: str = "<workspace>"
    text: str = ""
    overrides: dict[str, Fraction] = field(default_factory=dict)

    @property
    def id(self) -> str:
        return self.source.removeprefix("builtin:")

    def algebra_plan(self, name: str) -> SamplePlan:
        return self.algebras[name].plan

    def _system_name(self, name: str | None) -> str:
        if not self.systems:
            raise DslError("workspace declares no system")
        if name is None:
            if len(self.systems) > 1:
                raise DslError("workspace has several systems; pick one with"
                               " --system (%s)" % ", ".join(sorted(self.systems)))
            return next(iter(self.systems))
        if name not in self.systems:
            raise DslError("no system %r; available: %s"
                           % (name, ", ".join(sorted(self.systems))))
        return name

    def system(self, name: str | None = None) -> System:
        """The named system, or the only one when name is None."""
        name = self._system_name(name)
        return System(name, self.eq_names[name], self.systems[name])

    @property
    def equations(self) -> tuple[Expression, ...]:
        return self.system().equations

    @property
    def equation_names(self) -> tuple[str, ...]:
        return self.eq_names[self._system_name(None)]

    def holds_here(self, candidate: str) -> bool:
        """False for a candidate pinned to other param values than these."""
        pins = self.candidate_params.get(candidate, {})
        return all(self.params[name] == value for name, value in pins.items())

    def with_params(self, params: Mapping) -> "Workspace":
        return _read_workspace(self.text, self.source, {**self.overrides, **params})


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        cut = line.find("#")
        lines.append(line if cut < 0 else line[:cut])
    return "\n".join(lines)


def _blocks(text: str, source: str):
    """Yield (header_words, body_or_None) for each top-level declaration.

    `func a(t);` has no body; every other declaration carries a braced
    one.  Brace nesting deeper than one level is not part of the format.
    """
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        stop_brace = text.find("{", i)
        stop_semi = text.find(";", i)
        if stop_semi >= 0 and (stop_brace < 0 or stop_semi < stop_brace):
            yield text[i:stop_semi].split(), None
            i = stop_semi + 1
            continue
        if stop_brace < 0:
            raise DslError("%s: dangling text %r" % (source, text[i:i + 40].strip()))
        close = text.find("}", stop_brace)
        if close < 0:
            raise DslError("%s: unclosed block near %r"
                           % (source, text[i:stop_brace + 1].strip()))
        yield text[i:stop_brace].split(), text[stop_brace + 1:close]
        i = close + 1


def _split(text: str, sep: str) -> tuple[list[str], str]:
    """(pieces ended by sep at bracket depth zero, the tail after the
    last one), each stripped; expression commas stay intact."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    return parts, "".join(current).strip()


def _statements(body: str) -> list[str]:
    stmts, tail = _split(body, ";")
    if tail:
        raise DslError("statement %r is missing its ';'" % tail[:40])
    return [stmt for stmt in stmts if stmt]


def _split_list(text: str) -> list[str]:
    # empty middle entries stay (and fail to parse); a trailing comma is fine
    parts, last = _split(text, ",")
    return parts + [last] if last else parts


def _once(held, item: str, where: str, label: str | None = None):
    """Reject an item the block already holds; a second one would
    silently replace the first."""
    if item in held:
        raise DslError("%s: %s given twice" % (where, label or item))


def _parse_space(body: str, source: str) -> tuple[VariableSpace, SamplePlan]:
    independent: list[str] = []
    dependent: list[str] = []
    order = None
    plan_items = []
    seen: set[str] = set()
    for stmt in _statements(body):
        words = stmt.split()
        if words[0] in ("independent", "dependent", "order"):
            _once(seen, words[0], "%s: space" % source)
            seen.add(words[0])
        if words[0] == "independent":
            independent = words[1:]
        elif words[0] == "dependent":
            dependent = words[1:]
        elif words[0] == "order":
            try:
                (order,) = map(int, words[1:])
            except ValueError:
                raise DslError("%s: space wants `order N`, got %r" % (source, stmt)) from None
        else:
            plan_items.append(stmt)
    if not independent or not dependent or order is None:
        raise DslError("%s: space needs independent, dependent and order" % source)
    space = make_space(tuple(independent), tuple(dependent), order)
    return space, _plan(plan_items, space, "%s: space" % source, SamplePlan())


def _parse_func(words: list[str], source: str) -> FunctionSymbol:
    decl = " ".join(words[1:])
    open_p, close_p = decl.find("("), decl.rfind(")")
    if open_p < 0 or close_p < open_p:
        raise DslError("%s: func wants `func name(arg, ...)`" % source)
    name = decl[:open_p].strip()
    args = tuple(a.strip() for a in decl[open_p + 1:close_p].split(",") if a.strip())
    if not name or not args:
        raise DslError("%s: func %r needs a name and at least one argument"
                       % (source, decl))
    return FunctionSymbol(name, args)


def _parse_vector(text: str, parse, want: int, what: str) -> tuple[Expression, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DslError("%s must be a [...] list" % what)
    entries = tuple(parse(part) for part in _split_list(text[1:-1]))
    if len(entries) != want:
        raise DslError("%s has %d entries; the space wants %d"
                       % (what, len(entries), want))
    return entries


def _parse_domain(stmt: str) -> tuple[str, tuple[tuple[float, float], ...]]:
    rest = stmt[len("domain"):].strip()
    cut = 0
    while cut < len(rest) and (rest[cut].isalnum() or rest[cut] == "_"):
        cut += 1
    name, spans_text = rest[:cut], rest[cut:].strip()
    spans = []
    for piece in spans_text.split(")"):
        piece = piece.strip().lstrip(",").strip()
        if not piece:
            continue
        if not piece.startswith("("):
            raise DslError("domain %r wants (lo, hi) intervals" % stmt)
        try:
            lo, hi = (float(Fraction(p.strip())) for p in piece[1:].split(","))
        except (ValueError, ZeroDivisionError, OverflowError):     # not finite numbers
            raise DslError("domain %r wants (lo, hi) number pairs" % stmt) from None
        if not hi > lo:
            raise DslError("domain %r has the empty interval (%g, %g)" % (stmt, lo, hi))
        spans.append((lo, hi))
    if not name or not spans:
        raise DslError("domain %r wants a variable and intervals" % stmt)
    return name, tuple(spans)


def _plan_item(stmt: str, plan: dict, space: VariableSpace, where: str) -> bool:
    """Read a `domain` or `complex` statement into SamplePlan keywords."""
    if stmt == "complex":
        plan["allow_complex"] = True
    elif stmt.startswith("domain"):
        var_name, spans = _parse_domain(stmt)
        if var_name not in space.independents + space.dependents:
            raise DslError("%s: domain names %s, which is not a variable of the space"
                           % (where, var_name))
        box = plan.setdefault("box", {})
        _once(box, var_name, where, "domain " + var_name)
        box[var_name] = spans
    else:
        return False
    return True


def _plan(stmts, space: VariableSpace, where: str, default: SamplePlan) -> SamplePlan:
    """The plan a block's `domain`/`complex` statements declare, else default."""
    plan = {}
    for stmt in stmts:
        if not _plan_item(stmt, plan, space, where):
            raise DslError("%s: unknown item %r" % (where, stmt.split()[0]))
    return SamplePlan(**plan) if plan else default


def _param(decl: str, params: Mapping[str, Fraction], where: str) -> tuple[str, Fraction, bool]:
    """(name, value, is_literal) of `NAME = rational expression of params`."""
    name, eq, rhs = decl.partition("=")
    name = name.strip()
    if not eq or not name.isidentifier():
        raise DslError("%s: param wants `param NAME = VALUE`, got %r" % (where, decl.strip()))
    try:
        value = parse_expression(rhs)
        literal = isinstance(value, Constant)
        if not literal:
            value = parse_expression(rhs, None, params)
    except ExpressionError as err:      # a ParseError, or an exact zero divisor
        raise DslError("%s: param %s: %s" % (where, name, err)) from err
    if not isinstance(value, Constant):
        raise DslError("%s: param %s is not a rational constant of earlier params"
                       % (where, name))
    return name, Fraction(value.value), literal


def _kernel_hint(stmt: str, algebra, parse, where: str):
    """(algebra, label, coefficients) of `kernel ALGEBRA COMBINATION`;
    algebra(name) is the named algebra when it is declared before, else
    None."""
    words = stmt.split(None, 2)
    alg = algebra(words[1]) if len(words) == 3 else None
    if alg is None:
        raise DslError("%s: kernel wants `kernel ALGEBRA COMBINATION` naming a"
                       " declared algebra" % where)
    label = " ".join(words[2].split())
    combination = parse(label)
    names = alg.generator_names()
    coeffs = tuple(differentiate(combination, g) for g in names)
    offset = normalize(substitute(combination, dict.fromkeys(names, ZERO)))
    if not all(isinstance(c, Constant) for c in coeffs) or offset != ZERO:
        raise DslError("%s: kernel %s is not a constant combination of %s's generators"
                       % (where, label, words[1]))
    try:
        return words[1], label, tuple(float(c.value) for c in coeffs)
    except OverflowError:
        raise DslError("%s: kernel %s has a coefficient beyond float range"
                       % (where, label)) from None


def _equations(body: str, where: str) -> list[tuple[str, str, str]]:
    """(name, LHS, RHS) of each `eq` of a system body, unparsed."""
    eqs, labels = [], []
    for stmt in _statements(body):
        if not stmt.startswith("eq"):
            raise DslError("%s: unknown item %r" % (where, stmt.split()[0]))
        label, colon, rest = stmt[2:].partition(":")
        if not colon:
            label, rest = "eq%d" % (len(eqs) + 1), stmt[2:]
        label = label.strip()
        lhs, eq, rhs = rest.partition("=")
        if not eq or not label.isidentifier() or label in labels:
            raise DslError("%s: `eq` wants [NAME:] LHS = RHS with distinct"
                           " names" % where)
        eqs.append((label, lhs, rhs))
        labels.append(label)
    if not eqs:
        raise DslError("%s declares no equations" % where)
    return eqs


_UNREAD = object()


class _Blocks(Mapping):
    """The blocks of one kind by name, in text order.  A block's body is
    read by `read(name)` the first time it is looked up, then kept;
    membership, iteration and len read no body."""

    def __init__(self, read):
        self._read = read
        self._values = {}

    def declare(self, name: str):
        self._values[name] = _UNREAD

    def __getitem__(self, name):
        value = self._values[name]
        if value is _UNREAD:
            value = self._values[name] = self._read(name)
        return value

    def __contains__(self, name) -> bool:
        return name in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


def _read_workspace(text: str, source: str, params: Mapping | None = None,
                    lazy: bool = True) -> Workspace:
    """Read .sr text into a Workspace.

    Declarations are read at once: the space, every param and func, each
    block's name, a system's equation names, and a candidate's pins and
    `solution;` mark.  The body of each system, field, algebra and
    candidate block is read the first time it is looked up, and a
    candidate's `kernel` statements when its kernel_hints are, so
    reading the candidate parses no algebra its hints name.  Without
    `lazy` each block is looked up, then its candidate's hints, right
    after its declaration.  A body sees only the funcs, fields and
    algebras declared before it, so any order of lookups gives the same
    blocks, and a read without `lazy` raises the first bad block in text
    order.
    """
    overrides = {name: Fraction(value) for name, value in (params or {}).items()}
    space_body = None
    param_decls = []
    pending = []
    for header, body in _blocks(_strip_comments(text), source):
        if not header:
            raise DslError("%s: declaration without a keyword" % source)
        if header[0] in ("func", "param") and body is not None:
            # without its ';' a declaration swallows the next block's header
            raise DslError("%s: %s is missing its ';'" % (source, " ".join(header[:2])))
        if header[0] == "space":
            if space_body is not None:
                raise DslError("%s: a workspace holds exactly one space" % source)
            if body is None:
                raise DslError("%s: space needs a braced body" % source)
            space_body = body
        elif header[0] == "param":
            param_decls.append(" ".join(header[1:]))
        else:
            pending.append((header, body))
    if space_body is None:
        raise DslError("%s: no space declaration" % source)
    space, default_plan = _parse_space(space_body, source)

    # func and param names share one name space with the variables
    taken = {v: "independent" for v in space.independents}
    taken.update((v, "dependent") for v in space.dependents)

    def claim(kind: str, name: str):
        if name in taken:
            if taken[name] == kind:
                raise DslError("%s: duplicate %s %s" % (source, kind, name))
            raise DslError("%s: %s %s shadows %s %s" % (source, kind, name, taken[name], name))
        taken[name] = kind

    values: dict[str, Fraction] = {}
    literals = set()
    for decl in param_decls:
        name, value, literal = _param(decl, values, source)
        claim("param", name)
        if literal:
            literals.add(name)
            value = overrides.get(name, value)
        values[name] = value
    for name in overrides:
        if name not in literals:
            raise ModelError("%s has no parameter %r"
                             % (source.removeprefix("builtin:"), name))

    def parse(expr_text: str, functions, where: str) -> Expression:
        try:
            return parse_expression(expr_text, functions, values)
        except ExpressionError as err:  # a ParseError, or an exact zero divisor
            raise DslError("%s: %s" % (where, err)) from err

    p, q = len(space.independents), len(space.dependents)
    # (kind, name) -> (position, unread items, funcs declared before, where)
    declared: dict[tuple[str, str], tuple] = {}

    def before(kind: str, name: str, at: int) -> bool:
        entry = declared.get((kind, name))
        return entry is not None and entry[0] < at

    def read_system(name):
        _, eqs, functions, where = declared["system", name]
        return tuple(normalize(add(parse(lhs, functions, where), neg(parse(rhs, functions, where))))
                     for _, lhs, rhs in eqs)

    def read_field(name):
        _, body, functions, where = declared["field", name]
        vectors = {}
        for stmt in _statements(body):
            lhs, eq, rhs = stmt.partition("=")
            key = lhs.strip()
            if key not in ("xi", "phi"):
                raise DslError("%s: unknown item %r" % (where, key))
            _once(vectors, key, where)
            vectors[key] = _parse_vector(rhs, lambda e: parse(e, functions, where),
                                         p if key == "xi" else q,
                                         "%s of field %s" % (key, name))
        if len(vectors) < 2:
            raise DslError("%s needs xi and phi" % where)
        return VectorField(space, vectors["xi"], vectors["phi"], name=name)

    def read_algebra(name):
        at, body, _, where = declared["algebra", name]
        members = []
        plan_items = []
        for stmt in _statements(body):
            words = stmt.split()
            if words[0] == "fields":
                for mname in words[1:]:
                    _once(members, mname, where, "field " + mname)
                    members.append(mname)
            else:
                plan_items.append(stmt)
        plan = _plan(plan_items, space, where, default_plan)
        missing = [mname for mname in members if not before("field", mname, at)]
        if missing:
            raise DslError("%s references undeclared fields %s"
                           % (where, ", ".join(missing)))
        return Algebra(space, tuple(fields[mn] for mn in members), name=name, plan=plan)

    def read_candidate(name):
        _, stmts, functions, where = declared["candidate", name]
        assignments: dict[str, Expression] = {}
        loci: list[Expression] = []
        plan = {}
        for stmt in stmts:
            # a candidate's `kernel` statements are read by read_hints alone
            if _plan_item(stmt, plan, space, where) or stmt.split()[0] == "kernel":
                continue
            if stmt.startswith("exclude"):
                loci.append(parse(stmt[len("exclude"):], functions, where))
                continue
            lhs, eq, rhs = stmt.partition("=")
            target = lhs.strip()
            if not eq or target not in space.dependents:
                raise DslError("%s: %r is not a dependent variable assignment"
                               % (where, stmt))
            _once(assignments, target, where)
            assignments[target] = parse(rhs, functions, where)
        return CandidateSolution(space, assignments, tuple(loci), name=name,
                                 plan=SamplePlan(**plan) if plan else default_plan)

    def read_hints(name):
        at, stmts, functions, where = declared["candidate", name]
        kernels: dict[str, dict] = {}
        for stmt in stmts:
            if stmt.split()[0] == "kernel":
                alg, label, coeffs = _kernel_hint(
                    stmt, lambda a: algebras[a] if before("algebra", a, at) else None,
                    lambda e: parse(e, functions, where), where)
                kernels.setdefault(alg, {})[label] = coeffs
        return kernels

    tables = {"system": _Blocks(read_system), "field": _Blocks(read_field),
              "algebra": _Blocks(read_algebra), "candidate": _Blocks(read_candidate)}
    systems, fields, algebras, candidates = tables.values()
    kernel_hints = _Blocks(read_hints)      # candidate -> {algebra: {label: coefficients}}
    functions: dict[str, FunctionSymbol] = {}
    eq_names: dict[str, tuple[str, ...]] = {}
    solutions: set[str] = set()
    candidate_params: dict[str, dict[str, Fraction]] = {}
    for at, (header, body) in enumerate(pending):
        kind = header[0]
        if kind == "func":
            fs = _parse_func(header, source)
            claim("func", fs.name)
            functions = {**functions, fs.name: fs}      # earlier blocks keep theirs
            continue
        if len(header) != 2 or body is None:
            raise DslError("%s: `%s` wants `%s NAME { ... }`"
                           % (source, kind, kind))
        name = header[1]
        if kind not in tables:
            raise DslError("%s: unknown declaration %r" % (source, kind))
        if name in tables[kind]:
            raise DslError("%s: duplicate %s %s" % (source, kind, name))
        where = "%s: %s %s" % (source, kind, name)
        items = body
        if kind == "system":
            items = _equations(body, where)
            eq_names[name] = tuple(label for label, _, _ in items)
        elif kind == "candidate":
            items = []
            for stmt in _statements(body):
                words = stmt.split()
                if stmt == "solution":
                    solutions.add(name)
                elif words[0] == "param":
                    pin, value, _ = _param(stmt[len("param"):], values, where)
                    if pin not in literals:
                        raise DslError("%s pins %s, which is not a literal param"
                                       % (where, pin))
                    pins = candidate_params.setdefault(name, {})
                    _once(pins, pin, where, "param " + pin)
                    pins[pin] = value
                else:
                    items.append(stmt)
                    if words[0] == "kernel":
                        kernel_hints.declare(name)
        declared[kind, name] = (at, items, functions, where)
        tables[kind].declare(name)
        if not lazy:    # look each block up as it is declared: the first bad one raises
            tables[kind][name]
            if name in kernel_hints:
                kernel_hints[name]
    return Workspace(space=space, params=values, functions=functions, systems=systems,
                     eq_names=eq_names, fields=fields, algebras=algebras,
                     candidates=candidates, solutions=solutions,
                     candidate_params=candidate_params, kernel_hints=kernel_hints,
                     source=source, text=text, overrides=overrides)


def parse_workspace(text: str, source: str = "<workspace>",
                    params: Mapping | None = None) -> Workspace:
    """Parse .sr text into a resolved Workspace, every block read.

    params overrides literal `param` values by name; naming anything
    else raises ModelError.
    """
    return _read_workspace(text, source, params, lazy=False)


def load_workspace(path) -> Workspace:
    path = Path(path)
    return parse_workspace(path.read_text(encoding="utf-8"), source=str(path))


def workspace_from_entry(ws: Workspace) -> Workspace:
    """The export view of a workspace: what `models --export` prints.

    Candidates pinned to other param values are dropped, since they fail
    this system; each kept candidate and algebra keeps its plan.
    Params, pins, solution marks and kernel hints are not part of the
    view, and the text omits equation names.
    """
    return Workspace(space=ws.space, functions=ws.functions, systems=ws.systems,
                     eq_names=ws.eq_names, fields=ws.fields, algebras=ws.algebras,
                     candidates={name: cand for name, cand in ws.candidates.items()
                                 if ws.holds_here(name)},
                     source=ws.source)


def _fmt_interval(span: tuple[float, float]) -> str:
    return "(%s, %s)" % (_fmt_float(span[0]), _fmt_float(span[1]))


def _fmt_float(x: float) -> str:
    return "%g" % x


def _plan_lines(plan: SamplePlan) -> list[str]:
    lines = ["    domain %s %s;" % (name, " ".join(_fmt_interval(s) for s in plan.box[name]))
             for name in sorted(plan.box)]
    if plan.allow_complex:
        lines.append("    complex;")
    return lines


def workspace_to_text(ws: Workspace) -> str:
    """Serialize back to .sr text; parse_workspace round-trips it."""
    out = []
    out.append("space {")
    out.append("    independent %s;" % " ".join(ws.space.independents))
    out.append("    dependent %s;" % " ".join(ws.space.dependents))
    out.append("    order %d;" % ws.space.max_order)
    out.append("}")
    for fs in ws.functions.values():
        out.append("func %s(%s);" % (fs.name, ", ".join(fs.formals)))
    for name, eqs in ws.systems.items():
        out.append("system %s {" % name)
        for eq in eqs:
            out.append("    eq %s = 0;" % to_text(eq))
        out.append("}")
    for name, f in ws.fields.items():
        out.append("field %s {" % name)
        out.append("    xi = [%s];" % ", ".join(to_text(e) for e in f.xi))
        out.append("    phi = [%s];" % ", ".join(to_text(e) for e in f.phi))
        out.append("}")
    for name, alg in ws.algebras.items():
        out.append("algebra %s {" % name)
        out.append("    fields %s;" % " ".join(f.name for f in alg.fields))
        out.extend(_plan_lines(alg.plan))
        out.append("}")
    for name, cand in ws.candidates.items():
        out.append("candidate %s {" % name)
        for target in ws.space.dependents:
            if target in cand.assignments:
                out.append("    %s = %s;" % (target, to_text(cand.assignments[target])))
        for locus in cand.excluded_loci:
            out.append("    exclude %s;" % to_text(locus))
        out.extend(_plan_lines(cand.plan))
        out.append("}")
    return "\n".join(out) + "\n"
