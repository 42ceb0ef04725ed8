"""Workspace files.

A workspace (.sr) declares one variable space plus the systems, vector
fields, algebras and candidates living on it.  The same format is what
`symred models --export` emits for the built-in entries, so hand-written
files can be diffed against the library.

    # comments run to end of line
    space { independent x y z t; dependent u1 u2 u3 p; order 2; }
    func a(t);
    system ns { eq d(u1,x) + d(u2,y) + d(u3,z) = 0; }
    field L3 { xi = [y, -x, 0, 0]; phi = [u2, -u1, 0, 0]; }
    algebra rot { fields L3; }
    candidate sol {
        u1 = a(t)*x*(x^2 + y^2 + z^2)^(-3/2);
        exclude x^2 + y^2 + z^2;
        domain t (0.5, 2);        # sampling box for this candidate
        complex;                  # evaluate in complex mode
    }

`eq LHS = RHS` stores the residual LHS - RHS.  `domain` and `complex`
attach a sampling plan to the candidate or algebra they appear in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .expr import Expression, FunctionSymbol, SymredError, add, neg, normalize, to_text
from .fields import Algebra, VectorField
from .jets import CandidateSolution, VariableSpace, make_space
from .parser import ParseError, parse_expression
from .sampling import SamplePlan

__all__ = [
    "DslError",
    "Workspace",
    "load_workspace",
    "parse_workspace",
    "workspace_from_entry",
    "workspace_to_text",
]


class DslError(SymredError, ValueError):
    """Malformed workspace text."""


@dataclass
class Workspace:
    """Everything a single .sr file declares, name-resolved."""

    space: VariableSpace
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    systems: dict[str, tuple[Expression, ...]] = field(default_factory=dict)
    fields: dict[str, VectorField] = field(default_factory=dict)
    algebras: dict[str, Algebra] = field(default_factory=dict)
    candidates: dict[str, CandidateSolution] = field(default_factory=dict)
    plans: dict[str, SamplePlan] = field(default_factory=dict)
    source: str = "<workspace>"

    def plan_for(self, name: str | None) -> SamplePlan:
        """The plan declared for a candidate or algebra, else the default."""
        if name is not None and name in self.plans:
            return self.plans[name]
        return SamplePlan()


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


def _statements(body: str):
    out = []
    depth = 0
    current = []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == ";" and depth == 0:
            stmt = "".join(current).strip()
            if stmt:
                out.append(stmt)
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        raise DslError("statement %r is missing its ';'" % tail[:40])
    return out


def _split_list(text: str) -> list[str]:
    # comma split at bracket depth zero; expression commas stay intact
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    last = "".join(current).strip()
    if last:
        parts.append(last)
    return parts


def _parse_space(body: str, source: str) -> VariableSpace:
    independent: list[str] = []
    dependent: list[str] = []
    order = None
    for stmt in _statements(body):
        words = stmt.split()
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
            raise DslError("%s: unknown space item %r" % (source, words[0]))
    if not independent or not dependent or order is None:
        raise DslError("%s: space needs independent, dependent and order" % source)
    return make_space(tuple(independent), tuple(dependent), order)


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
        except ValueError:
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
        plan.setdefault("box", {})[var_name] = spans
    else:
        return False
    return True


def parse_workspace(text: str, source: str = "<workspace>") -> Workspace:
    """Parse .sr text into a resolved Workspace."""
    text = _strip_comments(text)
    space = None
    pending = []
    for header, body in _blocks(text, source):
        if not header:
            raise DslError("%s: declaration without a keyword" % source)
        if header[0] == "space":
            if space is not None:
                raise DslError("%s: a workspace holds exactly one space" % source)
            if body is None:
                raise DslError("%s: space needs a braced body" % source)
            space = _parse_space(body, source)
        else:
            pending.append((header, body))
    if space is None:
        raise DslError("%s: no space declaration" % source)

    ws = Workspace(space=space, source=source)

    def parse(expr_text: str) -> Expression:
        try:
            return parse_expression(expr_text, ws.functions)
        except ParseError as err:
            raise DslError("%s: %s" % (source, err)) from err

    p, q = len(space.independents), len(space.dependents)
    declared = {"system": ws.systems, "field": ws.fields, "algebra": ws.algebras,
                "candidate": ws.candidates}
    for header, body in pending:
        kind = header[0]
        if kind == "func":
            fs = _parse_func(header, source)
            ws.functions[fs.name] = fs
            continue
        if len(header) != 2 or body is None:
            raise DslError("%s: `%s` wants `%s NAME { ... }`"
                           % (source, kind, kind))
        name = header[1]
        if name in declared.get(kind, ()):
            raise DslError("%s: duplicate %s %s" % (source, kind, name))
        where = "%s: %s %s" % (source, kind, name)
        if kind == "system":
            eqs = []
            for stmt in _statements(body):
                if not stmt.startswith("eq"):
                    raise DslError("%s: system %s: unknown item %r"
                                   % (source, name, stmt.split()[0]))
                lhs, eq, rhs = stmt[2:].partition("=")
                if not eq:
                    raise DslError("%s: system %s: `eq` wants LHS = RHS"
                                   % (source, name))
                eqs.append(normalize(add(parse(lhs), neg(parse(rhs)))))
            ws.systems[name] = tuple(eqs)
        elif kind == "field":
            xi = phi = None
            for stmt in _statements(body):
                lhs, eq, rhs = stmt.partition("=")
                key = lhs.strip()
                if key == "xi":
                    xi = _parse_vector(rhs, parse, p, "xi of field " + name)
                elif key == "phi":
                    phi = _parse_vector(rhs, parse, q, "phi of field " + name)
                else:
                    raise DslError("%s: field %s: unknown item %r"
                                   % (source, name, key))
            if xi is None or phi is None:
                raise DslError("%s: field %s needs xi and phi" % (source, name))
            ws.fields[name] = VectorField(space, xi, phi, name=name)
        elif kind == "algebra":
            members = []
            plan = {}
            for stmt in _statements(body):
                if _plan_item(stmt, plan, space, where):
                    continue
                words = stmt.split()
                if words[0] != "fields":
                    raise DslError("%s: algebra %s: unknown item %r"
                                   % (source, name, words[0]))
                members.extend(words[1:])
            missing = [mname for mname in members if mname not in ws.fields]
            if missing:
                raise DslError("%s: algebra %s references undeclared fields %s"
                               % (source, name, ", ".join(missing)))
            ws.algebras[name] = Algebra(space, tuple(ws.fields[mn] for mn in members),
                                        name=name)
            if plan:
                ws.plans[name] = SamplePlan(**plan)
        elif kind == "candidate":
            assignments: dict[str, Expression] = {}
            loci: list[Expression] = []
            plan = {}
            for stmt in _statements(body):
                if _plan_item(stmt, plan, space, where):
                    continue
                if stmt.startswith("exclude"):
                    loci.append(parse(stmt[len("exclude"):]))
                    continue
                lhs, eq, rhs = stmt.partition("=")
                target = lhs.strip()
                if not eq or target not in space.dependents:
                    raise DslError("%s: candidate %s: %r is not a dependent"
                                   " variable assignment" % (source, name, stmt))
                assignments[target] = parse(rhs)
            ws.candidates[name] = CandidateSolution(space, assignments,
                                                    tuple(loci), name=name)
            if plan:
                ws.plans[name] = SamplePlan(**plan)
        else:
            raise DslError("%s: unknown declaration %r" % (source, kind))
    # plans are keyed by name, so one name cannot serve both kinds
    clash = sorted(set(ws.algebras) & set(ws.candidates))
    if clash:
        raise DslError("%s: %s names both an algebra and a candidate"
                       % (source, ", ".join(clash)))
    return ws


def load_workspace(path) -> Workspace:
    path = Path(path)
    return parse_workspace(path.read_text(encoding="utf-8"), source=str(path))


def workspace_from_entry(entry) -> Workspace:
    """View a library entry as a workspace (shared expression objects)."""
    ws = Workspace(space=entry.space, source="builtin:" + entry.id)
    ws.functions.update(entry.functions)
    ws.systems[entry.id] = entry.equations
    plans = []
    for name, alg in entry.algebras.items():
        for f in alg.fields:
            ws.fields.setdefault(f.name, f)
        ws.algebras[name] = alg
        plans.append((name, entry.algebra_plan(name)))
    for name, cand in entry.candidates.items():
        # a candidate pinned to other parameter values fails this system
        pinned = entry.candidate_params.get(name, {})
        if any(entry.params[p] != value for p, value in pinned.items()):
            continue
        ws.candidates[name] = cand
        plans.append((name, entry.plan_for(name)))
    for name, plan in plans:
        if plan.box or plan.allow_complex:
            ws.plans[name] = plan
    return ws


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
        out.extend(_plan_lines(ws.plan_for(name)))
        out.append("}")
    for name, cand in ws.candidates.items():
        out.append("candidate %s {" % name)
        for target in ws.space.dependents:
            if target in cand.assignments:
                out.append("    %s = %s;" % (target, to_text(cand.assignments[target])))
        for locus in cand.excluded_loci:
            out.append("    exclude %s;" % to_text(locus))
        out.extend(_plan_lines(ws.plan_for(name)))
        out.append("}")
    return "\n".join(out) + "\n"
