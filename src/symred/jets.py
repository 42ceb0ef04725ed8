"""Variable spaces, jet coordinates, candidate solutions and jet sampling.

A jet coordinate is an atomic Variable named d(u,x,...) with the
derivative list stored sorted, so mixed partials have one spelling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import (
    ZERO,
    Expression,
    Product,
    Sum,
    SymredError,
    Variable,
    derivative,
    differentiate,
    free_variables,
    normalize,
    rewrite,
)
from .parser import jet_name, split_jet_name
from .sampling import SamplePlan, sampled, shared_instantiation


class JetError(SymredError, ValueError):
    pass


@dataclass(frozen=True)
class VariableSpace:
    independents: tuple[str, ...]
    dependents: tuple[str, ...]
    max_order: int

    @property
    def p(self) -> int:
        return len(self.independents)

    @property
    def q(self) -> int:
        return len(self.dependents)

    def dependent_index(self, name: str) -> int:
        try:
            return self.dependents.index(name)
        except ValueError:
            raise JetError("%r is not a dependent variable" % name) from None


def make_space(independents: Sequence[str], dependents: Sequence[str],
               max_order: int) -> VariableSpace:
    independents = tuple(independents)
    dependents = tuple(dependents)
    names = independents + dependents
    if len(set(names)) != len(names):
        raise JetError("independent/dependent names must be distinct")
    if not independents or not dependents:
        raise JetError("need at least one independent and one dependent variable")
    if max_order < 1:
        raise JetError("max_order must be >= 1")
    for name in names:
        if split_jet_name(name):
            raise JetError("%r collides with jet-coordinate spelling" % name)
    return VariableSpace(independents, dependents, max_order)


@dataclass(frozen=True)
class JetKey:
    """Dependent index alpha plus a derivative multi-index over independents."""

    alpha: int
    orders: tuple[int, ...]

    @property
    def order(self) -> int:
        return sum(self.orders)


def jet_keys(space: VariableSpace, order: int) -> list[JetKey]:
    """All JetKeys with |J| <= order, dependent-major, in a stable order."""
    if order > space.max_order:
        raise JetError("order %d exceeds space max_order %d" % (order, space.max_order))
    multi = sorted(
        m for m in itertools.product(range(order + 1), repeat=space.p)
        if sum(m) <= order)
    return [JetKey(alpha, m) for alpha in range(space.q) for m in multi]


def _key_dvars(space: VariableSpace, key: JetKey) -> tuple[str, ...]:
    """The independents to differentiate by, with multiplicity, in space order."""
    return tuple(name for name, k in zip(space.independents, key.orders) for _ in range(k))


def key_variable(space: VariableSpace, key: JetKey) -> Variable:
    if key.order == 0:
        return Variable(space.dependents[key.alpha])
    return Variable(jet_name(space.dependents[key.alpha], _key_dvars(space, key)))


def key_of_variable(space: VariableSpace, name: str) -> JetKey | None:
    """Inverse of key_variable for names that denote jets of this space."""
    if name in space.dependents:
        return JetKey(space.dependents.index(name), (0,) * space.p)
    parts = split_jet_name(name)
    if parts is None or parts[0] not in space.dependents:
        return None
    head, dvars = parts
    orders = [0] * space.p
    for v in dvars:
        if v not in space.independents:
            return None
        orders[space.independents.index(v)] += 1
    return JetKey(space.dependents.index(head), tuple(orders))


def jet_order(space: VariableSpace, exprs: Iterable[Expression]) -> int:
    """Highest derivative order among the space's jet coordinates in exprs;
    0 when only dependents (or none) occur."""
    keys = (key_of_variable(space, name) for e in exprs for name in free_variables(e))
    return max((key.order for key in keys if key is not None), default=0)


def bump_name(space: VariableSpace, name: str, i: int) -> str:
    """Jet name for one more derivative of `name` along independent i."""
    parts = split_jet_name(name)
    if parts is None:
        head, dvars = name, ()
    else:
        head, dvars = parts
    dvars = list(dvars) + [space.independents[i]]
    if len(dvars) > space.max_order:
        raise JetError("derivative of %s exceeds max_order %d" % (name, space.max_order))
    return jet_name(head, dvars)


def total_derivative(e: Expression, space: VariableSpace, i: int) -> Expression:
    """Total derivative D_i on the jet space.

    D_i = d/dx_i + sum over jet coordinates v present in e of
    (d e / d v) * v-bumped-along-i.
    """
    terms = [differentiate(e, space.independents[i])]
    for name in sorted(free_variables(e)):
        if key_of_variable(space, name) is None:
            continue
        partial = differentiate(e, name)
        if partial == ZERO:
            continue
        terms.append(Product((partial, Variable(bump_name(space, name, i)))))
    return normalize(Sum(tuple(terms)))


@dataclass(frozen=True)
class CandidateSolution:
    """An explicit ansatz u = f(x), possibly with free parameters baked in.

    assignments may cover a subset of the dependents; operations that
    need a missing one raise.  excluded_loci are expressions in the
    independents whose small values mark points to reject.
    """

    space: VariableSpace
    assignments: Mapping[str, Expression]
    excluded_loci: tuple[Expression, ...] = ()
    name: str = "candidate"

    def __post_init__(self):
        object.__setattr__(self, "assignments", dict(self.assignments))
        object.__setattr__(self, "excluded_loci", tuple(self.excluded_loci))
        forbidden = set(self.space.dependents)
        for dep, rhs in self.assignments.items():
            if dep not in self.space.dependents:
                raise JetError("%r is not a dependent of the space" % dep)
            bad = {v for v in free_variables(rhs)
                   if v in forbidden or key_of_variable(self.space, v) is not None}
            if bad:
                raise JetError("candidate %s for %s uses jet-space names %s"
                               % (self.name, dep, sorted(bad)))
        for locus in self.excluded_loci:
            bad = {v for v in free_variables(locus)
                   if key_of_variable(self.space, v) is not None}
            if bad:
                raise JetError("excluded locus uses jet-space names %s" % sorted(bad))


def substitute_candidate(e: Expression, c: CandidateSolution) -> Expression:
    """Replace dependents and jet coordinates in e by the candidate's data."""
    def rule(node):
        if not isinstance(node, Variable):
            return None
        key = key_of_variable(c.space, node.name)
        if key is None:
            return None
        if key.order > c.space.max_order:  # pragma: no cover - name length bound
            raise JetError("jet order of %s exceeds the space bound" % node.name)
        dep = c.space.dependents[key.alpha]
        rhs = c.assignments.get(dep)
        if rhs is None:
            raise JetError("candidate %s does not define %s" % (c.name, dep))
        return derivative(rhs, _key_dvars(c.space, key))
    return normalize(rewrite(e, rule))


@dataclass(frozen=True)
class JetPoint:
    """One sampled point of a candidate's prolonged graph.

    slots maps jet-coordinate names (dependents included, order 0) to
    values; base maps independents.  The instantiation seed pins down
    which stand-ins any opaque symbols received.
    """

    base: Mapping[str, float]
    slots: Mapping[str, complex]
    order: int
    candidate: str
    seed: int
    index: int

    def binding_values(self) -> dict[str, complex]:
        out = {name: complex(v) for name, v in self.base.items()}
        out.update(self.slots)
        return out


def candidate_instantiation(c: CandidateSolution, seed: int):
    """Opaque-symbol instantiation used when sampling this candidate.

    Exposed so that diagnostics can reproduce exactly the fragments a
    given seed saw: stand-ins depend only on (symbol, seed), so this map
    agrees with the one sample_points drew its jet points with.
    """
    return shared_instantiation(
        list(c.assignments.values()) + list(c.excluded_loci), seed)


def sample_points(c: CandidateSolution, plan: SamplePlan, order: int) -> list[JetPoint]:
    """Draw jet points on the candidate's graph.

    Rejects points where any excluded locus or encountered denominator
    is within eps_sing of zero.  min_accepted applies per seed.
    """
    space = c.space
    if order > space.max_order:
        raise JetError("order %d exceeds space max_order %d" % (order, space.max_order))
    keys = jet_keys(space, order)
    needed = sorted({space.dependents[k.alpha] for k in keys})
    missing = [dep for dep in needed if dep not in c.assignments]
    if missing:
        raise JetError("candidate %s does not define %s" % (c.name, missing))

    n_loci = len(c.excluded_loci)
    slots = [(key_variable(space, key).name,
              n_loci + needed.index(space.dependents[key.alpha]), _key_dvars(space, key))
             for key in keys]

    def reader(ready, at, live):
        # once per seed: differentiate the instantiated right-hand sides
        for locus in ready[:n_loci]:
            value = at(locus)
            live &= ~(np.hypot(value.real, value.imag) <= plan.eps_sing)
        columns = {name: at(derivative(ready[i], dvars)).tolist()
                   for name, i, dvars in slots}
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    exprs = list(c.excluded_loci) + [c.assignments[dep] for dep in needed]
    return [JetPoint(s.where, s.values, order, c.name, s.seed, s.index)
            for s in sampled(exprs, plan, names=space.independents, reader=reader,
                             label="candidate %s" % c.name)]
