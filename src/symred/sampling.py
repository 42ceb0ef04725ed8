"""Seeded point sampling with singularity rejection, and the numeric
equality oracle built on it.

Every sampled verdict in symred (ranks, defect, kernel, closure fits,
residuals, equality) reads its numbers through the one loop in
`sampled`: per seed it instantiates the opaque symbols once, gathers
the points (drawn from the plan box, or given jet points) into columns,
evaluates each expression once over all of them with the plan's pole
and real-domain guards, keeps one rejection mask for the seed and
raises SamplingError when it keeps fewer than plan.min_accepted.

Determinism contract: the value drawn for a variable depends only on
(seed, point index, position in the requested name list), and opaque
symbols get stand-ins that depend only on (symbol, seed), so any two
runs with the same plan produce identical samples and readings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .expr import Expression, SymredError, free_variables, function_symbols
from .numeric import (
    Binding,
    PointRejected,
    evaluate,
    random_polynomial,
    substitute_functions,
)

# numeric_equiv tolerances
EQUIV_ABS = 1e-10
EQUIV_REL = 1e-9

DEFAULT_INTERVALS = ((-2.0, -0.5), (0.5, 2.0))
DEFAULT_SEEDS = (101, 211, 331)


class SamplingError(SymredError, RuntimeError):
    """Rejection starvation: too few points survived the guards."""


@dataclass(frozen=True)
class SamplePlan:
    """Where and how densely to sample.

    box maps variable names to interval unions ((lo, hi), ...); names
    not listed use default_intervals.  eps_sing is the rejection radius
    around excluded loci and denominators.  allow_complex switches the
    evaluator from real-domain guards to principal branches.
    """

    box: Mapping[str, tuple[tuple[float, float], ...]] = field(default_factory=dict)
    default_intervals: tuple[tuple[float, float], ...] = DEFAULT_INTERVALS
    count: int = 20
    min_accepted: int = 12
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    eps_sing: float = 1e-6
    allow_complex: bool = False

    def __post_init__(self):
        if not (self.count >= self.min_accepted >= 4):
            raise ValueError("need count >= min_accepted >= 4")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for name, intervals in self.box.items():
            _check_intervals(name, intervals)
        _check_intervals("<default>", self.default_intervals)

    def intervals_for(self, name: str) -> tuple[tuple[float, float], ...]:
        return self.box.get(name, self.default_intervals)

    def with_(self, **changes) -> "SamplePlan":
        return replace(self, **changes)


def _check_intervals(name, intervals):
    if not intervals:
        raise ValueError("empty interval union for %s" % name)
    for lo, hi in intervals:
        if not (hi > lo):
            raise ValueError("empty interval [%g, %g] for %s" % (lo, hi, name))


def draw_values(names: Sequence[str], plan: SamplePlan, seed: int,
                index: int) -> dict[str, float]:
    """One sample point for the named variables, in list order: one unit
    double each, scaled by the width of its interval union exactly as
    rng.uniform(0, width) scales it, then placed in the union."""
    out = {}
    unit = np.random.default_rng([seed, index]).random(len(names))
    for name, u in zip(names, unit.tolist()):
        intervals = plan.intervals_for(name)
        u *= sum(hi - lo for lo, hi in intervals)
        for lo, hi in intervals:
            if u <= hi - lo:
                out[name] = lo + u
                break
            u -= hi - lo
        else:
            out[name] = intervals[-1][1]
    return out


def shared_instantiation(exprs: Iterable[Expression], seed: int):
    """One instantiation map covering every opaque symbol in exprs."""
    symbols = set()
    for e in exprs:
        symbols |= function_symbols(e)
    return {s: random_polynomial(s, seed) for s in sorted(symbols, key=lambda s: s.name)}


class Sample(NamedTuple):
    """One accepted point: its seed and index, where it lies (the drawn
    coordinates, or the given jet point) and the readings taken there."""

    seed: int
    index: int
    where: object
    values: object


def _read_all(ready: Sequence[Expression], at, live) -> list[tuple]:
    return list(zip(*(at(e).tolist() for e in ready)))


def sampled(exprs: Sequence[Expression], plan: SamplePlan, *,
            names: Sequence[str] | None = None, points: Iterable | None = None,
            reader: Callable = _read_all,
            label: str = "expressions") -> Iterator[Sample]:
    """The sampling loop: yield every accepted point with its readings.

    For each seed the opaque symbols of `exprs` get one shared
    instantiation, substituted once.  The seed's points are then either
    drawn for `names` (default: the sorted free variables of exprs) at
    indices 0 .. plan.count - 1, or taken from `points`, jet points
    consumed in order one run of equal seeds at a time.

    reader(ready, at, live) is called once per seed with the substituted
    exprs and returns one row of readings per point.  It reads columns:
    at(e) evaluates e at all the seed's points and returns a complex
    array.  live is the seed's one rejection mask: at(e) skips the points
    it lacks and clears those e rejects, and the reader may clear more.
    The live points are yielded in index order with their rows; a seed
    that keeps fewer than plan.min_accepted raises SamplingError after
    its last one.
    """
    exprs = list(exprs)
    if points is None:
        if names is None:
            names = sorted(set().union(*map(free_variables, exprs)))
        runs = [(seed, range(plan.count)) for seed in plan.seeds]
    else:
        runs = [(seed, list(run)) for seed, run in groupby(points, key=attrgetter("seed"))]
    real_domain = not plan.allow_complex
    for seed, run in runs:
        inst = shared_instantiation(exprs, seed)
        ready = [substitute_functions(e, inst) for e in exprs] if inst else exprs
        if points is None:
            indices, where = run, [draw_values(names, plan, seed, i) for i in run]
            values = where
        else:
            indices, where = [p.index for p in run], run
            values = [p.binding_values() for p in run]
        columns = {name: np.array([v[name] for v in values], dtype=complex)
                   for name in values[0]}
        live = np.ones(len(run), dtype=bool)
        b = Binding(columns, live=live)

        def at(e):
            try:
                return evaluate(e, b, eps_sing=plan.eps_sing, real_domain=real_domain)
            except PointRejected as r:
                live[r.rejected] = False
                return r.values

        with np.errstate(all="ignore"):
            rows = reader(ready, at, live)
        accepted = np.flatnonzero(live).tolist()
        for k in accepted:
            yield Sample(seed, indices[k], where[k], rows[k])
        if len(accepted) < plan.min_accepted:
            raise SamplingError("seed %d: %s kept %d of %d points (need %d)"
                                % (seed, label, len(accepted), len(run), plan.min_accepted))


def numeric_equiv(e1: Expression, e2: Expression,
                  plan: SamplePlan | None = None) -> bool:
    """Sampling oracle for expression equality.

    True iff |e1 - e2| <= max(EQUIV_ABS, EQUIV_REL * max(|e1|, |e2|)) at
    every accepted point, over all plan seeds.  Opaque symbols get a
    shared per-seed instantiation so both sides see the same functions.
    """
    for s in sampled((e1, e2), plan or SamplePlan(), label="equality check"):
        v1, v2 = s.values
        if abs(v1 - v2) > max(EQUIV_ABS, EQUIV_REL * max(abs(v1), abs(v2))):
            return False
    return True
