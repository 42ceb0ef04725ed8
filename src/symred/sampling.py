"""Seeded point sampling with singularity rejection, and the numeric
equality oracle built on it.

Every sampled verdict in symred (ranks, defect, kernel, closure fits,
residuals, equality) reads its numbers through the one loop in
`sampled`: per seed it instantiates the opaque symbols once, walks the
points (drawn from the plan box, or given jet points), evaluates with
the plan's pole and real-domain guards, skips rejected points and
raises SamplingError when a seed keeps fewer than plan.min_accepted.

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


def point_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def draw_from_intervals(rng: np.random.Generator,
                        intervals: tuple[tuple[float, float], ...]) -> float:
    widths = [hi - lo for lo, hi in intervals]
    u = rng.uniform(0.0, sum(widths))
    for (lo, hi), w in zip(intervals, widths):
        if u <= w:
            return lo + u
        u -= w
    return intervals[-1][1]


def draw_values(names: Sequence[str], plan: SamplePlan, seed: int,
                index: int) -> dict[str, float]:
    """One sample point for the named variables, in list order."""
    rng = point_rng(seed, index)
    return {name: draw_from_intervals(rng, plan.intervals_for(name)) for name in names}


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


def _read_all(ready: Sequence[Expression]):
    return lambda at: [at(e) for e in ready]


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

    reader(ready) is called once per seed with the substituted exprs
    and returns read(at), which takes the readings at one point; at(e)
    evaluates under the plan's guards.  A PointRejected raised while
    reading skips the point.  A seed that keeps fewer than
    plan.min_accepted points raises SamplingError when its points run
    out; a consumer that stops early never draws the rest.
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
        read = reader([substitute_functions(e, inst) for e in exprs] if inst else exprs)
        accepted = 0
        for item in run:
            if points is None:
                index, where = item, draw_values(names, plan, seed, item)
                b = Binding(where)
            else:
                index, where = item.index, item
                b = Binding(item.binding_values())
            try:
                values = read(lambda e: evaluate(e, b, eps_sing=plan.eps_sing,
                                                 real_domain=real_domain))
            except PointRejected:
                continue
            accepted += 1
            yield Sample(seed, index, where, values)
        if accepted < plan.min_accepted:
            raise SamplingError("seed %d: %s kept %d of %d points (need %d)"
                                % (seed, label, accepted, len(run), plan.min_accepted))


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
