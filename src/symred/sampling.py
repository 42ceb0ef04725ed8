"""Seeded point sampling with singularity rejection, and the numeric
equality oracle built on it.

Every sampled verdict in symred (ranks, defect, kernel, closure fits,
residuals, equality) reads its numbers through `seed_passes`: per seed
it binds the points, drawn as one column per name or given as jet
points, beside stand-ins for the opaque symbols in one Binding, whose
subtree memo serves every expression read at that seed.  Each is
evaluated as it is, once over all of the points, with the plan's pole
and real-domain guards.  `sampled` keeps one rejection mask per seed,
`peaks` one per expression and seed; both raise SamplingError for a
reading that keeps fewer than plan.min_accepted points at a seed.

Determinism contract: point `index` of seed `seed` reads the stream
`SeedSequence([seed, index])` -> PCG64 of `symred.stream`, identical
bit for bit to `numpy.random.default_rng([seed, index])`, taking one
unit double per requested name, in list order.  Opaque symbols get
stand-ins that depend only on (symbol, seed), so any two runs with the
same plan produce identical samples and readings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .expr import Expression, SymredError, free_variables, function_symbols
from .numeric import Binding, PointRejected, evaluate, random_polynomial
from .stream import Stream

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
    not listed use DEFAULT_INTERVALS.  Points within EPS_SING of an
    excluded locus or a denominator are rejected.  allow_complex switches
    the evaluator from real-domain guards to principal branches.
    """

    box: Mapping[str, tuple[tuple[float, float], ...]] = field(default_factory=dict)
    count: int = 20
    min_accepted: int = 12
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    allow_complex: bool = False

    def __post_init__(self):
        if not (self.count >= self.min_accepted >= 4):
            raise ValueError("need count >= min_accepted >= 4")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for name, intervals in self.box.items():
            _check_intervals(name, intervals)

    def intervals_for(self, name: str) -> tuple[tuple[float, float], ...]:
        return self.box.get(name, DEFAULT_INTERVALS)

    def with_(self, **changes) -> "SamplePlan":
        return replace(self, **changes)


def _check_intervals(name, intervals):
    if not intervals:
        raise ValueError("empty interval union for %s" % name)
    for lo, hi in intervals:
        if not (hi > lo):
            raise ValueError("empty interval [%g, %g] for %s" % (lo, hi, name))


def draw_columns(names: Sequence[str], plan: SamplePlan, seed: int,
                 indices: Iterable[int]) -> dict[str, list[float]]:
    """The sample points at indices for the named variables, one column
    per name: point `index` takes one unit double per name, in list
    order, scaled by the width of the name's interval union exactly as
    rng.uniform(0, width) scales it, then placed in the union."""
    units = []
    for index in indices:
        stream, drawn = _stream(seed, index)
        drawn += stream.random(len(names) - len(drawn))  # none if enough
        units.append(drawn)
    out = {}
    for k, name in enumerate(names):
        intervals = plan.intervals_for(name)
        width = sum(hi - lo for lo, hi in intervals)
        out[name] = column = []
        for row in units:
            u = row[k] * width
            for lo, hi in intervals:
                if u <= hi - lo:
                    column.append(lo + u)
                    break
                u -= hi - lo
            else:
                column.append(intervals[-1][1])
    return out


def draw_values(names: Sequence[str], plan: SamplePlan, seed: int,
                index: int) -> dict[str, float]:
    """One sample point for the named variables: draw_columns at index."""
    return {name: column[0] for name, column in draw_columns(names, plan, seed, (index,)).items()}


@lru_cache(maxsize=2048)
def _stream(seed: int, index: int) -> tuple[Stream, list[float]]:
    # One stream per (seed, index) and the doubles it has given: points
    # recur across one command, for any name count.  Callers only append
    # the stream's next doubles, so every draw reads the same prefix.
    return Stream([seed, index]), []


def _opaque_symbols(exprs: Iterable[Expression]) -> list:
    """Every opaque symbol in exprs, in name order."""
    return sorted(set().union(*map(function_symbols, exprs)), key=lambda s: s.name)


def shared_instantiation(exprs: Iterable[Expression], seed: int):
    """One instantiation map covering every opaque symbol in exprs."""
    return {s: random_polynomial(s, seed) for s in _opaque_symbols(exprs)}


class Sample(NamedTuple):
    """One accepted point: its seed and index, where it lies (the drawn
    coordinates, or the given jet point) and the readings taken there."""

    seed: int
    index: int
    where: object
    values: object


class Peak(NamedTuple):
    """An expression's largest |value| over its accepted points, where it
    is (None while 0.0), and the (seed, index) of each point it rejected."""

    value: float
    where: object
    rejected: tuple


_STARVED = "seed %d: %s kept %d of %d points (need %d)"


def seed_passes(exprs: Sequence[Expression], plan: SamplePlan, *,
                names: Sequence[str] | None = None,
                points: Iterable | None = None) -> Iterator[tuple]:
    """Per seed, (seed, indices, where, at, live): the seed's points,
    bound once for reading exprs, and where each lies.  The points are
    drawn for `names` (default: the sorted free variables of exprs) at
    indices 0 .. plan.count - 1, or are `points`, jet points consumed in
    order one run of equal seeds at a time.  at(e) evaluates e, one of
    exprs or anything built from them (such as a derivative), at every
    point live marks, opaque applications from the seed's stand-ins, and
    returns one Python complex per point, meaningless at the others; it
    clears the points e rejects from live, a list of bools, which its
    owner may also clear or set anew in place."""
    if points is None:
        if names is None:
            names = sorted(set().union(*map(free_variables, exprs)))
        runs = [(seed, range(plan.count)) for seed in plan.seeds]
    else:
        runs = [(seed, list(run)) for seed, run in groupby(points, key=attrgetter("seed"))]
    real_domain = not plan.allow_complex
    # stand-ins depend only on (symbol, seed): the symbols are found once
    symbols = _opaque_symbols(exprs)
    for seed, run in runs:
        inst = {s: random_polynomial(s, seed) for s in symbols}
        if points is None:
            indices, columns = run, draw_columns(names, plan, seed, run)
            where = [{name: v[k] for name, v in columns.items()} for k in range(len(run))]
        else:
            indices, where = [p.index for p in run], run
            columns = {name: [p.base[name] for p in run] for name in run[0].base}
            columns.update((name, [p.slots[name] for p in run]) for name in run[0].slots)
        live = [True] * len(run)
        b = Binding(columns, inst, live=live)

        def at(e, b=b, live=live):
            try:
                return evaluate(e, b, real_domain=real_domain)
            except PointRejected as r:
                for i, bad in enumerate(r.rejected):
                    if bad:
                        live[i] = False
                return r.values

        yield seed, indices, where, at, live


def _read_all(exprs: Sequence[Expression], at, live) -> list[tuple]:
    return list(zip(*map(at, exprs)))


def sampled(exprs: Sequence[Expression], plan: SamplePlan, *,
            names: Sequence[str] | None = None, points: Iterable | None = None,
            reader: Callable = _read_all,
            label: str = "expressions") -> Iterator[Sample]:
    """The sampling loop: yield every accepted point with its readings.

    Per seed of seed_passes, reader(exprs, at, live) returns one row of
    readings per point and may clear more of live, the seed's one mask.
    The live points are yielded in index order with their rows; a seed
    that keeps fewer than plan.min_accepted raises SamplingError after
    its last one.
    """
    exprs = list(exprs)
    for seed, indices, where, at, live in seed_passes(exprs, plan, names=names, points=points):
        rows = reader(exprs, at, live)
        accepted = [k for k, ok in enumerate(live) if ok]
        for k in accepted:
            yield Sample(seed, indices[k], where[k], rows[k])
        if len(accepted) < plan.min_accepted:
            raise SamplingError(_STARVED % (seed, label, len(accepted), len(live),
                                            plan.min_accepted))


def peaks(exprs: Sequence[Expression], plan: SamplePlan, *, points: Iterable | None = None,
          labels: Sequence[str] | None = None) -> Iterator[Peak]:
    """Each expression's Peak, in order, every seed of seed_passes bound
    once for all of exprs.  Each is read under a mask of its own, so it
    keeps its own rejections and starves (labelled labels[k], default
    "expression") as a sampled((e,), ...) pass of its own would.  One
    that starves or fails is read at no later seed and raises its error
    in its turn, after the Peaks before it."""
    exprs = list(exprs)
    found: list = [Peak(0.0, None, ())] * len(exprs)
    for seed, indices, where, at, live in seed_passes(exprs, plan, points=points):
        for k, e in enumerate(exprs):
            if isinstance(found[k], Exception):
                continue
            live[:] = [True] * len(live)
            try:
                values = at(e)
                value, place, rejected = found[k]
                for i, ok in enumerate(live):
                    if not ok:
                        rejected += (seed, indices[i]),
                    elif abs(values[i]) > value:
                        value, place = abs(values[i]), where[i]
                if sum(live) < plan.min_accepted:
                    raise SamplingError(_STARVED % (seed, labels[k] if labels else "expression",
                                                    sum(live), len(live), plan.min_accepted))
                found[k] = Peak(value, place, rejected)
            except (SymredError, ArithmeticError) as exc:  # raised in its turn, below
                found[k] = exc
    for peak in found:
        if isinstance(peak, Exception):
            raise peak
        yield peak


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
