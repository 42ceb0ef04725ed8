"""Span tracer that wraps symred's layers from outside.

Each listed public function is replaced, in every loaded `symred.*`
module that binds it by name (the package re-exports included), by a
wrapper that records one span: function, start, end, parent span and
job id.  A call that re-enters a function already on the stack is
folded into the enclosing span, so recursion (normalize calling
normalize) yields one span.  Spans stay in memory, in flat arrays, and
are written out by `dump`; `summary` turns them into per-function
totals, where a span's self time is its duration minus the durations of
its child spans.

No symred file is changed: `install` patches module attributes and
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from array import array
from collections import defaultdict

# Layer -> public functions wrapped in it.  The list names every
# function a per-layer metric reports, plus the entry points of each
# layer, so that a layer's self time covers the work done inside it.
LAYERS = {
    "expr": ("normalize", "differentiate", "substitute", "free_variables",
             "function_symbols", "to_text"),
    "parser": ("parse_expression",),
    "numeric": ("evaluate", "bessel_i", "substitute_functions",
                "instantiate_functions", "random_polynomial"),
    "sampling": ("draw_values", "numeric_equiv", "shared_instantiation"),
    "jets": ("make_space", "total_derivative", "substitute_candidate",
             "candidate_instantiation", "sample_points"),
    "fields": ("xi_matrices", "characteristic_matrix", "characteristic_row",
               "lie_bracket", "closure_check", "prolong", "apply_prolonged"),
    "analysis": ("pivot_rank", "generic_rank", "substitute_matrix",
                 "classify_transversality", "weak_minors", "weak_check_candidate",
                 "defect", "invariance_check", "constant_kernel_generators",
                 "max_abs_on_points", "symmetry_check"),
    "models": ("builtin", "draw_params", "resolve_candidate", "residual",
               "vnls_residual", "reduced_ode_check", "derived_constraint_check",
               "discrepancy_report"),
    "dsl": ("parse_workspace", "load_workspace", "workspace_from_entry",
            "workspace_to_text"),
    "cli": ("main",),
}

RETURNED, REJECTED, RAISED = 0, 1, 2


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.stack: list[int] = []
        self.job_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        self._active: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self):
        import symred.numeric
        import symred.sampling
        rejected = symred.numeric.PointRejected
        default_plan = symred.sampling.SamplePlan()
        hooks = {
            "jets.sample_points": functools.partial(self._sample_points_hook, default_plan),
            "analysis.generic_rank": functools.partial(self._generic_rank_hook, default_plan),
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "symred" or name.startswith("symred."))]
        for layer, names in LAYERS.items():
            module = sys.modules["symred." + layer]
            for name in names:
                original = getattr(module, name)
                label = "%s.%s" % (layer, name)
                wrapper = self._wrap(label, original, hooks.get(label), rejected)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def _wrap(self, label, fn, hook, rejected_type):
        index = len(self.names)
        self.names.append(label)
        self._active.append(0)
        active, stack = self._active, self.stack
        fns, parents, jobs = self.fn, self.parent, self.job
        starts, ends, status = self.start, self.end, self.status
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[index]:
                return fn(*args, **kwargs)
            span = len(fns)
            fns.append(index)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            status.append(RETURNED)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            active[index] = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except rejected_type:
                status[span] = REJECTED
                raise
            except BaseException:
                status[span] = RAISED
                raise
            finally:
                ends[span] = clock()
                starts[span] = t0
                stack.pop()
                active[index] = 0
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _sample_points_hook(self, default_plan, args, kwargs, points):
        plan = _arg(args, kwargs, 1, "plan") or default_plan
        self.counts["jets.points_drawn"] += plan.count * len(plan.seeds)
        self.counts["jets.points_accepted"] += len(points)
        self.counts["jets.slots"] += sum(len(p.slots) for p in points)

    def _generic_rank_hook(self, default_plan, args, kwargs, report):
        plan = _arg(args, kwargs, 1, "plan") or default_plan
        points = _arg(args, kwargs, 2, "points")
        drawn = len(points) if points is not None else plan.count * len(plan.seeds)
        self.counts["analysis.generic_rank.points_drawn"] += drawn
        self.counts["analysis.generic_rank.points_accepted"] += sum(
            len(r) for r in report.ranks.values())

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Per-function totals over every recorded span, plus counters."""
        starts, ends = self.start, self.end
        n = len(starts)
        child = [0.0] * n
        for span in range(n):
            parent = self.parent[span]
            if parent >= 0:
                child[parent] += ends[span] - starts[span]
        per_fn = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "rejected": 0}
                  for name in self.names}
        for span in range(n):
            row = per_fn[self.names[self.fn[span]]]
            duration = ends[span] - starts[span]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[span]
            row["rejected"] += self.status[span] == REJECTED
        return {
            "functions": per_fn,
            "counts": dict(self.counts),
            "spans": n,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }

    def dump(self, path):
        """Write every span: a JSON header at `path`, the columns beside it.

        The `.bin` file holds the columns one after another, each in
        native byte order with the array typecode the header names.
        """
        columns = [("function", self.fn), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("job", self.job), ("status", self.status)]
        header = {"names": self.names, "spans": len(self.fn),
                  "byteorder": sys.byteorder, "clock": "time.perf_counter",
                  "columns": [[name, col.typecode] for name, col in columns],
                  "status": ["returned", "raised PointRejected", "raised"]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(str(path)[:-len(".json")] + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
