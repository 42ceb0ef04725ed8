"""symred benchmark: seeded workloads run through symred's public entry
points, end-to-end metrics with tracing off, per-layer metrics with it on.

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 36 --trace 0

Workloads (see perfbench/README.md for why each exists):
  cli-default     27 documented CLI commands, one fresh process each;
  cli-dense       11 of them at --samples 100, one fresh process each;
  symbolic-sweep  one long-lived process building every model at a new
                  parameter draw per pass, with no sampling beyond
                  closure checks.
Each is a closed loop with one caller: a job starts when the previous
one has ended.  Passes over the job list repeat until the next one would
end past --seconds, after a minimum number of passes (MIN_PASSES).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Every verdict is
checked against its known answer; a wrong one makes the run exit 1.
The run's files (exported workspaces, spans, report.json) go to
.perfbench-out/<workload>-trace<n>/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("cli-default", "cli-dense", "symbolic-sweep")
JOB_TIMEOUT_S = 90
LAST_PASS_START_S = 100  # no pass starts later, so a run ends within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# wall_s sums each job's upper quartile, not its median.  On a shared
# host the speed keeps returning to one slow level and rises above it in
# bursts that come and go; a job's upper quartile tracks the slow level,
# its median follows the bursts.  Over ten sweep runs on a 2-vCPU Xeon
# the median gave a spread of 0.18 between runs, the upper quartile 0.08.
WALL_PERCENTILE = 75.0
# Passes an untraced run makes even past --seconds.  They fix the sample
# count the tail percentile is chosen for, so that a faster program,
# which fits more passes, is not measured at a higher percentile.
MIN_PASSES = {"cli-default": 2, "cli-dense": 2, "symbolic-sweep": 5}
SWEEP_JOBS_PER_PASS = 20  # 5 models x 4 steps

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# Totals are per pass; ratios and per-call or per-point figures are not.
PER_LAYER = (
    ("expr.self_s", "s"),
    ("expr.normalize.calls", "count"),
    ("expr.normalize.self_s", "s"),
    ("expr.differentiate.calls", "count"),
    ("expr.differentiate.self_s", "s"),
    ("expr.substitute.self_s", "s"),
    ("numeric.self_s", "s"),
    ("numeric.evaluate.calls", "count"),
    ("numeric.evaluate.self_s", "s"),
    ("numeric.evaluate.us_per_call", "us"),
    ("numeric.evaluate.rejected", "count"),
    ("numeric.substitute_functions.self_s", "s"),
    ("numeric.random_polynomial.calls", "count"),
    ("numeric.bessel_i.calls", "count"),
    ("numeric.bessel_i.self_s", "s"),
    ("jets.self_s", "s"),
    ("jets.sample_points.calls", "count"),
    ("jets.points_drawn", "count"),
    ("jets.points_accepted", "count"),
    ("jets.accept_ratio", "ratio"),
    ("jets.slots_per_point", "count"),
    ("jets.substitute_candidate.self_s", "s"),
    ("jets.total_derivative.calls", "count"),
    ("sampling.self_s", "s"),
    ("sampling.draw_values.calls", "count"),
    ("sampling.draw_values.self_s", "s"),
    ("sampling.numeric_equiv.calls", "count"),
    ("sampling.numeric_equiv.self_s", "s"),
    ("analysis.self_s", "s"),
    ("analysis.pivot_rank.calls", "count"),
    ("analysis.pivot_rank.self_s", "s"),
    ("analysis.generic_rank.points_accepted", "count"),
    ("analysis.generic_rank.accept_ratio", "ratio"),
    ("analysis.weak_minors.self_s", "s"),
    ("analysis.constant_kernel_generators.self_s", "s"),
    ("fields.self_s", "s"),
    ("fields.prolong.calls", "count"),
    ("fields.apply_prolonged.self_s", "s"),
    ("fields.closure_check.self_s", "s"),
    ("parser.self_s", "s"),
    ("parser.parse_expression.calls", "count"),
    ("dsl.self_s", "s"),
    ("dsl.parse_workspace.calls", "count"),
    ("models.self_s", "s"),
    ("models.builtin.calls", "count"),
    ("models.builtin.self_s", "s"),
    ("cli.self_s", "s"),
    ("python.gc_s", "s"),
    ("python.gc_collections", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


class Run:
    """One benchmark run: its settings, work directory and job results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = ROOT / ".perfbench-out" / ("%s-trace%d" % (workload, trace))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.setups: list[float] = []     # spawn -> symred imported (and built)
        self.latency = defaultdict(list)  # job name -> untraced latencies
        self.rss: list[float] = []
        self.passes = 0                   # passes whose results are reported
        self.attempted = 0
        self.problems: list[str] = []
        self.traces: list[tuple[str, dict]] = []  # (job, tracer summary)
        self.overhead = [0.0, 0.0]        # summed work: untraced, traced
        self.stopped = False              # a job timed out: measure no further
        self.tail_note = ""
        self.min_passes = 1 if trace else MIN_PASSES[workload]

    def more(self, elapsed: float, last_pass_s: float, share: float = 1.0) -> bool:
        """Whether to start another pass."""
        if self.stopped or elapsed > LAST_PASS_START_S:
            return False
        return self.passes < self.min_passes or elapsed + last_pass_s <= self.seconds * share

    def record(self, name: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.problems.append("%s: %s" % (name, problem))


# ---------------------------------------------------------------------------
# worker processes

# One BLAS thread per worker: the loop has one caller and no work runs in
# parallel.  With numpy's default pool, BLAS threads spin on the second
# of two cores after each call, which adds noise to every timing.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


# Workers take turns on the CPUs this process may use.  The CPUs of a
# shared host differ in speed, and which one is faster changes; a run
# that kept to one CPU would measure that CPU's luck.
CPUS = sorted(os.sched_getaffinity(0))


def _pin(proc: subprocess.Popen, turn: int | None) -> None:
    if turn is None:
        return
    try:
        os.sched_setaffinity(proc.pid, {CPUS[turn % len(CPUS)]})
    except ProcessLookupError:  # already gone; its exit is reported elsewhere
        pass


def _spawn(spec: dict, stdin=None, turn: int | None = None) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT, env=WORKER_ENV,
        stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    _pin(proc, turn)
    return proc


def _finish(proc: subprocess.Popen, timeout: float) -> tuple[str, str, bool]:
    """Wait for the process; kill it after `timeout`.  (stdout, stderr, timed out)"""
    try:
        out, err = proc.communicate(timeout=timeout)
        return out, err, False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return out, err, True


def run_worker(spec: dict, turn: int | None = None):
    """(report or None, spawn time, exit time, problem)."""
    t_spawn = time.monotonic()
    proc = _spawn(spec, turn=turn)
    out, err, timed_out = _finish(proc, JOB_TIMEOUT_S)
    t_exit = time.monotonic()
    if timed_out:
        return None, t_spawn, t_exit, "timed out after %d s" % JOB_TIMEOUT_S
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, t_spawn, t_exit, "worker exited %d: %s" % (proc.returncode, tail[0])
    return json.loads(lines[-1]), t_spawn, t_exit, None


def cli_job(run: Run, job: jobs.Job, argv: list[str], traced: bool = False,
            measure: bool = True, turn: int | None = None):
    """Run one CLI command in a fresh worker and check its verdict.

    Returns (worker report or None, problem or None).  Untraced measured
    jobs add their set-up, latency and peak memory to the run.
    """
    spec = {"kind": "cli", "argv": argv, "trace": traced,
            "spans": str(run.work / ("spans-%s.json" % job.name))}
    report, t_spawn, t_exit, problem = run_worker(spec, turn)
    if problem is None:
        if report["error"]:
            problem = "raised: %s" % report["error"].strip().splitlines()[-1]
        else:
            problem = job.check(report["code"], report["stdout"])
            if problem is not None:
                problem += " (known answer from %s)" % job.source
    run.record(job.name, problem)
    if report is not None and measure and not traced:
        run.setups.append(report["t_ready"] - t_spawn)
        run.rss.append(report["maxrss_mb"])
        if problem is None:
            run.latency[job.name].append(t_exit - report["t_ready"])
    if problem is not None and "timed out" in problem:
        run.stopped = True
    return report, problem


# ---------------------------------------------------------------------------
# workloads

def _setup_cli(run: Run) -> None:
    export = jobs.EXPORT_EULER
    report, problem = cli_job(run, export, export.command(run.seed, str(run.work), None),
                              measure=False)
    if problem is None:
        (run.work / "euler.sr").write_text(report["stdout"], encoding="utf-8")
    # README: with a fixed --seed the JSON report is byte-identical.
    check = jobs.DETERMINISM
    paths = [run.work / ("determinism-%d.json" % k) for k in (1, 2)]
    for path in paths:
        argv = check.command(run.seed, str(run.work), None) + ["--json", str(path)]
        if cli_job(run, check, argv, measure=False)[1] is not None:
            return
    if paths[0].read_bytes() != paths[1].read_bytes():
        run.record(check.name, "--json differs between two runs with --seed %d" % run.seed)


def run_cli(run: Run, job_list, samples) -> None:
    _setup_cli(run)
    argvs = [job.command(run.seed, str(run.work), samples) for job in job_list]
    t0 = time.monotonic()
    pass_s = 0.0
    while run.more(time.monotonic() - t0, pass_s):
        start = time.monotonic()
        for k, (job, argv) in enumerate(zip(job_list, argvs)):
            if run.stopped:
                return
            if not run.trace:
                cli_job(run, job, argv, turn=run.passes + k)
                continue
            # traced and untraced twins, in alternating order
            pair = {}
            for traced in ((False, True) if (run.passes + k) % 2 == 0 else (True, False)):
                report, problem = cli_job(run, job, argv, traced, measure=False,
                                          turn=run.passes + k)
                if problem is None:
                    pair[traced] = report
            if len(pair) == 2:
                run.overhead[0] += pair[False]["main_s"]
                run.overhead[1] += pair[True]["main_s"]
                run.traces.append((job.name, pair[True]["trace"]))
        run.passes += 1
        pass_s = time.monotonic() - start


def _sweep_worker(run: Run, traced: bool, draws: int | None):
    """Start a sweep worker and serve it passes; returns per-pass seconds.

    With draws None, passes go on while they fit the time budget; a
    traced run keeps about half of it for the traced twin worker, which
    then repeats the same draws.
    """
    share = 0.45 if run.trace else 1.0
    spec = {"kind": "sweep", "seed": run.seed, "trace": traced,
            "spans": str(run.work / "spans-sweep.json")}
    t_spawn = time.monotonic()
    proc = _spawn(spec, stdin=subprocess.PIPE)
    pass_seconds = []
    try:
        hello = json.loads(proc.stdout.readline() or "null")
        if hello is None:
            raise RuntimeError("sweep worker did not start: %s" % proc.stderr.read()[-300:])
        if not traced:
            run.setups.append(hello["t_ready"] - t_spawn)
        t0 = time.monotonic()
        draw = 0
        while (draw < draws if draws is not None else
               run.more(time.monotonic() - t0, pass_seconds[-1] if draw else 0.0, share)):
            _pin(proc, draw)
            proc.stdin.write(json.dumps({"draw": draw}) + "\n")
            proc.stdin.flush()
            watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            watchdog.start()
            line = proc.stdout.readline()
            watchdog.cancel()
            if not line:
                raise RuntimeError("sweep worker died: %s" % proc.stderr.read()[-300:])
            result = json.loads(line)
            total = 0.0
            for job in result["jobs"]:
                run.record(job["name"], job["problem"])
                total += job["seconds"]
                if not traced and job["problem"] is None:
                    run.latency[job["name"]].append(job["seconds"])
            pass_seconds.append(total)
            draw += 1
            if not traced:
                run.passes += 1
                if not run.trace:
                    _setup_probe(run, draw)
        proc.stdin.write(json.dumps({"stop": True}) + "\n")
        proc.stdin.flush()
        out, err, timed_out = _finish(proc, JOB_TIMEOUT_S)
        if timed_out or proc.returncode != 0:
            raise RuntimeError("sweep worker failed at exit: %s" % err[-300:])
        final = json.loads(out.strip().splitlines()[-1])
        if traced:
            run.traces.append(("sweep", final["trace"]))
        else:
            run.rss.append(final["maxrss_mb"])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return pass_seconds


def _setup_probe(run: Run, turn: int) -> None:
    """Time one fresh set-up: import symred and build every model."""
    report, t_spawn, _, problem = run_worker({"kind": "setup"}, turn)
    run.record("setup", problem)
    if problem is None:
        run.setups.append(report["t_ready"] - t_spawn)
        run.rss.append(report["maxrss_mb"])


def run_sweep(run: Run) -> None:
    # Besides the long-lived worker, a probe after each untraced pass
    # samples set-up time across the whole run.
    try:
        plain = _sweep_worker(run, False, None)
        if run.trace:
            traced = _sweep_worker(run, True, len(plain))
            run.overhead = [sum(plain), sum(traced)]
    except RuntimeError as err:
        run.record("sweep", str(err))


# ---------------------------------------------------------------------------
# metrics

def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with Beta(a, b) weights,
    a = q(n+1) and b = (1-q)(n+1) for q = p/100.  Latencies here come
    from a mix of jobs of very different lengths; a single order
    statistic jumps whenever two jobs swap places, this estimate moves
    smoothly.
    """
    data = sorted(values)
    n = len(data)
    q = p / 100.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if n == 1 or a < 1 or b < 1:
        return statistics.median(data) if q == 0.5 else data[min(n - 1, int(q * n))]
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each 1/n interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        total = density(lo) + density(lo + steps * h)
        total += sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(total * h / 3)
    norm = sum(weights)
    return sum(w * x for w, x in zip(weights, data)) / norm


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return 50.0


def end_to_end(run: Run, jobs_per_pass: int) -> dict:
    latencies = [x for values in run.latency.values() for x in values]
    if not latencies or not run.setups:
        return {}
    tail = tail_percentile(min(len(latencies), jobs_per_pass * run.min_passes))
    run.tail_note = "job_tail_s is p%g of %d job latencies" % (tail, len(latencies))
    ok = run.attempted - len(run.problems)
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": sum(percentile(v, WALL_PERCENTILE) for v in run.latency.values()),
        "job_p50_s": percentile(latencies, 50.0),
        "job_tail_s": percentile(latencies, tail),
        "peak_rss_mb": max(run.rss),
        "ok_ratio": ok / run.attempted if run.attempted else 0.0,
    }


def per_layer(run: Run) -> dict:
    fn = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(float)
    for _, summary in run.traces:
        for name, row in summary["functions"].items():
            for key, value in row.items():
                fn[name][key] += value
        for key in ("gc_s", "gc_collections", "spans"):
            counts[key] += summary[key]
        for key, value in summary["counts"].items():
            counts[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    totals = {"python.gc_s": counts["gc_s"],
              "python.gc_collections": counts["gc_collections"],
              "trace.spans": counts["spans"],
              "jets.points_drawn": counts["jets.points_drawn"],
              "jets.points_accepted": counts["jets.points_accepted"],
              "analysis.generic_rank.points_accepted":
                  counts["analysis.generic_rank.points_accepted"]}
    for layer, names in LAYERS.items():
        totals["%s.self_s" % layer] = sum(fn["%s.%s" % (layer, n)]["self_s"] for n in names)
        for n in names:
            for key in ("calls", "self_s", "rejected"):
                totals["%s.%s.%s" % (layer, n, key)] = fn["%s.%s" % (layer, n)][key]
    out = {name: value / max(run.passes, 1) for name, value in totals.items()}
    evaluate = fn["numeric.evaluate"]
    out["numeric.evaluate.us_per_call"] = 1e6 * ratio(evaluate["total_s"], evaluate["calls"])
    out["jets.accept_ratio"] = ratio(counts["jets.points_accepted"], counts["jets.points_drawn"])
    out["jets.slots_per_point"] = ratio(counts["jets.slots"], counts["jets.points_accepted"])
    out["analysis.generic_rank.accept_ratio"] = ratio(
        counts["analysis.generic_rank.points_accepted"],
        counts["analysis.generic_rank.points_drawn"])
    untraced, traced = run.overhead
    out["trace.overhead_ratio"] = ratio(traced, untraced) - 1.0 if untraced else 0.0
    return out


def layer_shares(summaries) -> list[tuple[str, float]]:
    """Each layer's share of the traced self time, largest first."""
    self_s = {layer: sum(s["functions"]["%s.%s" % (layer, n)]["self_s"]
                         for s in summaries for n in names)
              for layer, names in LAYERS.items()}
    total = sum(self_s.values()) or 1.0
    return sorted(((layer, v / total) for layer, v in self_s.items()),
                  key=lambda kv: -kv[1])


def print_layer_shares(run: Run) -> None:
    by_job = defaultdict(list)
    for name, summary in run.traces:
        by_job[name].append(summary)
    rows = list(by_job.items())
    if len(rows) > 1:
        rows.append(("(all jobs)", [s for _, s in run.traces]))
    for name, summaries in rows:
        top = layer_shares(summaries)[:4]
        print("layers %-34s %s" % (name, "  ".join("%s %.0f%%" % (layer, 100 * share)
                                                   for layer, share in top)))


# ---------------------------------------------------------------------------
# environment and report

def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "symred").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "load_1min": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symred" / "__init__.py").is_file():
        print("perfbench: no symred source at %s" % (ROOT / "src" / "symred"),
              file=sys.stderr)
        return 2

    env = environment()
    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: " + ", ".join("%s=%s" % kv for kv in env.items()))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "symbolic-sweep":
        run_sweep(run)
        jobs_per_pass = SWEEP_JOBS_PER_PASS
    else:
        dense = args.workload == "cli-dense"
        job_list = jobs.CLI_DENSE if dense else jobs.CLI_DEFAULT
        run_cli(run, job_list, jobs.DENSE_SAMPLES if dense else None)
        jobs_per_pass = len(job_list)

    if args.trace:
        values = per_layer(run) if run.traces else {}
        wanted = PER_LAYER
    else:
        values = end_to_end(run, jobs_per_pass)
        wanted = END_TO_END
    if not values:
        run.problems.append("no job completed")
    rows = {name: statistics.median(v) for name, v in run.latency.items()}
    for name, median in rows.items():
        print("job %-34s %3d runs  median %.4f s" % (name, len(run.latency[name]), median))
    if run.tail_note:
        print(run.tail_note)
    print_layer_shares(run)
    for problem in run.problems:
        print("WRONG " + problem)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted if name in values}
    for name, m in metrics.items():
        print("metric %-44s %.6g %s" % (name, m["value"], m["unit"]))
    correct = not run.problems
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": len(run.problems), "metrics": metrics}
    (run.work / "report.json").write_text(json.dumps(
        {"environment": env, "workload": args.workload, "seed": args.seed,
         "passes": run.passes, "jobs": rows, "latencies": run.latency,
         "setups": run.setups, "problems": run.problems,
         "result": result}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
