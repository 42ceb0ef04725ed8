"""A fresh benchmark worker process.

    python3 perfbench/worker.py '<json spec>'

run.py starts one per job and reads one JSON line back from standard
output.  The worker imports symred from the checkout's `src/`, never
from an installed copy, and stamps the monotonic clock (shared by all
processes on the machine) once the import is complete, so that run.py
can split a job's latency into set-up and work.

Spec kinds:
  cli      run `symred.cli.main(argv)` once, capturing its output;
  setup    import symred and build every built-in model, then exit;
  sweep    serve sweep passes read from standard input until `stop`.
With "trace" set, the listed layer functions are wrapped (tracer.py) and
the spans are written to "spans" when the worker is done.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import symred  # noqa: E402
import symred.cli  # noqa: E402

if not Path(symred.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit("perfbench worker: symred was imported from %s, not from %s"
             % (symred.__file__, SRC))


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(stream, doc):
    stream.write(json.dumps(doc) + "\n")
    stream.flush()


def _run_cli(spec):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = symred.cli.main(spec["argv"])
    except Exception:
        code, error = None, traceback.format_exc(limit=4)
    t1 = time.monotonic()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error, "main_s": t1 - t0, "maxrss_mb": _maxrss_mb()}


def _build_all():
    return {model_id: symred.builtin(model_id) for model_id in symred.MODEL_IDS}


def _serve_sweep(spec, tracer, t_ready, real_stdout):
    import sweep

    _emit(real_stdout, {"t_ready": t_ready})
    if tracer is not None:
        tracer.install()
    job_id = 0
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("stop"):
            break
        results = []
        for model_id in symred.MODEL_IDS:
            state = {"model": model_id, "seed": spec["seed"] + command["draw"]}
            for step, run in sweep.STEPS:
                job_id += 1
                if tracer is not None:
                    tracer.job_id = job_id
                t0 = time.monotonic()
                try:
                    problem = run(state)
                except Exception:
                    problem = traceback.format_exc(limit=4)
                results.append({"name": "%s.%s" % (model_id, step),
                                "seconds": time.monotonic() - t0,
                                "problem": problem})
        _emit(real_stdout, {"jobs": results})
    if tracer is not None:
        tracer.uninstall()


def main():
    spec = json.loads(sys.argv[1])
    real_stdout = sys.stdout
    if spec["kind"] in ("setup", "sweep"):
        _build_all()
    t_ready = time.monotonic()
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
    if spec["kind"] == "sweep":
        sys.stdout = sys.stderr
        _serve_sweep(spec, tracer, t_ready, real_stdout)
        report = {"maxrss_mb": _maxrss_mb()}
    elif spec["kind"] == "cli":
        if tracer is not None:
            tracer.install()
        report = _run_cli(spec)
        if tracer is not None:
            tracer.uninstall()
    else:
        report = {"maxrss_mb": _maxrss_mb()}
    report["t_ready"] = t_ready
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.dump(spec["spans"])
    _emit(real_stdout, report)


if __name__ == "__main__":
    main()
