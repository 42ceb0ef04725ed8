"""Byte identity of the documented commands: the benchmark's cli-default
jobs, and its cli-dense jobs at their --samples, run in-process at
--seed 7, must print, exit and write --json exactly as recorded in
cli_golden.json.  A dense job is recorded under its name prefixed by
"dense.", and again at --seed 13 under its name prefixed by
"dense.seed13.", so that dense sampling is pinned at two seeds.

Regenerate the record (only for a change that means to alter output):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from helpers import perfbench_jobs
from symred.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_golden.json")
SEED = 7
DENSE_SEEDS = (SEED, 13)
WORK = "<work>"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record(work: Path) -> dict:
    """Every cli-default job's, and every cli-dense job's at each of
    DENSE_SEEDS, exit code, stdout, stderr and --json text; file jobs
    read the euler.sr that `models --export euler` writes."""
    jobs = perfbench_jobs()
    work.mkdir(parents=True, exist_ok=True)
    results = {}
    runs = [(job.name, job, SEED, None) for job in jobs.CLI_DEFAULT]
    for seed in DENSE_SEEDS:
        prefix = "dense." if seed == SEED else "dense.seed%d." % seed
        runs += [(prefix + job.name, job, seed, jobs.DENSE_SAMPLES) for job in jobs.CLI_DENSE]
    for name, job, seed, samples in runs:
        argv = job.command(seed, str(work), samples)
        json_path = work / (name + ".json")
        exporting = job is jobs.EXPORT_EULER
        code, out, err = _run(argv if exporting else argv + ["--json", str(json_path)])
        if exporting:
            (work / "euler.sr").write_text(out, encoding="utf-8")
            doc = None
        else:
            doc = json_path.read_text(encoding="utf-8") if json_path.exists() else None
        if doc is not None:
            doc = doc.replace(json.dumps(str(work))[1:-1], WORK)
        results[name] = {"code": code, "stdout": out, "stderr": err, "json": doc}
    return results


def test_cli_default_jobs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record(tmp_path / "work")
    assert sorted(got) == sorted(expected)
    for name, want in expected.items():
        assert got[name] == want, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    import os
    import tempfile
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(record(Path(tmp) / "work"), indent=1, sort_keys=True)
                          + "\n", encoding="utf-8")
