"""Self-test of the benchmark: one short pass of each workload, untraced
and traced, plus the contract checks that need no symred run.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_one_pass_prints_every_metric(results, workload, trace):
    result = results(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = dict(bench.PER_LAYER if trace else bench.END_TO_END)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert m["value"] >= 0 or name == "trace.overhead_ratio", name
        if not trace:
            assert m["value"] > 0, name


@pytest.mark.parametrize("workload", ("cli-default", "cli-dense"))
def test_rejection_path_is_measured(results, workload):
    metrics = results(workload, 1)["metrics"]
    assert 0 < metrics["jets.accept_ratio"]["value"] < 1
    assert metrics["numeric.evaluate.rejected"]["value"] > 0


def test_dominant_layers(results):
    def self_s(workload, layer):
        return results(workload, 1)["metrics"]["%s.self_s" % layer]["value"]

    assert self_s("cli-dense", "numeric") > self_s("cli-dense", "expr")
    assert self_s("symbolic-sweep", "expr") > self_s("symbolic-sweep", "numeric")


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "cli-default", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(21) == 50.0
    assert bench.tail_percentile(42) == 75.0
    assert bench.tail_percentile(100) == 90.0
    assert bench.tail_percentile(250) == 95.0


def test_percentile_estimate():
    assert bench.percentile([2.5] * 40, 90.0) == pytest.approx(2.5)
    assert bench.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == pytest.approx(3.0)
    low_high = [1.0] * 30 + [2.0] * 30
    assert 1.0 < bench.percentile(low_high, 50.0) < 2.0
    assert bench.percentile(low_high, 25.0) < bench.percentile(low_high, 75.0)
