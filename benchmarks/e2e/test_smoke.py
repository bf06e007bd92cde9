"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Every workload runs untraced and traced with ``--smoke`` (the same code path
and metric names as a full run, a few seconds each).  Each run must emit
every metric ``BENCHMARK.json`` declares, with its declared unit, and no
unit may fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCH = os.path.join(HERE, "bench.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, HERE)
import compare  # noqa: E402
from timing import PACE_EXPONENT, PACE_REFERENCE_S, Pace  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, BENCH, *args], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    proc = run_bench("--workload", workload, "--seed", "1", "--trace", str(trace),
                     "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, entry["name"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    (run,) = json.loads(out.read_text())["runs"]
    assert run["failed_fraction"] == 0
    assert run["env"]["seed"] == 1 and run["env"]["cpu_count"]


def test_without_program_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", WORKLOADS[0]],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pace_scales_by_the_samples_around_an_interval():
    ref, slow = PACE_REFERENCE_S, 0.5 ** PACE_EXPONENT
    cpu = min(os.sched_getaffinity(0))
    pace = Pace([cpu])
    # loop times at the reference speed, then twice as slow from t=10 on
    pace.ends = [0.0, 5.0, 10.0, 15.0, 20.0]
    pace.loops = [[ref, ref, 2 * ref, 2 * ref, 2 * ref]]
    assert pace.scale(1.0, 4.0) == 1.0  # the samples at 0 and 5
    assert pace.scale(16.0, 19.0) == slow  # the samples at 15 and 20
    assert pace.scale(-3.0, -1.0) == 1.0  # before the first sample
    assert pace.scale(25.0, 30.0) == slow  # after the last one
    assert pace.scale(6.0, 19.0) == slow  # median of the samples at 5 to 20
    pace.sample()
    assert len(pace.ends) == 6 and pace.loops[0][-1] > 0


def test_pace_weights_each_cpu_by_the_calls_cpu_time_on_it():
    ref = PACE_REFERENCE_S
    pace = Pace([0, 1])  # the second CPU runs twice as slow
    pace.ends = [0.0, 5.0]
    pace.loops = [[ref, ref], [2 * ref, 2 * ref]]
    assert pace.scale(1.0, 4.0) == 1.0  # by default only the first CPU counts
    assert pace.scale(1.0, 4.0, (0.0, 3.0)) == 0.5 ** PACE_EXPONENT
    assert pace.scale(1.0, 4.0, (1.0, 1.0)) == pytest.approx((1 / 1.5) ** PACE_EXPONENT)


def test_compare_verdicts():
    base = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(base, list(base), "lower", 0.1) == "unchanged"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "improved"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "worse"
    # fewer than ten pairs never claim a gain
    assert compare.verdict(base[:5], [v * 0.8 for v in base[:5]], "lower",
                           0.1) == "unchanged"
    noisy = [60.0, 140.0] * 5
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower",
                           0.1) == "unresolved"
    # a spread wider than the bound hides no regression that every run shows
    assert compare.verdict(noisy, [v * 3 for v in noisy], "lower", 0.1) == "worse"
    assert compare.verdict(noisy, [v / 3 for v in noisy], "higher", 0.1) == "worse"


def write_runs(path, values, seconds=28.0):
    """A result file of untraced serve-cache runs, one per value; every
    end-to-end metric reads that value."""
    runs = [{
        "workload": "serve-cache", "trace": False, "smoke": False,
        "seconds": seconds, "env": {"speed_probe_ms": 10.0},
        "attempted": 1, "failed": 0, "failed_fraction": 0.0,
        "metrics": {entry["name"]: {"value": value, "unit": entry["unit"]}
                    for entry in SPEC["end_to_end"]},
    } for value in values]
    path.write_text(json.dumps({"benchmark": "e2e", "runs": runs}))
    return str(path)


def test_compare_exit_status(tmp_path):
    steady = [100.0 + i % 3 for i in range(10)]
    a = write_runs(tmp_path / "a.json", steady)
    assert compare.compare(a, write_runs(tmp_path / "same.json", steady), SPEC) == 0
    # "higher" metrics read 2x better, "lower" ones 2x worse
    worse = write_runs(tmp_path / "worse.json", [v * 2 for v in steady])
    assert compare.compare(a, worse, SPEC) == compare.EXIT_WORSE
    noisy = write_runs(tmp_path / "noisy.json", [60.0, 140.0] * 5)
    assert compare.compare(noisy, noisy, SPEC) == compare.EXIT_UNRESOLVED
    longer = write_runs(tmp_path / "longer.json", steady, seconds=10.0)
    assert compare.compare(a, longer, SPEC) == compare.EXIT_UNRESOLVED
