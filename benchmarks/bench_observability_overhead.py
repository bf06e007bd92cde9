"""Observability overhead: the disabled recorder must be (near-)free.

The :mod:`repro.obs` layer guards every hot site (kernel step dispatch,
tracer append, checker feed/commit/view refresh) on ``recorder.enabled``, so
a pipeline without observability pays one attribute load and branch per
site.  This benchmark quantifies that promise on Table 2-class workloads
(run + view-level logging + offline check) and writes a machine-readable
``benchmarks/results/BENCH_obs_overhead.json``:

* **off** -- the default :class:`~repro.obs.NullRecorder` pipeline (what
  every seed-equivalent run pays now that the guards exist);
* **counters** -- ``MetricsRecorder(max_events=0)``: counters/histograms
  only, the configuration the parallel explorer ships to workers;
* **full** -- ``MetricsRecorder()`` with span events retained for trace
  export.

The <= 5% gate for the disabled path cannot be measured as off-vs-seed (the
guards cannot be removed at runtime), so it is bounded from first
principles: a microbenchmark times the guard pattern itself, the enabled
run's own counters say how many guarded sites one run executes, and the
product bounds the disabled layer's share of the measured off-pipeline CPU
time.  The exit code is the gate: nonzero if the bound exceeds the budget.

Usage::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py
    PYTHONPATH=src python benchmarks/bench_observability_overhead.py --smoke

``--smoke`` shrinks the sweep to one program with a small workload for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.harness import run_program
from repro.obs import NULL_RECORDER, MetricsRecorder

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
DEFAULT_OUT = os.path.join(RESULTS_DIR, "BENCH_obs_overhead.json")

#: Disabled-recorder overhead budget (fraction of off-pipeline CPU time).
BUDGET = 0.05

FULL_CONFIG = [
    ("multiset-vector", 8, 60),
    ("stringbuffer", 8, 60),
    ("blinktree", 8, 60),
]
SMOKE_CONFIG = [
    ("multiset-vector", 4, 20),
]


def _pipeline_cpu(name: str, threads: int, calls: int, seed: int, obs) -> float:
    """CPU seconds for one full pipeline pass: run + offline view check."""
    start = time.process_time()
    result = run_program(
        name, num_threads=threads, calls_per_thread=calls, seed=seed, obs=obs,
    )
    result.vyrd.check_offline()
    return time.process_time() - start


def _guard_cost_seconds(iterations: int = 2_000_000) -> float:
    """Per-site cost of the disabled guard, measured on the real pattern."""
    obs = NULL_RECORDER
    start = time.process_time()
    for _ in range(iterations):
        if obs.enabled:  # pragma: no cover - never taken
            obs.count("x")
    elapsed = time.process_time() - start
    return elapsed / iterations


def _guarded_sites_per_run(name: str, threads: int, calls: int, seed: int) -> int:
    """How many guarded sites one run executes, from the enabled run's own
    counters.  Every count/observe/span call sits behind exactly one guard,
    except the kernel's per-step events: ``Kernel.run`` chooses the observed
    or the plain step once per run, so all three count as one site per run
    (``span.kernel.run``)."""
    recorder = MetricsRecorder(max_events=0)
    result = run_program(
        name, num_threads=threads, calls_per_thread=calls, seed=seed,
        obs=recorder,
    )
    result.vyrd.check_offline()
    counters = recorder.counters
    kernel_step_events = sum(
        value for name, value in counters.items()
        if name in ("kernel.steps", "span.kernel.step")
        or name.startswith("kernel.steps.t")
    )
    return (
        sum(counters.values())
        - kernel_step_events
        + counters.get("span.kernel.run", 0)
        + sum(h.count for h in recorder.histograms.values())
    )


def run_bench(config, seeds, repeats: int) -> dict:
    guard_seconds = _guard_cost_seconds()
    rows = []
    for name, threads, calls in config:
        timings = {"off": [], "counters": [], "full": []}
        for seed in seeds:
            for _ in range(repeats):
                timings["off"].append(
                    _pipeline_cpu(name, threads, calls, seed, None)
                )
                timings["counters"].append(
                    _pipeline_cpu(name, threads, calls, seed,
                                  MetricsRecorder(max_events=0))
                )
                timings["full"].append(
                    _pipeline_cpu(name, threads, calls, seed,
                                  MetricsRecorder())
                )
        best = {key: min(values) for key, values in timings.items()}
        sites = _guarded_sites_per_run(name, threads, calls, seeds[0])
        null_bound = guard_seconds * sites / best["off"] if best["off"] else 0.0
        rows.append({
            "program": name,
            "threads": threads,
            "calls_per_thread": calls,
            "cpu_off": round(best["off"], 4),
            "cpu_counters": round(best["counters"], 4),
            "cpu_full": round(best["full"], 4),
            "counters_vs_off": round(best["counters"] / best["off"], 3),
            "full_vs_off": round(best["full"] / best["off"], 3),
            "guarded_sites_per_run": sites,
            "null_overhead_bound": round(null_bound, 5),
            "within_budget": null_bound <= BUDGET,
        })
    return {
        "benchmark": "observability_overhead",
        "budget": BUDGET,
        "guard_cost_ns": round(guard_seconds * 1e9, 2),
        "seeds": list(seeds),
        "repeats": repeats,
        "all_within_budget": all(row["within_budget"] for row in rows),
        "rows": rows,
    }


def render(report: dict) -> str:
    from repro.harness import render_table

    rows = [
        (
            row["program"],
            row["cpu_off"],
            row["cpu_counters"],
            row["cpu_full"],
            f"{row['full_vs_off']:.2f}x",
            f"{row['null_overhead_bound'] * 100:.3f}%",
        )
        for row in report["rows"]
    ]
    table = render_table(
        "observability overhead (best-of CPU s: off / counters / full)",
        ("program", "off", "counters", "full", "full/off", "null bound"),
        rows,
    )
    verdict = (
        f"disabled-recorder bound vs {report['budget'] * 100:.0f}% budget: "
        + ("OK" if report["all_within_budget"] else "EXCEEDED")
        + f" (guard cost {report['guard_cost_ns']} ns/site)"
    )
    return table + "\n" + verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2,
                        help="distinct workload seeds per program")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per seed (best is kept)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI sweep: one program, small workload")
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    config = SMOKE_CONFIG if args.smoke else FULL_CONFIG
    repeats = 2 if args.smoke else args.repeats
    report = run_bench(config, seeds=list(range(args.seeds)), repeats=repeats)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(render(report))
    print(f"report written to {args.out}")
    return 0 if report["all_within_budget"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
