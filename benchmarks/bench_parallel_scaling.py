"""Parallel exploration scaling: runs/sec and speedup vs. worker count.

Sweeps ``explore_swarm`` over a jobs grid (default 1, 2, 4, 8) on one
workload-registry program and writes a machine-readable
``BENCH_parallel_scaling.json`` at the repo root: per-job-count wall-clock,
runs/sec, speedup vs. the serial (jobs=1) baseline, and a campaign-signature
equality check proving every parallel sweep produced outcomes identical to
serial.  The recorded ``cpu_count`` contextualizes the speedup column --
on a single-CPU host the engine cannot beat serial no matter how it shards.

``--mode exhaustive [--reduce static]`` sweeps ``explore_exhaustive``
instead, optionally with the static sleep-set reducer
(:mod:`repro.concurrency.reduction`) -- the signature-equality gate then
also proves the *reduced* frontier shards coordination-free without
changing the covered schedule set.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \\
        --mode exhaustive --reduce static --program blinktree \\
        --threads 3 --calls 1 --workload-seed 7

``--smoke`` shrinks the sweep to jobs {1, 2} with a tiny campaign so CI can
exercise the whole engine (pool dispatch, merge, equality check) in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.concurrency import explore_exhaustive, explore_swarm
from repro.harness import ProgramSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_parallel_scaling.json")


def run_sweep(
    program: str,
    runs: int,
    jobs_list,
    threads: int,
    calls: int,
    workload_seed: int = 0,
    mode: str = "swarm",
    reduce: str = None,
) -> dict:
    reducer = None
    if reduce == "static":
        from repro.concurrency.reduction import StaticReducer
        from repro.lint.effects import analyze_program

        reducer = StaticReducer.from_effects(analyze_program(program))
    spec = ProgramSpec(
        program,
        num_threads=threads,
        calls_per_thread=calls,
        workload_seed=workload_seed,
        # exhaustive enumeration needs a finite tree
        daemons=(mode != "exhaustive"),
    )
    rows = []
    serial_signature = None
    serial_seconds = None
    for jobs in jobs_list:
        start = time.perf_counter()
        if mode == "exhaustive":
            result = explore_exhaustive(
                spec, max_runs=runs, jobs=jobs, reducer=reducer
            )
        else:
            result = explore_swarm(spec, num_runs=runs, jobs=jobs)
        seconds = time.perf_counter() - start
        signature = result.signature()
        if serial_signature is None:
            serial_signature = signature
            serial_seconds = seconds
        rows.append({
            "jobs": jobs,
            "seconds": round(seconds, 3),
            "runs_per_sec": (
                round(result.num_runs / seconds, 2) if seconds > 0 else None
            ),
            "speedup_vs_serial": (
                round(serial_seconds / seconds, 2) if seconds > 0 else None
            ),
            "outcomes_equal_serial": signature == serial_signature,
            "num_runs": result.num_runs,
            "pruned": result.pruned,
            "num_failures": len(result.failures),
        })
    return {
        "benchmark": "parallel_scaling",
        "program": program,
        "mode": mode,
        "reduce": reduce,
        "runs": runs,
        "threads": threads,
        "calls_per_thread": calls,
        "workload_seed": workload_seed,
        "cpu_count": os.cpu_count(),
        "all_outcomes_equal_serial": all(r["outcomes_equal_serial"] for r in rows),
        "rows": rows,
    }


def render(report: dict) -> str:
    flavor = report["mode"]
    if report["reduce"]:
        flavor += f" --reduce {report['reduce']}"
    lines = [
        f"parallel {flavor} scaling: {report['program']} "
        f"({report['threads']} threads x {report['calls_per_thread']} calls, "
        f"{report['runs']} runs, {report['cpu_count']} CPU(s))",
        f"{'jobs':>5}  {'seconds':>8}  {'runs/sec':>9}  {'speedup':>8}  outcomes==serial",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['jobs']:>5}  {row['seconds']:>8.3f}  {row['runs_per_sec']:>9}"
            f"  {row['speedup_vs_serial']:>7}x  {row['outcomes_equal_serial']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", default="multiset-vector")
    parser.add_argument("--runs", type=int, default=500,
                        help="swarm: seeded runs; exhaustive: run budget")
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--threads", type=int, default=3)
    parser.add_argument("--calls", type=int, default=10)
    parser.add_argument("--workload-seed", type=int, default=0)
    parser.add_argument("--mode", choices=("swarm", "exhaustive"),
                        default="swarm")
    parser.add_argument("--reduce", choices=("static",),
                        help="exhaustive: static sleep-set reduction")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI sweep: jobs {1, 2}, 40 runs")
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.smoke:
        args.jobs = [1, 2]
        if args.mode == "swarm":
            args.runs = min(args.runs, 40)
            args.threads = 2
            args.calls = 4
    report = run_sweep(
        args.program, args.runs, args.jobs, args.threads, args.calls,
        args.workload_seed, mode=args.mode, reduce=args.reduce,
    )
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(render(report))
    print(f"report written to {args.out}")
    return 0 if report["all_outcomes_equal_serial"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
