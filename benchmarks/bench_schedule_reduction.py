"""Schedule reduction: static sleep-set pruning vs unreduced enumeration.

For each small registry config, exhaustively enumerates the schedule tree
twice -- unreduced and with ``--reduce static`` sleep-set pruning driven by
the :mod:`repro.lint.effects` independence matrix -- and gates on the
**equivalence** the reduction claims to preserve:

1. both enumerations exhaust their tree (otherwise nothing is comparable);
2. the identical set of distinct happens-before orders is covered
   (canonical Mazurkiewicz-trace fingerprints of every run's log,
   :func:`repro.harness.log_hb_fingerprint`);
3. the identical violation set is reported (failure type + message --
   non-empty on the buggy configs, so the gate proves bug-finding power
   is preserved, not just clean-run equivalence);
4. on the gate configs, the reduced run enumerates >= 5x fewer schedules.

Daemons are disabled (``ProgramSpec(daemons=False)``): their
always-runnable loops make the exhaustive tree infinite.  Writes a
machine-readable ``BENCH_schedule_reduction.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_schedule_reduction.py
    PYTHONPATH=src python benchmarks/bench_schedule_reduction.py --smoke  # CI

``--smoke`` keeps the two fastest gate configs so CI exercises the whole
pipeline (analysis, reduced frontier, fingerprints, equivalence) in under
a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.concurrency import explore_exhaustive
from repro.concurrency.reduction import StaticReducer
from repro.harness import ProgramSpec
from repro.lint.effects import analyze_program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_schedule_reduction.json")

# (program, buggy, threads, calls, workload_seed, in_smoke)
# Workload seeds pick the operation mix (it is fixed per seed; only the
# schedule varies): blinktree 7 = three lookups, 13 = two lookup+delete
# threads, multiset-vector 16 = two plain inserts -- the one vector-multiset
# shape whose first-free-slot scans stay short enough to exhaust, and whose
# buggy variant (the paper's moved-acquire FindSlot bug) fails refinement.
CASES = [
    ("blinktree", False, 2, 2, 13, True),
    ("multiset-vector", True, 2, 1, 16, True),
    ("blinktree", False, 3, 1, 7, False),
    ("multiset-vector", False, 2, 1, 16, False),
]
MIN_RATIO = 5.0


def _failure_set(result):
    return {
        (
            getattr(failure.error, "remote_type", type(failure.error).__name__),
            str(failure.error),
        )
        for failure in result.failures
    }


def run_case(program, buggy, threads, calls, workload_seed, *,
             reducer, max_runs, jobs):
    spec = ProgramSpec(
        program, buggy=buggy, num_threads=threads, calls_per_thread=calls,
        workload_seed=workload_seed, daemons=False, fingerprint=True,
    )
    start = time.perf_counter()
    base = explore_exhaustive(spec, max_runs=max_runs, jobs=jobs)
    base_seconds = time.perf_counter() - start
    start = time.perf_counter()
    reduced = explore_exhaustive(
        spec, max_runs=max_runs, jobs=jobs, reducer=reducer
    )
    reduced_seconds = time.perf_counter() - start

    hb_equal = base.outcomes() == reduced.outcomes()
    violations_base = _failure_set(base)
    violations_reduced = _failure_set(reduced)
    ratio = base.num_runs / max(1, reduced.num_runs)
    return {
        "program": program,
        "buggy": buggy,
        "threads": threads,
        "calls_per_thread": calls,
        "workload_seed": workload_seed,
        "base_runs": base.num_runs,
        "base_exhausted": base.exhausted,
        "base_seconds": round(base_seconds, 3),
        "reduced_runs": reduced.num_runs,
        "reduced_exhausted": reduced.exhausted,
        "reduced_pruned": reduced.pruned,
        "reduced_seconds": round(reduced_seconds, 3),
        "ratio": round(ratio, 1),
        "hb_orders": len(base.outcomes()),
        "hb_orders_equal": hb_equal,
        "violations": len(violations_base),
        "violations_equal": violations_base == violations_reduced,
        "equivalent": (
            base.exhausted and reduced.exhausted and hb_equal
            and violations_base == violations_reduced
        ),
        "gate_ok": (
            base.exhausted and reduced.exhausted and hb_equal
            and violations_base == violations_reduced
            and ratio >= MIN_RATIO
        ),
    }


def render(report: dict) -> str:
    lines = [
        "schedule reduction: static sleep sets vs unreduced exhaustive "
        f"(gate: equivalent coverage and >= {MIN_RATIO:.0f}x fewer runs)",
        f"{'config':<38} {'base':>7} {'reduced':>7} {'ratio':>7}  "
        f"{'HB==':>5} {'viol==':>6}  gate",
    ]
    for row in report["rows"]:
        config = (
            f"{row['program']}{' (buggy)' if row['buggy'] else ''} "
            f"t={row['threads']} c={row['calls_per_thread']} "
            f"seed={row['workload_seed']}"
        )
        lines.append(
            f"{config:<38} {row['base_runs']:>7} {row['reduced_runs']:>7} "
            f"{row['ratio']:>6.1f}x  {str(row['hb_orders_equal']):>5} "
            f"{str(row['violations_equal']):>6}  "
            f"{'OK' if row['gate_ok'] else 'FAIL'}"
        )
    verdict = "PASS" if report["all_gates_ok"] else "FAIL"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-runs", type=int, default=60_000,
                        help="per-enumeration schedule budget")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (0 = all CPUs)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset: the two fastest gate configs")
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    cases = [c for c in CASES if not args.smoke or c[5]]
    reducers = {}
    rows = []
    for program, buggy, threads, calls, seed, _ in cases:
        if program not in reducers:
            reducers[program] = StaticReducer.from_effects(
                analyze_program(program)
            )
        rows.append(run_case(
            program, buggy, threads, calls, seed,
            reducer=reducers[program], max_runs=args.max_runs,
            jobs=args.jobs,
        ))
    report = {
        "benchmark": "schedule_reduction",
        "min_ratio": MIN_RATIO,
        "max_runs": args.max_runs,
        "smoke": args.smoke,
        "all_gates_ok": all(row["gate_ok"] for row in rows),
        "rows": rows,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(render(report))
    print(f"report written to {args.out}")
    return 0 if report["all_gates_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
