"""One end-to-end benchmark for serve, check and explore.

Run from the repository root (no install, no build)::

    python3 benchmarks/e2e/bench.py                          # all four workloads
    python3 benchmarks/e2e/bench.py --workload check-logs --seed 3
    python3 benchmarks/e2e/bench.py --workload serve-cache --trace 1
    python3 benchmarks/e2e/bench.py --smoke --out results.json

Without ``--workload`` every workload runs in its own subprocess, so that
each one's peak RSS is its own.  Untraced runs print every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` replays the workload's inputs
layer by layer and prints every per-layer metric instead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` appends the run, with its
environment stamp and sample details, to a result file that ``compare.py``
reads.  Scratch files go to ``.bench_e2e/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(ROOT, ".bench_e2e")
WORKLOAD_NAMES = ("serve-vector", "serve-cache", "check-logs", "explore-blinktree")
#: Measured seconds of a ``--smoke`` run: same code path, CI-sized.
SMOKE_SECONDS = 1.0


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, "
                             "each in its own subprocess)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed every input derives from")
    # The calling convention of BENCHMARK.json passes its run_seconds here.
    # Every result records its length, and compare.py judges only runs of
    # one length against each other.
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced per-layer run instead of the "
                             "end-to-end one")
    parser.add_argument("--smoke", action="store_true",
                        help="same code path and metrics, a few seconds per "
                             "workload")
    parser.add_argument("--out", metavar="FILE",
                        help="append the run(s) to this result file")
    return parser.parse_args(argv)


def emitted(spec: dict, trace: bool, metrics: dict) -> dict:
    """The declared metrics, in declared order, with their declared units."""
    line = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit!r}, declared "
                             f"{entry['unit']!r}")
        line[entry["name"]] = {"value": value, "unit": unit}
    return line


def append_run(path: str, record: dict) -> None:
    """Add one run to a result file (created when missing)."""
    data = {"benchmark": "e2e", "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data["runs"].append(record)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    os.replace(tmp, path)


def report(record: dict) -> str:
    """Every metric by name with its unit, plus the sample counts."""
    details = record["details"]
    mode = "traced" if record["trace"] else "untraced"
    lines = [
        f"{record['workload']} seed={record['seed']} {mode}: "
        f"{record['attempted']} attempted, {record['failed']} failed"
        f"{'' if record['correct'] else '  INCORRECT'}"
    ]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    if record["trace"]:
        share = details["layer_share"][details["dominant_layer"]]
        lines.append(f"  dominant layer: {details['dominant_layer']} "
                     f"({share:.0%} of end-to-end CPU)")
    else:
        for key in ("units", "lags", "batches"):
            stats = details[key]
            lines.append(f"  {key}: samples={stats['samples']} "
                         f"supported percentile={stats['top_percentile']}")
    lines.extend(f"  failure: {message}" for message in record["failures"])
    return "\n".join(lines)


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, SRC)
    import ledger
    import workloads
    from timing import env_stamp

    seconds = min(args.seconds, SMOKE_SECONDS) if args.smoke else args.seconds
    ctx = workloads.Context(
        work=os.path.join(WORK, f"{args.workload}-{os.getpid()}"),
        seed=args.seed, smoke=args.smoke,
    )
    try:
        if args.trace:
            outcome = ledger.trace_workload(args.workload, ctx)
        else:
            outcome = workloads.run_workload(args.workload, ctx, seconds)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "seconds": seconds,
        "env": env_stamp(ROOT, args.seed),
        "correct": not outcome["failed"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "failed_fraction": outcome["failed"] / outcome["attempted"],
        "failures": outcome["failures"],
        "metrics": emitted(spec, bool(args.trace), outcome["metrics"]),
        "details": outcome["details"],
    }
    spans = outcome.get("spans")
    if spans is not None:
        path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(spans, handle)
        record["details"]["spans_file"] = os.path.relpath(path, ROOT)
    print(report(record))
    if args.out:
        append_run(args.out, record)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}), flush=True)
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own subprocess; the last line aggregates them."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", os.path.abspath(args.out)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines() or [""]
        try:
            result = json.loads(lines[-1])
        except ValueError:  # the child crashed before printing a result
            print(f"{name}: exited {child.returncode} without a result",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
        status = max(status, child.returncode)
    print(json.dumps(summary), flush=True)
    return status


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.exists(SPEC):
        print(f"bench: needs the program sources in {SRC} and {SPEC}",
              file=sys.stderr)
        return 2
    with open(SPEC) as handle:
        spec = json.load(handle)
    args = parse_args(argv, spec)
    os.makedirs(WORK, exist_ok=True)
    if args.workload is None:
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
