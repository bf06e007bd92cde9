"""Compare two sets of end-to-end runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit) and ``B`` the change; each is a
result file that ``bench.py --out`` appended runs to.  Runs of one workload
pair up in file order (run i of A with run i of B), so build the two files
by alternating the commits.  Every run of a workload must have the same
length on both sides.  For every workload and end-to-end metric this prints
both medians and quartiles and one verdict:

* ``improved``: at least ten pairs, B wins at least 9 in 10 of them (ties
  count for neither side), and the medians differ by more than A's
  interquartile distance;
* ``worse``: B's median is worse than A's by more than the bound, and
  either A's own spread (IQR over median) is within the bound or every run
  of B is worse than every run of A;
* ``unresolved``: otherwise, when A's own spread is wider than the bound
  and not every run of B beats every run of A;
* ``unchanged``: otherwise.

``failed_fraction`` may not rise at all.  ``exhaust_s`` gets no verdict on
the workloads where it restates ``schedules_per_s`` (see ``RESTATED``).
Exits 1 when any pairing is worse, else 3 when any is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from timing import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: metric -> (the metric it restates, workloads where it does).  There a
#: window holds a fixed number of units (5 sessions, the 35 logs), so the
#: median window time is that number over the median rate.
RESTATED = {"exhaust_s": ("schedules_per_s",
                          ("serve-vector", "serve-cache", "check-logs"))}
EXIT_WORSE = 1
EXIT_UNRESOLVED = 3


def untraced_runs(path: str) -> dict:
    """Untraced runs of a result file, by workload, in file order."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    grouped: dict = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def verdict(a, b, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    gain = sign * (b_med - a_med) / abs(a_med)  # negative: B is worse
    q1, q3 = quartiles(a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (b_med - a_med) > q3 - q1):
        return "improved"
    every_better = all(sign * (y - x) > 0 for x in a for y in b)
    every_worse = all(sign * (y - x) < 0 for x in a for y in b)
    if every_worse and gain < -bound:
        return "worse"
    if (q3 - q1) / abs(a_med) > bound and not every_better:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "unchanged"


def failed_verdict(a_runs, b_runs) -> str:
    def fraction(runs):
        return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    return "worse" if fraction(b_runs) > fraction(a_runs) else "unchanged"


def describe(values) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):12.6g} [{q1:.5g}, {q3:.5g}]"


def compare(a_path: str, b_path: str, spec: dict) -> int:
    a_all, b_all = untraced_runs(a_path), untraced_runs(b_path)
    for side, grouped in (("A", a_all), ("B", b_all)):
        probes = [run["env"]["speed_probe_ms"] for runs in grouped.values()
                  for run in runs]
        print(f"{side}: {sum(map(len, grouped.values()))} runs, machine speed "
              f"probe median {statistics.median(probes):.3f} ms "
              f"(max {max(probes):.3f})")
    verdicts = []
    print(f"{'workload':<18} {'metric':<20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    for workload in sorted(set(a_all) & set(b_all)):
        a_runs, b_runs = a_all[workload], b_all[workload]
        lengths = {(run["seconds"], run["smoke"]) for run in a_runs + b_runs}
        if len(lengths) > 1:
            verdicts.append("unresolved")
            print(f"{workload:<18} runs of different lengths "
                  f"(seconds, smoke): {sorted(lengths)}  unresolved")
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            restated, where = RESTATED.get(name, (None, ()))
            if workload in where:
                result = f"- (restates {restated})"
            else:
                result = verdict(a, b, entry["better"], entry["bound"])
                verdicts.append(result)
            change = statistics.median(b) / statistics.median(a) - 1.0
            print(f"{workload:<18} {name:<20} {describe(a):>34} {describe(b):>34} "
                  f"{change:>+8.1%}  {result}")
        result = failed_verdict(a_runs, b_runs)
        verdicts.append(result)
        print(f"{workload:<18} {'failed_fraction':<20} "
              f"{max(r['failed_fraction'] for r in a_runs):>34.6g} "
              f"{max(r['failed_fraction'] for r in b_runs):>34.6g} {'':>8}  {result}")
        pairs = min(len(a_runs), len(b_runs))
        if pairs < MIN_PAIRS:
            print(f"{workload:<18} ({pairs} pairs: fewer than {MIN_PAIRS}, "
                  "so no gain can be claimed)")
    for workload in sorted(set(a_all) ^ set(b_all)):
        print(f"{workload:<18} only in {'A' if workload in a_all else 'B'}")
    counts = {name: verdicts.count(name)
              for name in ("improved", "unchanged", "unresolved", "worse")}
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    if counts["worse"]:
        return EXIT_WORSE
    return EXIT_UNRESOLVED if counts["unresolved"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline result file")
    parser.add_argument("b", help="changed result file")
    args = parser.parse_args(argv)
    with open(SPEC) as handle:
        spec = json.load(handle)
    return compare(args.a, args.b, spec)


if __name__ == "__main__":
    sys.exit(main())
