"""Ablation + checker throughput -- making the verification hot path O(delta).

Two experiments share this module:

1. **Incremental view ablation** (section 6.4, the pytest part): the same
   Cache trace checked with the incremental :class:`ContributionView` vs a
   :class:`FunctionView` that recomputes the whole store view at every
   commit.
2. **Checker throughput** (``main``/``--smoke``): a synthetic growing-map
   workload where the abstract state reaches N keys, checked under three
   verifier configurations --

   * ``legacy``        -- full view recompute + full dict comparison at
     every commit (the original hot path);
   * ``incremental``   -- incremental viewI, but still a full ``viewS``
     rebuild + dict comparison per commit;
   * ``differential``  -- incremental viewI + the dirty-key
     :class:`~repro.core.ViewComparator` (the new default).

   Writes ``BENCH_checker_throughput.json`` at the repo root with
   per-size/per-mode commits-per-second rows plus a chunked commits/sec
   trajectory.  Expected shape: legacy/incremental per-commit cost grows
   with the structure size while differential stays near-flat, so the
   margin widens as N grows.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import pytest

from repro.core import (
    CallAction,
    CommitAction,
    ContributionView,
    FunctionView,
    Log,
    RefinementChecker,
    ReturnAction,
    Specification,
    VIEW_ABSENT,
    WriteAction,
    mutator,
    prefix_unit,
)
from repro.boxwood import cache_view
from repro.harness import render_table, run_program

from _common import emit, fmt_secs

BLOCK = 8
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_checker_throughput.json")
_rows = []


def _full_cache_view():
    """A non-incremental view computing the same canonical value."""
    prototype = cache_view(BLOCK)
    return FunctionView(prototype.compute_full)


def _measure(num_threads: int, calls: int):
    run = run_program(
        "cache", buggy=False, num_threads=num_threads, calls_per_thread=calls,
        seed=17, log_level="view",
    )
    session = run.vyrd

    start = time.process_time()
    incremental = session.check_offline()
    incremental_cpu = time.process_time() - start

    session.plan = replace(session.plan, view_factory=_full_cache_view)
    start = time.process_time()
    full = session.check_offline()
    full_cpu = time.process_time() - start

    assert incremental.ok and full.ok
    row = (num_threads, calls, len(run.log), incremental_cpu, full_cpu)
    _rows.append(row)
    return row


@pytest.mark.parametrize("num_threads,calls", [(4, 40), (8, 60), (16, 60)],
                         ids=["small", "medium", "large"])
def test_incremental_vs_full(benchmark, num_threads, calls):
    row = benchmark.pedantic(_measure, args=(num_threads, calls), rounds=1,
                             iterations=1)
    _, _, _, incremental_cpu, full_cpu = row
    # both finish; the incremental checker should not be dramatically slower
    assert incremental_cpu <= full_cpu * 2 + 0.05


def _render() -> str:
    rows = [
        [f"{threads}x{calls}", records, fmt_secs(inc), fmt_secs(full),
         f"{full / inc:.2f}" if inc > 0 else "-"]
        for threads, calls, records, inc, full in _rows
    ]
    return render_table(
        "Ablation: incremental vs full-recompute viewI (Cache workload)",
        ["workload", "log records", "incremental (s)", "full recompute (s)",
         "full/incremental"],
        rows,
    )


@pytest.fixture(scope="module", autouse=True)
def _emit_table():
    yield
    if _rows:
        emit("ablation_incremental_view", _render())


# -- checker throughput: full vs differential comparison ---------------------


class _MapSpec(Specification):
    """A plain map: the abstract state grows to N keys, so a full viewS
    rebuild + comparison at every commit is O(N) while the dirty-key
    protocol touches exactly one key."""

    tracks_view_delta = True

    def __init__(self):
        self.data = {}

    @mutator
    def set(self, key, value, *, result):
        self.data[key] = value
        self._touch(key)

    def view(self):
        return {key: (value,) for key, value in self.data.items()}

    def view_at(self, key):
        return (self.data[key],) if key in self.data else VIEW_ABSENT


def _map_view(incremental: bool):
    if incremental:
        return ContributionView(
            unit_of=prefix_unit("m[", stop="]"),
            contribute=lambda state, unit: (unit[2:], state.get(f"{unit}]")),
            aggregate="list",
        )
    return FunctionView(
        lambda state: {
            loc[2:-1]: (value,) for loc, value in state.items_with_prefix("m[")
        }
    )


def _map_log(size: int) -> Log:
    """``size`` set() executions on distinct keys: by commit ``i`` the
    structure holds ``i`` keys, so per-commit full-comparison cost grows
    linearly across the log."""
    actions = []
    for index in range(size):
        key = f"k{index:06d}"
        actions.extend([
            CallAction(0, index, "set", (key, index)),
            WriteAction(0, index, f"m[{key}]", None, index),
            CommitAction(0, index),
            ReturnAction(0, index, "set", None),
        ])
    return Log(actions)


MODES = {
    "legacy": dict(incremental=False, differential=False),
    "incremental": dict(incremental=True, differential=False),
    "differential": dict(incremental=True, differential=True),
}


def _throughput(log: Log, incremental: bool, differential: bool,
                chunks: int = 8) -> dict:
    checker = RefinementChecker(
        _MapSpec(),
        mode="view",
        impl_view=_map_view(incremental),
        differential=differential,
    )
    actions = list(log)
    commits = sum(1 for a in actions if isinstance(a, CommitAction))
    chunk = max(1, len(actions) // chunks)
    trajectory = []
    total = 0.0
    for start in range(0, len(actions), chunk):
        batch = actions[start:start + chunk]
        begin = time.process_time()
        checker.feed(batch)
        elapsed = time.process_time() - begin
        total += elapsed
        batch_commits = sum(1 for a in batch if isinstance(a, CommitAction))
        trajectory.append(
            round(batch_commits / elapsed) if elapsed > 0 else None
        )
    outcome = checker.finish()
    assert outcome.ok, outcome.first_violation
    return {
        "cpu_seconds": round(total, 4),
        "commits": commits,
        "commits_per_sec": round(commits / total) if total > 0 else None,
        "per_commit_us": round(total / commits * 1e6, 1) if commits else None,
        "commits_per_sec_trajectory": trajectory,
    }


def run_throughput(sizes, out_path: str = DEFAULT_OUT) -> dict:
    report = {"workload": "synthetic map (1 mutator per commit)", "rows": []}
    for size in sizes:
        log = _map_log(size)
        row = {"structure_size": size, "records": len(list(log))}
        for mode, config in MODES.items():
            row[mode] = _throughput(log, **config)
        full = row["legacy"]["cpu_seconds"]
        diff = row["differential"]["cpu_seconds"]
        row["speedup_vs_legacy"] = round(full / diff, 2) if diff > 0 else None
        report["rows"].append(row)
    # the gate: the differential margin must grow with the structure size
    speedups = [row["speedup_vs_legacy"] for row in report["rows"]]
    report["margin_grows_with_size"] = (
        len(speedups) < 2 or speedups[-1] > speedups[0]
    )
    report["differential_wins_at_scale"] = speedups[-1] is not None and speedups[-1] > 1.0
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    lines = [
        f"  N={row['structure_size']:>6}: "
        + "  ".join(
            f"{mode}={row[mode]['per_commit_us']:>8.1f}us/commit"
            for mode in MODES
        )
        + f"  speedup={row['speedup_vs_legacy']}x"
        for row in report["rows"]
    ]
    print("checker throughput (per-commit cost by comparison mode):")
    print("\n".join(lines))
    print(f"report -> {out_path}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--table", action="store_true",
                        help="also regenerate the pytest ablation table")
    args = parser.parse_args(argv)
    if args.table:
        for threads, calls in [(4, 40), (8, 60), (16, 60)]:
            _measure(threads, calls)
        emit("ablation_incremental_view", _render())
    sizes = [200, 400] if args.smoke else [500, 1000, 2000, 4000]
    report = run_throughput(sizes, args.out)
    ok = report["margin_grows_with_size"] and report["differential_wins_at_scale"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
