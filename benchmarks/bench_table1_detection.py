"""Table 1 -- Time to detection of error.

For every buggy program and thread count, the paper reports the average
number of methods executed before the first error is detected under I/O
refinement and under view refinement, plus the ratio of view-mode to
I/O-mode checker CPU time on the same trace.

Shape claims reproduced here (see EXPERIMENTS.md for measured values):

* view refinement detects after far fewer methods than I/O refinement for
  every state-corrupting bug;
* for java.util.Vector's observer-only bug, the two are identical;
* the paper's Cache row has by far the largest view/IO CPU ratio (16.9 vs
  1.03-3.46 elsewhere), which it puts down to fine-grained byte-level
  logging.  That claim no longer holds here as worded: since the cache
  invariants are checked per handle, the cache's ratio sits below the
  multiset tree's, because most of its former ratio was the whole-state
  invariant scan (EXPERIMENTS.md, Table 1, verdict 3).
"""

import pytest

from repro.harness import detection_experiment, render_table

from _common import emit, fmt_mean

# (program, thread counts): a scaled-down version of Table 1's sweep
TABLE1_CONFIG = [
    ("multiset-vector", (4, 8, 16)),
    ("multiset-tree", (4, 8, 16)),
    ("java-vector", (4, 8, 16)),
    ("stringbuffer", (4, 8, 16)),
    ("blinktree", (2, 8, 16)),
    ("cache", (4, 8, 16)),
]
CALLS_PER_THREAD = 50
SEEDS = range(5)

_rows = []


def _run_row(name: str, threads: int):
    result = detection_experiment(
        name, num_threads=threads, calls_per_thread=CALLS_PER_THREAD, seeds=SEEDS
    )
    _rows.append(result)
    return result


@pytest.mark.parametrize(
    "name,threads",
    [(name, t) for name, counts in TABLE1_CONFIG for t in counts],
    ids=[f"{name}-t{t}" for name, counts in TABLE1_CONFIG for t in counts],
)
def test_table1_row(benchmark, name, threads):
    result = benchmark.pedantic(
        _run_row, args=(name, threads), rounds=1, iterations=1
    )
    # the bug must be found by at least one mode across the seeds
    assert result.view_detections or result.io_detections
    # view refinement is never slower to detect than I/O on corrupting bugs
    if result.io_mean is not None and result.view_mean is not None:
        if name != "java-vector":
            assert result.view_mean <= result.io_mean * 1.5 + 5


def _render() -> str:
    rows = []
    for result in _rows:
        rows.append([
            result.program,
            result.bug,
            result.num_threads,
            fmt_mean(result.io_mean),
            fmt_mean(result.view_mean),
            f"{result.cpu_ratio:.2f}" if result.cpu_ratio else "-",
        ])
    return render_table(
        "Table 1: time to detection of error "
        f"(avg over {len(list(SEEDS))} seeds, {CALLS_PER_THREAD} calls/thread)",
        ["program", "error", "#threads", "I/O ref (methods)",
         "view ref (methods)", "CPU view/IO"],
        rows,
    )


@pytest.fixture(scope="module", autouse=True)
def _emit_table():
    yield
    if _rows:
        emit("table1_detection", _render())


def main() -> None:
    for name, counts in TABLE1_CONFIG:
        for threads in counts:
            _run_row(name, threads)
    emit("table1_detection", _render())


if __name__ == "__main__":
    main()
