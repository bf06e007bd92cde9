"""Determinism suite: exploration over worker processes matches jobs=1.

Every test compares campaign *signatures* (schedules, outcomes, normalized
errors, exhausted flag) between in-process (``jobs=1``) campaigns and the
same campaigns over a worker pool at several job counts -- pool output
must be bit-identical to in-process output modulo scheduling, which is
what makes the engine trustworthy.

The toy programs live at module level so worker processes can unpickle them
by reference; the suite requires the ``fork`` start method (workers inherit
the loaded test module).
"""

import multiprocessing
from functools import partial

import pytest

from repro.concurrency import Kernel, SharedCell, explore_exhaustive, explore_swarm
from repro.concurrency.parallel import RemoteError, resolve_program
from repro.harness import ProgramSpec

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel exploration tests need fork-start workers",
)

JOBS = (1, 2, 4)


# ---------------------------------------------------------------------------
# Module-level (picklable) toy programs
# ---------------------------------------------------------------------------


def _racy_counter(scheduler):
    """Two unsynchronized increments; final value depends on the schedule."""
    cell = SharedCell("c", 0)

    def body(ctx):
        value = yield cell.read()
        yield cell.write(value + 1)

    kernel = Kernel(scheduler=scheduler)
    kernel.spawn(body, name="a")
    kernel.spawn(body, name="b")
    kernel.run()
    return cell.peek()


def _failing_on_lost_update(scheduler):
    if _racy_counter(scheduler) == 1:
        raise RuntimeError("lost update")
    return 2


def _tree_program(shape, scheduler):
    """One thread per entry of ``shape``, thread ``t`` taking ``shape[t]``
    checkpointed steps; the outcome is the observed interleaving."""
    trace = []

    def worker(label, steps):
        def body(ctx):
            for i in range(steps):
                trace.append((label, i))
                yield ctx.checkpoint()

        return body

    kernel = Kernel(scheduler=scheduler)
    for index, steps in enumerate(shape):
        kernel.spawn(worker(index, steps), name=str(index))
    kernel.run()
    return tuple(trace)


# ---------------------------------------------------------------------------
# Swarm determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("program", ["multiset-vector", "bounded-queue"])
@pytest.mark.parametrize("jobs", JOBS)
def test_parallel_swarm_matches_serial_on_registry_programs(program, jobs):
    spec = ProgramSpec(program, num_threads=2, calls_per_thread=3)
    serial = explore_swarm(spec.resolve_program(), num_runs=8)
    parallel = explore_swarm(spec, num_runs=8, jobs=jobs)
    assert parallel.signature() == serial.signature()
    assert parallel.requested == 8 and parallel.skipped == 0


@pytest.mark.parametrize("jobs", JOBS)
def test_parallel_swarm_matches_serial_with_failures(jobs):
    serial = explore_swarm(_failing_on_lost_update, num_runs=30)
    parallel = explore_swarm(_failing_on_lost_update, num_runs=30, jobs=jobs)
    assert serial.failures  # the racy schedule shows up within 30 seeds
    assert parallel.signature() == serial.signature()
    if jobs > 1:
        revived = parallel.first_failure.error
        assert isinstance(revived, RemoteError)
        assert revived.remote_type == "RuntimeError"


def test_parallel_swarm_stop_on_failure_matches_serial_and_counts():
    serial = explore_swarm(_failing_on_lost_update, num_runs=50, stop_on_failure=True)
    parallel = explore_swarm(
        _failing_on_lost_update, num_runs=50, stop_on_failure=True, jobs=3
    )
    assert parallel.signature() == serial.signature()
    assert [r.schedule for r in parallel.runs] == [r.schedule for r in serial.runs]
    assert parallel.requested == serial.requested == 50
    assert parallel.skipped == serial.skipped == 50 - parallel.num_runs
    assert parallel.skipped > 0
    assert parallel.runs[-1] is parallel.first_failure


# ---------------------------------------------------------------------------
# Exhaustive determinism (frontier sharding vs. serial backtracking DFS)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "program",
    [_racy_counter, partial(_tree_program, (2, 1)), partial(_tree_program, (1, 1, 1))],
    ids=["racy-counter", "tree-2-1", "tree-1-1-1"],
)
@pytest.mark.parametrize("jobs", JOBS)
def test_parallel_exhaustive_matches_serial(program, jobs):
    serial = explore_exhaustive(program, max_runs=5000)
    parallel = explore_exhaustive(program, max_runs=5000, jobs=jobs)
    assert serial.exhausted and parallel.exhausted
    assert parallel.signature() == serial.signature()
    # canonical merge order == serial DFS emission order, run for run
    assert [r.schedule for r in parallel.runs] == [r.schedule for r in serial.runs]


def test_parallel_exhaustive_failures_match_serial():
    serial = explore_exhaustive(_failing_on_lost_update, max_runs=5000)
    parallel = explore_exhaustive(_failing_on_lost_update, max_runs=5000, jobs=2)
    assert serial.failures and serial.exhausted
    assert parallel.signature() == serial.signature()


def test_parallel_exhaustive_stop_on_failure():
    result = explore_exhaustive(
        _failing_on_lost_update, max_runs=5000, stop_on_failure=True, jobs=2
    )
    failure = result.first_failure
    assert failure is not None
    assert not result.exhausted
    assert result.runs[-1] is failure  # canonical order truncates at the failure


def test_parallel_exhaustive_respects_budget():
    result = explore_exhaustive(_racy_counter, max_runs=3, jobs=2, chunk_size=1)
    assert result.num_runs <= 3
    assert not result.exhausted


def test_resolve_program_rejects_non_programs():
    with pytest.raises(TypeError):
        resolve_program(42)


# ---------------------------------------------------------------------------
# Failures over processes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", (1, 2))
def test_check_program_all_schedules_over_processes(jobs):
    result = explore_exhaustive(_failing_on_lost_update, max_runs=5000, jobs=jobs)
    assert result.exhausted
    assert result.failures
    assert result.num_runs > len(result.failures)
    # crash-style failures carry the error, not a refinement outcome dict
    assert all(
        r.error is not None and getattr(r.error, "details", None) is None
        for r in result.failures
    )
