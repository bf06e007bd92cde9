"""Schedule exploration: exhaustive enumeration and swarm testing."""

import gc

from repro.concurrency import (
    Kernel,
    Lock,
    SharedCell,
    explore_exhaustive,
    explore_swarm,
)
from repro.harness import explore_program


def _racy_program(scheduler):
    """Two unsynchronized increments; returns the final counter value."""
    cell = SharedCell("c", 0)

    def body(ctx):
        value = yield cell.read()
        yield cell.write(value + 1)

    kernel = Kernel(scheduler=scheduler)
    kernel.spawn(body, name="a")
    kernel.spawn(body, name="b")
    kernel.run()
    return cell.peek()


def test_exhaustive_finds_both_outcomes():
    result = explore_exhaustive(_racy_program, max_runs=500)
    assert result.exhausted
    assert result.outcomes() == {1, 2}
    assert not result.failures


def test_exhaustive_covers_all_schedules_of_tiny_program():
    """One thread with 2 steps vs one with 1 step: C(3,1) = 3 schedules...
    plus scheduling positions; the enumeration must terminate and visit more
    than one distinct schedule."""

    def program(scheduler):
        trace = []

        def a(ctx):
            trace.append("a1")
            yield ctx.checkpoint()
            trace.append("a2")
            yield ctx.checkpoint()

        def b(ctx):
            trace.append("b1")
            yield ctx.checkpoint()

        kernel = Kernel(scheduler=scheduler)
        kernel.spawn(a)
        kernel.spawn(b)
        kernel.run()
        return tuple(trace)

    result = explore_exhaustive(program, max_runs=1000)
    assert result.exhausted
    # all interleavings of (a1,a2) with b1 preserving program order
    assert result.outcomes() == {
        ("a1", "a2", "b1"),
        ("a1", "b1", "a2"),
        ("b1", "a1", "a2"),
    }


def test_exhaustive_reports_failures():
    def program(scheduler):
        outcome = _racy_program(scheduler)
        if outcome == 1:
            raise AssertionError("lost update")
        return outcome

    result = explore_exhaustive(program, max_runs=500, stop_on_failure=True)
    assert result.first_failure is not None
    assert isinstance(result.first_failure.error, AssertionError)


def test_exhaustive_respects_run_budget():
    result = explore_exhaustive(_racy_program, max_runs=2)
    assert result.num_runs == 2
    assert not result.exhausted


def test_swarm_finds_race():
    result = explore_swarm(_racy_program, num_runs=30)
    assert result.num_runs == 30
    assert result.outcomes() == {1, 2}


def test_swarm_stop_on_failure():
    def program(scheduler):
        if _racy_program(scheduler) == 1:
            raise RuntimeError("found it")

    result = explore_swarm(program, num_runs=100, stop_on_failure=True)
    failure = result.first_failure
    assert failure is not None
    assert result.runs[-1] is failure


def test_swarm_records_requested_and_skipped_counts():
    def program(scheduler):
        if _racy_program(scheduler) == 1:
            raise RuntimeError("found it")

    partial = explore_swarm(program, num_runs=100, stop_on_failure=True)
    assert partial.requested == 100
    assert partial.skipped == 100 - partial.num_runs
    assert partial.skipped > 0

    full = explore_swarm(_racy_program, num_runs=10)
    assert full.requested == 10 and full.skipped == 0

    payload = partial.to_dict()
    assert payload["requested"] == 100
    assert payload["skipped"] == partial.skipped
    assert payload["num_failures"] == 1
    assert payload["failures"][0]["error_type"] == "RuntimeError"


def _cyclic_program_garbage(campaign):
    """Run ``campaign``, drop its result, and count the program objects
    (``SharedCell``s and ``Lock``s) the cyclic collector had to free.

    Returns the campaign's ``(failures, distinct violations)`` and that
    count.  ``DEBUG_SAVEALL`` keeps everything the collector finds
    unreachable in ``gc.garbage`` instead of freeing it.
    """
    gc.collect()
    saved, flags = len(gc.garbage), gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        result = campaign()
        failures = result.failures
        summary = (
            len(failures),
            len({(type(r.error).__name__, str(r.error)) for r in failures}),
        )
        del result, failures
        gc.collect()
        leaked = sum(
            isinstance(obj, (SharedCell, Lock)) for obj in gc.garbage[saved:]
        )
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
    return summary, leaked


def test_failed_runs_do_not_pin_their_program_in_cycles():
    """A recorded failure keeps its type and message but no traceback
    frames, which would hold the run's kernel, program and log and reach
    back to the record: a reference cycle per failed run."""
    (failures, violations), leaked = _cyclic_program_garbage(
        lambda: explore_program(
            "multiset-vector", mode="exhaustive", reduce="static", buggy=True,
            num_threads=2, calls_per_thread=1, workload_seed=16,
            daemons=False, jobs=1,
        )
    )
    assert violations == 6 and failures >= violations
    assert leaked == 0
    (failures, _), leaked = _cyclic_program_garbage(
        lambda: explore_program(
            "blinktree", buggy=True, stop_on_failure=True, num_runs=100_000,
            num_threads=3, calls_per_thread=6, jobs=1,
        )
    )
    assert failures >= 1
    assert leaked == 0
