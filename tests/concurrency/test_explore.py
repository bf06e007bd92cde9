"""Schedule exploration: exhaustive enumeration and swarm testing."""

import gc
import hashlib
import json
import tracemalloc

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


def _deep_program(scheduler):
    """Three threads of 300 checkpoints each: a schedule tree 900 deep."""

    def body(ctx):
        for _ in range(300):
            yield ctx.checkpoint()

    kernel = Kernel(scheduler=scheduler)
    for name in "abc":
        kernel.spawn(body, name=name)
    kernel.run()


def _frontier_transient(max_runs):
    """Peak minus current traced memory of a campaign, its result alive:
    what the frontier held beyond the runs it returned."""
    tracemalloc.start()
    try:
        result = explore_exhaustive(_deep_program, max_runs=max_runs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.num_runs == max_runs and not result.exhausted
    return peak - current


def test_frontier_memory_does_not_grow_with_the_run_count():
    """Unreduced exhaustion at jobs=1 backtracks over the last run's trace,
    so its pending work stays proportional to the tree depth, not to the
    number of runs taken."""
    few, many = _frontier_transient(5), _frontier_transient(200)
    assert many < 2 * few, (few, many)


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


def _campaign_digest(result):
    """SHA-256 over a campaign's signature and accounting, as canonical JSON."""
    payload = {
        "signature": result.signature(),
        "requested": result.requested,
        "skipped": result.skipped,
        "pruned": result.pruned,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


#: Reduced exhaustion of the four schedule-reduction configs:
#: (program, buggy, threads, calls, workload_seed) -> (num_runs, pruned, digest).
GOLDEN_REDUCED = {
    ("blinktree", False, 2, 2, 13): (
        14, 32,
        "0034fe6e1fc295a23b1e5a3536ec208739fb2afa070caafe28e7ba4487bba879",
    ),
    ("multiset-vector", True, 2, 1, 16): (
        258, 81,
        "7c2db928311cafe402582845bd8f26984d148ccdea7439bb517a0dc7e3b86c95",
    ),
    ("blinktree", False, 3, 1, 7): (
        108, 55,
        "6ce67584418e90158d7290d3552442da2aa3eb21284dceda1981a49721a8e15a",
    ),
    ("multiset-vector", False, 2, 1, 16): (
        273, 245,
        "2ce89e5ede76cf1ce7c724d50c3c57dbd6701fc2bcf7b1d297a1aec5be1d5196",
    ),
}
#: First failing decision vector of buggy multiset-vector 2x1 ws16.
GOLDEN_FIRST_VIOLATION = [0, 0, 1] + [0] * 13


def test_golden_campaigns_are_pinned():
    """Pin the runs, accounting and order of representative campaigns.

    Any change to which schedules a campaign runs, in which order, or how
    it counts them changes a digest here.  The digests hash canonical JSON,
    not pickle bytes, so they hold on every supported Python.
    """
    exhaustive = dict(mode="exhaustive", daemons=False, fingerprint=True,
                      jobs=1, max_runs=60_000)
    for (program, buggy, threads, calls, seed), golden in GOLDEN_REDUCED.items():
        result = explore_program(
            program, reduce="static", buggy=buggy, num_threads=threads,
            calls_per_thread=calls, workload_seed=seed, **exhaustive,
        )
        assert result.exhausted
        assert (result.num_runs, result.pruned, _campaign_digest(result)) == golden

    # a binding budget pins which DFS prefix of the tree gets visited
    budget = explore_program(
        "blinktree", num_threads=2, calls_per_thread=2, workload_seed=13,
        **dict(exhaustive, max_runs=200),
    )
    assert not budget.exhausted
    assert budget.num_runs == 200
    assert budget.runs[-1].schedule == [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0]
    assert _campaign_digest(budget) == (
        "fdde5825182aeb7b5ac4ce5aeb50c21c32aaad29f3b6c0ca77d44caeff6a5611"
    )

    # stop_on_failure ends at the first failure in lexicographic order
    stops = {
        None: (
            2003,
            "32f11951649172701c7334b6f3e6988b063f6fe2502319166ce75fc65b7efdbf",
        ),
        "static": (
            19,
            "ff9eb02c74bd554414ba939ccae2c5fd1e29a83ee1893ade25145f8bca38050b",
        ),
    }
    for reduce, (num_runs, digest) in stops.items():
        stopped = explore_program(
            "multiset-vector", reduce=reduce, buggy=True, num_threads=2,
            calls_per_thread=1, workload_seed=16, stop_on_failure=True,
            **exhaustive,
        )
        assert stopped.first_failure.schedule == GOLDEN_FIRST_VIOLATION
        assert stopped.runs[-1] is stopped.first_failure
        assert (stopped.num_runs, _campaign_digest(stopped)) == (num_runs, digest)

    swarm = explore_program(
        "blinktree", num_runs=50, num_threads=3, calls_per_thread=6, jobs=1
    )
    assert swarm.num_runs == 50 and swarm.first_failure is None
    assert _campaign_digest(swarm) == (
        "5b4633f4d9fb6f77156d938e4ea56f85cac2fb5c6bd701a8dcb361de5aceb866"
    )
    detect = explore_program(
        "blinktree", buggy=True, stop_on_failure=True, num_runs=100_000,
        num_threads=3, calls_per_thread=6, jobs=1,
    )
    assert (detect.num_runs, detect.first_failure.schedule) == (20, 19)
    assert _campaign_digest(detect) == (
        "744d051f2862bb9a64285a0ca9a2b95f0adb0ac875938d266bfacac9974f4042"
    )
