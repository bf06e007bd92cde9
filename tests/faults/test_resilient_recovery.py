"""Injected worker faults against the resilient parallel explorers.

The contract under test is the tentpole acceptance criterion: a campaign
that survives injected crashes and hangs must produce a
:meth:`ExplorationResult.signature` **bit-identical** to the fault-free
serial run, with the incident trail on ``interruptions``; a schedule that
can never complete must surface as a diagnosable
:class:`ExplorationTimeout` run record instead of wedging the campaign.
"""

import multiprocessing

import pytest

from repro.concurrency import Kernel, SharedCell, explore_exhaustive, explore_swarm
from repro.concurrency.parallel import ExplorationTimeout
from repro.faults import CRASH, HANG, Fault, FaultPlan, TaskFaults
from repro.harness import ProgramSpec

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injection tests need fork-start workers",
)

SPEC = ProgramSpec("multiset-vector", num_threads=2, calls_per_thread=3)


def _racy_counter(scheduler):
    """Two unsynchronized increments (picklable toy with a small schedule
    tree, so exhaustive campaigns finish quickly)."""
    cell = SharedCell("c", 0)

    def body(ctx):
        value = yield cell.read()
        yield cell.write(value + 1)

    kernel = Kernel(scheduler=scheduler)
    kernel.spawn(body, name="a")
    kernel.spawn(body, name="b")
    kernel.run()
    return cell.peek()


class HangEveryAttempt:
    """Plan-shaped injector that hangs one serial on *every* attempt.

    ``FaultPlan`` deliberately only targets first attempts; exhausting the
    retry budget needs a fault that survives retries, which this fixture
    provides (the explorers only require ``task_faults`` duck-typing).
    """

    def __init__(self, serial, seconds=30.0):
        self.serial = serial
        self.seconds = seconds

    def task_faults(self, serial, attempt):
        if serial == self.serial:
            return TaskFaults(Fault(HANG, task=serial, seconds=self.seconds))
        return None


@pytest.fixture(scope="module")
def serial_swarm():
    return explore_swarm(SPEC, num_runs=12, jobs=1)


def test_crash_recovery_is_signature_identical(serial_swarm):
    plan = FaultPlan(seed=1, faults=(Fault(CRASH, task=1),))
    result = explore_swarm(
        SPEC, num_runs=12, jobs=2, faults=plan,
        timeout=10.0, max_retries=2, backoff_base=0.01,
    )
    assert result.signature() == serial_swarm.signature()
    kinds = {event["kind"] for event in result.interruptions}
    assert "pool_broken" in kinds and "retry" in kinds


def test_hang_recovery_via_watchdog(serial_swarm):
    plan = FaultPlan(seed=2, faults=(Fault(HANG, task=2, seconds=30.0),))
    result = explore_swarm(
        SPEC, num_runs=12, jobs=2, faults=plan,
        timeout=1.5, max_retries=2, backoff_base=0.01,
    )
    assert result.signature() == serial_swarm.signature()
    kinds = {event["kind"] for event in result.interruptions}
    assert "timeout" in kinds and "retry" in kinds


def test_crash_and_hang_together(serial_swarm):
    plan = FaultPlan(seed=3, faults=(Fault(CRASH, task=0),
                                     Fault(HANG, task=3, seconds=30.0)))
    result = explore_swarm(
        SPEC, num_runs=12, jobs=2, faults=plan,
        timeout=1.5, max_retries=2, backoff_base=0.01,
    )
    assert result.signature() == serial_swarm.signature()
    assert result.interruptions  # something was survived, and recorded


def test_terminal_hang_becomes_exploration_timeout():
    result = explore_swarm(
        SPEC, num_runs=2, jobs=2, chunk_size=1,
        faults=HangEveryAttempt(0), timeout=0.7, max_retries=1,
        backoff_base=0.01,
    )
    # every requested schedule is accounted for; the stuck one failed
    assert result.num_runs == 2
    timeouts = [r for r in result.runs
                if isinstance(r.error, ExplorationTimeout)]
    assert len(timeouts) == 1
    record = timeouts[0]
    assert record.schedule == 0  # the replay handle survives
    assert record.error.attempts == 2
    kinds = {event["kind"] for event in result.interruptions}
    assert "gave_up" in kinds
    # the healthy schedule still completed normally
    assert any(not r.failed for r in result.runs)


def test_split_isolation_rescues_the_healthy_majority(serial_swarm):
    # Hang one *chunk* serial on every attempt: the pool splits the chunk
    # into singletons (fresh serials -> no longer targeted), so every seed
    # still completes and the signature stays serial-identical.
    result = explore_swarm(
        SPEC, num_runs=12, jobs=2, faults=HangEveryAttempt(1),
        timeout=0.7, max_retries=1, backoff_base=0.01,
    )
    assert result.signature() == serial_swarm.signature()
    kinds = {event["kind"] for event in result.interruptions}
    assert "split" in kinds


def test_exhaustive_crash_recovery_matches_serial():
    serial = explore_exhaustive(_racy_counter, max_runs=5000, jobs=1)
    assert serial.exhausted
    plan = FaultPlan(seed=4, faults=(Fault(CRASH, task=1),))
    faulted = explore_exhaustive(
        _racy_counter, max_runs=5000, jobs=2, chunk_size=4, faults=plan,
        timeout=10.0, max_retries=2, backoff_base=0.01,
    )
    assert faulted.exhausted
    assert faulted.signature() == serial.signature()
    assert any(e["kind"] == "pool_broken" for e in faulted.interruptions)


def test_exhaustive_terminal_hang_marks_non_exhausted():
    result = explore_exhaustive(
        _racy_counter, max_runs=5000, jobs=2, chunk_size=4,
        faults=HangEveryAttempt(0), timeout=0.7, max_retries=0,
        backoff_base=0.01,
    )
    timeouts = [r for r in result.runs
                if isinstance(r.error, ExplorationTimeout)]
    assert timeouts
    # an abandoned prefix means an unenumerated subtree
    assert not result.exhausted


def test_interruptions_do_not_change_signature(serial_swarm):
    # signature() must ignore the incident trail: equal runs, equal digest
    plan = FaultPlan(seed=1, faults=(Fault(CRASH, task=1),))
    faulted = explore_swarm(
        SPEC, num_runs=12, jobs=2, faults=plan,
        timeout=10.0, max_retries=2, backoff_base=0.01,
    )
    assert faulted.interruptions != serial_swarm.interruptions
    assert faulted.signature() == serial_swarm.signature()
    # ...but to_dict() keeps them, for reporting
    assert faulted.to_dict()["interruptions"]
