"""Sleep-set schedule reduction: descriptors, the static oracle, and the
reduced exhaustive exploration (serial and parallel)."""

import pytest

from repro.concurrency import (
    Kernel,
    Lock,
    SharedCell,
    explore_exhaustive,
)
from repro.concurrency.reduction import (
    EXIT,
    OTHER,
    PASS,
    ReducedReplayScheduler,
    StaticReducer,
    describe_syscall,
    steps_commute,
)
from repro.harness import ProgramSpec
from repro.lint.effects import analyze_program


# -- synthetic two-operation class -----------------------------------------


class _Pair:
    """Two operations on disjoint cells under disjoint locks."""

    def __init__(self):
        self.a = SharedCell("a", 0)
        self.b = SharedCell("b", 0)
        self.lock_a = Lock("la")
        self.lock_b = Lock("lb")

    def op_a(self, ctx):
        yield self.lock_a.acquire()
        value = yield self.a.read()
        yield self.a.write(value + 1, commit=True)
        yield self.lock_a.release()
        return value

    def op_b(self, ctx):
        yield self.lock_b.acquire()
        value = yield self.b.read()
        yield self.b.write(value + 1, commit=True)
        yield self.lock_b.release()
        return value


def _disjoint_program(scheduler):
    obj = _Pair()

    def worker_a(ctx):
        yield from obj.op_a(ctx)

    def worker_b(ctx):
        yield from obj.op_b(ctx)

    kernel = Kernel(scheduler=scheduler)
    kernel.spawn(worker_a, name="a")
    kernel.spawn(worker_b, name="b")
    kernel.run()
    return (obj.a.peek(), obj.b.peek())


def _racy_program(scheduler):
    """Two unsynchronized increments on one cell; outcomes {1, 2}."""
    cell = SharedCell("c", 0)

    def body(ctx):
        value = yield cell.read()
        yield cell.write(value + 1)

    kernel = Kernel(scheduler=scheduler)
    kernel.spawn(body, name="a")
    kernel.spawn(body, name="b")
    kernel.run()
    return cell.peek()


_IND = StaticReducer(
    matrix={
        ("op_a", "op_a"): "dependent",
        ("op_a", "op_b"): "independent",
        ("op_b", "op_b"): "dependent",
    },
    operations=("op_a", "op_b"),
)
_EMPTY = StaticReducer({}, ())


# -- descriptors -----------------------------------------------------------


def test_describe_syscall_classifies_shared_effects():
    cell = SharedCell("c", 0)
    lock = Lock("l")
    assert describe_syscall(cell.read()) == ("read", "c")
    assert describe_syscall(cell.write(1)) == ("write", "c", False)
    assert describe_syscall(cell.write(1, commit=True)) == ("write", "c", True)
    assert describe_syscall(lock.acquire()) == ("lock", "l", False)
    assert describe_syscall(lock.release()) == ("lock", "l", False)
    assert describe_syscall(lock.release(commit=True)) == ("lock", "l", True)
    assert describe_syscall(object()) == OTHER


def test_steps_commute_rules():
    # commit-carrying steps never commute with each other
    assert not steps_commute(("commit",), ("commit",))
    assert not steps_commute(("write", "c", True), ("commit",))
    assert not steps_commute(("write", "c", True), ("lock", "l", True))
    # a commit has no memory effect against non-commit steps
    assert steps_commute(("commit",), ("read", "c"))
    # locks: same name conflicts, different names and lock-vs-cell commute
    assert not steps_commute(("lock", "l", False), ("lock", "l", False))
    assert steps_commute(("lock", "l", False), ("lock", "m", False))
    assert steps_commute(("lock", "l", False), ("write", "l", False))
    # cells: reads always commute, writes need disjoint cells
    assert steps_commute(("read", "c"), ("read", "c"))
    assert not steps_commute(("write", "c", False), ("read", "c"))
    assert steps_commute(("write", "c", False), ("read", "d"))
    assert not steps_commute(("write", "c", False), ("write", "c", False))


def test_static_reducer_gates_on_matrix_and_opaque():
    reducer = StaticReducer(
        matrix={("x", "y"): "conditional", ("x", "z"): "dependent"},
        operations=("x", "y", "z"),
        opaque=("z",),
    )
    assert reducer.allows("x", "y")
    assert reducer.allows("y", "x")  # order-insensitive
    assert not reducer.allows("x", "z")  # dependent verdict
    assert not reducer.allows("z", "z")  # opaque operation
    assert not reducer.allows("x", "unknown")


def test_reducer_independent_requires_method_and_commutation():
    read_a = ("op_a", ("read", "a"))
    read_b = ("op_b", ("read", "b"))
    assert _IND.independent(read_a, read_b)
    # PASS commutes with anything; EXIT/OTHER with nothing
    assert _IND.independent((None, PASS), ("op_a", ("commit",)))
    assert not _IND.independent((None, EXIT), read_b)
    assert not _IND.independent(read_a, (None, OTHER))
    # steps outside any @operation are opaque
    assert not _IND.independent((None, ("read", "a")), read_b)
    # the matrix is the license: op_a x op_a is dependent even on reads
    assert not _IND.independent(read_a, ("op_a", ("read", "z")))
    # and a license without descriptor commutation is not enough
    assert not _IND.independent(
        ("op_a", ("write", "s", False)), ("op_b", ("write", "s", False))
    )


# -- reduced exhaustive exploration ----------------------------------------


def test_reduced_covers_same_outcomes_with_fewer_runs():
    base = explore_exhaustive(_disjoint_program, max_runs=100_000)
    red = explore_exhaustive(_disjoint_program, max_runs=100_000, reducer=_IND)
    assert base.exhausted and red.exhausted
    assert base.outcomes() == red.outcomes()
    assert red.num_runs < base.num_runs
    assert red.pruned > 0


def test_reduced_accounting_invariant():
    red = explore_exhaustive(_disjoint_program, max_runs=100_000, reducer=_IND)
    assert red.skipped == red.pruned
    assert red.requested == red.num_runs + red.skipped
    payload = red.to_dict()
    assert payload["pruned"] == red.pruned
    assert payload["requested"] == payload["num_runs"] + payload["skipped"]


def test_opaque_reducer_never_prunes():
    """Steps outside any known @operation are dependent with everything,
    so an empty reducer must enumerate the exact unreduced tree."""
    base = explore_exhaustive(_racy_program, max_runs=10_000)
    red = explore_exhaustive(_racy_program, max_runs=10_000, reducer=_EMPTY)
    assert red.num_runs == base.num_runs
    assert red.pruned == 0
    assert red.outcomes() == base.outcomes() == {1, 2}


def test_serial_and_parallel_reduced_agree():
    blinktree = ProgramSpec(
        "blinktree", num_threads=3, calls_per_thread=1, workload_seed=7,
        daemons=False,
    )
    for program, reducer in [
        (_disjoint_program, _IND),
        (blinktree, StaticReducer.from_effects(analyze_program("blinktree"))),
    ]:
        serial = explore_exhaustive(program, max_runs=100_000, reducer=reducer)
        par = explore_exhaustive(
            program, max_runs=100_000, jobs=2, chunk_size=4, reducer=reducer,
        )
        assert serial.exhausted
        assert par.signature() == serial.signature()
        assert par.pruned == serial.pruned
        assert par.requested == par.num_runs + par.skipped


# Workload seeds fix the operation mix (only the schedule varies):
# blinktree 13 gives two lookup+delete threads; multiset-vector 16 gives two
# plain inserts, whose buggy variant (the moved-acquire FindSlot bug) fails
# refinement.  Daemons stay off: their loops make the schedule tree infinite.
@pytest.mark.parametrize("program, buggy, threads, calls, workload_seed", [
    ("blinktree", False, 2, 2, 13),
    ("multiset-vector", True, 2, 1, 16),
])
def test_static_reduction_keeps_hb_orders_and_violations(
    program, buggy, threads, calls, workload_seed
):
    """Sleep-set pruning covers every happens-before order and reports
    every violation of the unreduced enumeration, in >= 5x fewer runs."""
    spec = ProgramSpec(
        program, buggy=buggy, num_threads=threads, calls_per_thread=calls,
        workload_seed=workload_seed, daemons=False, fingerprint=True,
    )
    reducer = StaticReducer.from_effects(analyze_program(program))
    base = explore_exhaustive(spec, max_runs=60_000)
    reduced = explore_exhaustive(spec, max_runs=60_000, reducer=reducer)

    def violations(result):
        return {(type(f.error).__name__, str(f.error)) for f in result.failures}

    assert base.exhausted and reduced.exhausted
    assert reduced.outcomes() == base.outcomes()
    assert violations(reduced) == violations(base)
    assert bool(violations(base)) == buggy
    assert base.num_runs >= 5 * reduced.num_runs


def test_kernel_feeds_steps_to_scheduler_hook():
    scheduler = ReducedReplayScheduler(reducer=_IND)
    _disjoint_program(scheduler)
    # every decision produced exactly one executed step, plus the EXIT
    # notifications for finished threads
    assert scheduler.steps
    descrs = [descr for _, _, descr in scheduler.steps]
    assert descrs.count(EXIT) == 2
    assert ("read", "a") in descrs and ("read", "b") in descrs
    # steps inside the operations are attributed to them
    methods = {m for _, m, d in scheduler.steps if d == ("read", "a")}
    assert methods == {"op_a"}


def test_siblings_inherit_sleep_sets():
    scheduler = ReducedReplayScheduler(reducer=_IND)
    _disjoint_program(scheduler)
    entries, pruned = scheduler.siblings()
    assert entries and pruned == 0  # first run of the tree prunes nothing
    # at least one sibling inherits the explored first step in its sleep set
    assert any(sleep for _, sleep in entries)


def test_explore_program_reduce_validation():
    from repro.harness import explore_program

    with pytest.raises(ValueError):
        explore_program("blinktree", mode="exhaustive", reduce="dynamic")
    with pytest.raises(ValueError):
        explore_program("blinktree", mode="swarm", reduce="static")


def test_explore_program_reduce_static_on_registry_program():
    from repro.harness import explore_program

    kwargs = dict(
        mode="exhaustive", max_runs=2_000, num_threads=2,
        calls_per_thread=1, workload_seed=7, daemons=False,
        fingerprint=True,
    )
    base = explore_program("blinktree", **kwargs)
    red = explore_program("blinktree", reduce="static", **kwargs)
    assert base.exhausted and red.exhausted
    assert red.num_runs < base.num_runs
    assert red.outcomes() == base.outcomes()
    assert not base.failures and not red.failures
