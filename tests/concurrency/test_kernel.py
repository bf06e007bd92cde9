"""Kernel semantics: spawning, scheduling, atomicity, daemons, failures."""

import gc
import hashlib
import json
import random

import pytest

from repro.concurrency import (
    Condition,
    DeadlockError,
    Kernel,
    KernelStopped,
    Lock,
    RandomScheduler,
    RoundRobinScheduler,
    RWLock,
    SharedCell,
    SimThreadError,
    Status,
    StepLimitExceeded,
    run_threads,
)
from repro.concurrency.kernel import (
    _HANDLERS,
    AcquireSys,
    BeginCommitBlockSys,
    CommitSys,
    CondNotifySys,
    CondWaitSys,
    EndCommitBlockSys,
    JoinSys,
    Pass,
    ReadSys,
    ReleaseSys,
    ReplaySys,
    RWBeginReadSys,
    RWBeginWriteSys,
    RWEndReadSys,
    RWEndWriteSys,
    Syscall,
    WriteSys,
)
from repro.concurrency.reduction import describe_syscall
from repro.harness import run_program
from repro.harness.runner import explore_program
from repro.harness.workload import PROGRAMS


def test_single_thread_runs_to_completion():
    cell = SharedCell("c", 0)

    def body(ctx):
        value = yield cell.read()
        yield cell.write(value + 41)
        return "done"

    kernel = Kernel(seed=0)
    thread = kernel.spawn(body)
    kernel.run()
    assert thread.status is Status.DONE
    assert thread.result == "done"
    assert cell.peek() == 41


def test_thread_body_must_be_generator():
    kernel = Kernel()
    with pytest.raises(TypeError):
        kernel.spawn(lambda ctx: 42)


def test_code_between_yields_is_atomic():
    """Code between two yields of one thread runs with no interleaving, so a
    read-modify-write expressed without an intervening yield never loses an
    update.  (Note that ``value = yield cell.read()`` delivers the value at
    the *next* resumption -- using it later is a stale read by design.)"""
    cell = SharedCell("c", 0)

    def body(ctx):
        for _ in range(50):
            yield ctx.checkpoint()
            cell.poke(cell.peek() + 1)  # entirely within one step: atomic

    kernel = run_threads([body, body], seed=7)
    assert cell.peek() == 100
    assert kernel.steps > 0


def test_interleaved_read_write_can_lose_updates():
    """With a yield between read and write, lost updates become possible
    under some schedule (the reason shared accesses are preemption points)."""
    lost = False
    for seed in range(20):
        cell = SharedCell("c", 0)

        def body(ctx):
            for _ in range(5):
                value = yield cell.read()
                yield cell.write(value + 1)

        run_threads([body, body], seed=seed)
        if cell.peek() < 10:
            lost = True
            break
    assert lost, "expected at least one seed to exhibit a lost update"


def test_same_seed_same_interleaving():
    def make_program():
        cell = SharedCell("c", 0)

        def body(ctx):
            for _ in range(10):
                value = yield cell.read()
                yield cell.write(value + 1)

        return cell, [body, body, body]

    results = []
    for _ in range(3):
        cell, bodies = make_program()
        run_threads(bodies, seed=42)
        results.append(cell.peek())
    assert len(set(results)) == 1


def test_different_seeds_reach_different_interleavings():
    outcomes = set()
    for seed in range(30):
        cell = SharedCell("c", 0)

        def body(ctx):
            value = yield cell.read()
            yield cell.write(value + 1)

        run_threads([body, body, body], seed=seed)
        outcomes.add(cell.peek())
    assert len(outcomes) > 1


def test_daemon_does_not_block_completion():
    ticks = []

    def daemon(ctx):
        try:
            while True:
                yield ctx.checkpoint()
                ticks.append(1)
        except KernelStopped:
            ticks.append("stopped")
            raise

    def app(ctx):
        for _ in range(5):
            yield ctx.checkpoint()

    kernel = Kernel(seed=3)
    kernel.spawn(daemon, daemon=True)
    kernel.spawn(app)
    kernel.run()
    assert ticks  # the daemon ran
    assert ticks[-1] == "stopped"  # and was shut down cleanly


def test_join_returns_result():
    def child(ctx):
        yield ctx.checkpoint()
        return 99

    collected = []

    def parent(ctx):
        thread = ctx.spawn(child)
        result = yield ctx.join(thread)
        collected.append(result)

    kernel = Kernel(seed=1)
    kernel.spawn(parent)
    kernel.run()
    assert collected == [99]


def test_join_finished_thread_is_immediate():
    def child(ctx):
        return 7
        yield  # pragma: no cover

    def parent(ctx):
        thread = ctx.spawn(child)
        yield ctx.checkpoint()
        yield ctx.checkpoint()
        result = yield ctx.join(thread)
        return result

    kernel = Kernel(scheduler=RoundRobinScheduler())
    parent_thread = kernel.spawn(parent)
    kernel.run()
    assert parent_thread.result == 7


def test_deadlock_detection():
    a, b = Lock("a"), Lock("b")

    def t1(ctx):
        yield a.acquire()
        yield ctx.checkpoint()
        yield b.acquire()

    def t2(ctx):
        yield b.acquire()
        yield ctx.checkpoint()
        yield a.acquire()

    with pytest.raises(DeadlockError) as excinfo:
        run_threads([t1, t2], scheduler=RoundRobinScheduler())
    assert len(excinfo.value.blocked) == 2


def test_crashing_thread_raises_sim_thread_error():
    def body(ctx):
        yield ctx.checkpoint()
        raise ValueError("boom")

    with pytest.raises(SimThreadError) as excinfo:
        run_threads([body])
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_step_limit():
    def spinner(ctx):
        while True:
            yield ctx.checkpoint()

    kernel = Kernel(seed=0, max_steps=100)
    kernel.spawn(spinner)
    with pytest.raises(StepLimitExceeded):
        kernel.run()
    assert kernel.steps == 100


def test_non_syscall_yield_is_rejected():
    def body(ctx):
        yield "not a syscall"

    with pytest.raises(SimThreadError) as excinfo:
        run_threads([body])
    assert isinstance(excinfo.value.__cause__, TypeError)


def test_run_not_reentrant():
    kernel = Kernel()

    def body(ctx):
        with pytest.raises(RuntimeError):
            kernel.run()
        yield ctx.checkpoint()

    kernel.spawn(body)
    kernel.run()


def test_kernel_can_run_again_after_completion():
    cell = SharedCell("c", 0)

    def body(ctx):
        value = yield cell.read()
        yield cell.write(value + 1)

    kernel = Kernel(seed=0)
    kernel.spawn(body)
    kernel.run()
    kernel.spawn(body)
    kernel.run()
    assert cell.peek() == 2


def test_syscall_subclass_dispatches_like_its_base():
    class TaggedRead(ReadSys):
        __slots__ = ()

    cell = SharedCell("c", 5)
    seen = []

    def body(ctx):
        seen.append((yield TaggedRead(cell)))

    run_threads([body])
    assert seen == [5]


def _syscall_samples():
    """One ``(type, args)`` per syscall type, over real primitives."""
    cell, lock, rwlock = SharedCell("c", 0), Lock("l"), RWLock("rw")
    cond = Condition(lock, "cv")
    thread = Kernel().spawn(lambda ctx: (yield ctx.checkpoint()))
    samples = [
        (Pass, ()), (ReadSys, (cell,)), (WriteSys, (cell, 1, True)),
        (AcquireSys, (lock,)), (ReleaseSys, (lock, True)),
        (RWBeginReadSys, (rwlock,)), (RWEndReadSys, (rwlock,)),
        (RWBeginWriteSys, (rwlock,)), (RWEndWriteSys, (rwlock, True)),
        (CommitSys, ()), (BeginCommitBlockSys, ()),
        (EndCommitBlockSys, (True,)), (ReplaySys, ("tag", (1, 2), True)),
        (JoinSys, (thread,)), (CondWaitSys, (cond,)), (CondNotifySys, (cond, -1)),
    ]
    assert [cls for cls, _ in samples] == list(_HANDLERS)
    return samples


def test_syscalls_are_slotted():
    """A syscall is built on nearly every kernel step, so it carries no
    per-instance ``__dict__``."""
    assert "__slots__" in vars(Syscall)
    for cls, args in _syscall_samples():
        assert "__slots__" in vars(cls), cls.__name__
        assert not hasattr(cls(*args), "__dict__"), cls.__name__


def test_context_syscalls_are_shared_constants():
    """The four context syscalls carry no program object, so every thread
    yields one shared object for each."""
    made = []

    def body(ctx):
        made.append((
            ctx.checkpoint(), ctx.commit(), ctx.begin_commit_block(),
            ctx.end_commit_block(), ctx.end_commit_block(commit=True),
        ))
        yield ctx.checkpoint()

    run_threads([body, body])
    first, second = made
    assert all(a is b for a, b in zip(first, second))
    checkpoint, commit, begin, end, end_commit = first
    assert type(checkpoint) is Pass and type(commit) is CommitSys
    assert type(begin) is BeginCommitBlockSys
    assert type(end) is type(end_commit) is EndCommitBlockSys
    assert (end.commit, end_commit.commit) == (False, True)


def test_syscall_subclass_describes_like_its_base():
    """Schedule reduction sees a syscall subclass as its base type."""
    for cls, args in _syscall_samples():
        sub = type(f"Tagged{cls.__name__}", (cls,), {"__slots__": ()})
        assert describe_syscall(sub(*args)) == describe_syscall(cls(*args))


def test_syscall_repr_names_its_fields():
    cell = SharedCell("c", 0)
    assert repr(Pass()) == "Pass()"
    assert repr(WriteSys(cell, 3)) == (
        f"WriteSys(cell={cell!r}, value=3, commit=False)"
    )

    class TaggedRelease(ReleaseSys):
        __slots__ = ()

    lock = Lock("l")
    assert repr(TaggedRelease(lock, commit=True)) == (
        f"TaggedRelease(lock={lock!r}, commit=True)"
    )


def _cyclic_garbage(work) -> int:
    """Run ``work()`` and count the objects the cyclic collector then
    finds unreachable (``DEBUG_SAVEALL`` keeps them in ``gc.garbage``)."""
    gc.collect()
    saved, flags = len(gc.garbage), gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return len(gc.garbage) - saved
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_clean_runs_leave_nothing_for_the_cyclic_collector(program):
    """No syscall is cached on a cell, lock or condition: one that was
    would refer back to its primitive, a cycle left behind by every run."""

    def work():
        result = run_program(program, num_threads=3, calls_per_thread=8)
        assert result.kernel.steps > 0

    assert _cyclic_garbage(work) == 0


def test_clean_swarm_leaves_nothing_for_the_cyclic_collector():
    def work():
        result = explore_program("blinktree", num_runs=20, jobs=1)
        assert len(result.runs) == 20 and not result.failures

    assert _cyclic_garbage(work) == 0


def test_scheduler_sees_only_ready_threads_in_tid_order():
    """The runnable tuple is cached between status changes; every pick must
    still see exactly the READY threads, in tid order."""
    lock = Lock("l")
    checked = []

    class Checking(RandomScheduler):
        def pick(self, runnable, step):
            assert isinstance(runnable, tuple)
            assert list(runnable) == [
                t for t in kernel.threads if t.status is Status.READY
            ]
            checked.append(step)
            return super().pick(runnable, step)

    def child(ctx):
        yield ctx.checkpoint()
        return ctx.tid

    def body(ctx):
        for _ in range(3):
            yield lock.acquire()
            yield ctx.checkpoint()
            yield lock.release()
        thread = ctx.spawn(child)
        yield ctx.join(thread)

    kernel = Kernel(scheduler=Checking(5))
    for _ in range(3):
        kernel.spawn(body)
    kernel.run()
    assert len(checked) == kernel.steps


def test_app_thread_spawned_by_daemon_keeps_the_kernel_running():
    done = []

    def worker(ctx):
        for _ in range(3):
            yield ctx.checkpoint()
        done.append(ctx.tid)

    def daemon(ctx):
        ctx.spawn(worker)
        while True:
            yield ctx.checkpoint()

    def app(ctx):
        yield ctx.checkpoint()

    kernel = Kernel(scheduler=RoundRobinScheduler())
    kernel.spawn(app)
    kernel.spawn(daemon, daemon=True)
    kernel.run()
    assert done == [2]


def test_random_scheduler_draws_like_random_choice():
    """``RandomScheduler.pick`` inlines ``Random.choice``: same PRNG stream,
    same picks, for every runnable-tuple length the kernel can hand it."""
    for seed in (0, 1, 2024):
        scheduler = RandomScheduler(seed)
        reference = random.Random(seed)
        for draw in range(10_000):
            runnable = tuple(range(1 + draw % 12))
            assert scheduler.pick(runnable, draw) == reference.choice(runnable)


#: (program, seed) -> (SHA-256 of the JSON list of (record type, tid, op_id)
#: over the log, kernel.steps) for a 3-thread x 8-call run, as recorded
#: before the kernel's scheduling loop was rewritten.  No pickle bytes are
#: involved, so the values hold on every Python version.
GOLDEN_SCHEDULES = {
    ("multiset-vector", 0): (
        "9863eb30170b1cf351d959b80dea6ac15c9bbb06e1a37d7f07b9f6fcb1fe127b", 3082),
    ("multiset-vector", 1): (
        "151e1424a0e82edfb350d352da439d1ca24deff96794744e3646b0b29b833145", 3040),
    ("blinktree", 0): (
        "81dba4fd5a30786ca22258445496f34e68ae48db5cf62eeb18dd7ceca260c295", 249),
    ("blinktree", 1): (
        "cfc418bbeeb6f4f76fb54aa58d4ee89b880a5b0ba96420952b32d1174eaa69dd", 226),
    ("cache", 0): (
        "d0a92599830ede2b47f5081ba6e3563a7d7b10c851066e1cb61091570f2b5473", 513),
    ("cache", 1): (
        "f31a39e04577d34f411015804230a8ea1324ee1b4486fccc292dda4ea06bac6a", 481),
    ("bounded-queue", 0): (
        "5320f5cbead84aa0bc0b6ebc4da8cc401c131ae782e3dbe1e527bf908f62b7ad", 184),
    ("bounded-queue", 1): (
        "b24346d3ed7a039108d0ccdf70c38f56ee4a79e494158652e8dc773ac6a7e0ef", 166),
}


@pytest.mark.parametrize("program,seed", sorted(GOLDEN_SCHEDULES))
def test_schedules_match_golden(program, seed):
    result = run_program(program, num_threads=3, calls_per_thread=8, seed=seed)
    triples = [(type(a).__name__, a.tid, a.op_id) for a in result.log]
    digest = hashlib.sha256(json.dumps(triples).encode()).hexdigest()
    assert (digest, result.kernel.steps) == GOLDEN_SCHEDULES[(program, seed)]
