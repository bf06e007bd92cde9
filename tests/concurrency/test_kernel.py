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
    BeginCommitBlockSys,
    CommitSys,
    CondNotifySys,
    CondWaitSys,
    EndCommitBlockSys,
    JoinSys,
    Pass,
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
    class TaggedCell(SharedCell):
        __slots__ = ()

    cell = TaggedCell("c", 5)
    seen = []

    def body(ctx):
        seen.append((yield cell.read()))

    run_threads([body])
    assert seen == [5]


def _syscall_samples():
    """One ``(type, args)`` per syscall type, over real primitives (a
    cell is its own read syscall and a lock its own acquire)."""
    cell, lock, rwlock = SharedCell("c", 0), Lock("l"), RWLock("rw")
    cond = Condition(lock, "cv")
    thread = Kernel().spawn(lambda ctx: (yield ctx.checkpoint()))
    samples = [
        (Pass, ()), (WriteSys, (cell, 1, True)), (ReleaseSys, (lock, True)),
        (RWBeginReadSys, (rwlock,)), (RWEndReadSys, (rwlock,)),
        (RWBeginWriteSys, (rwlock,)), (RWEndWriteSys, (rwlock, True)),
        (CommitSys, ()), (BeginCommitBlockSys, ()),
        (EndCommitBlockSys, (True,)), (ReplaySys, ("tag", (1, 2), True)),
        (JoinSys, (thread,)), (CondWaitSys, (cond,)), (CondNotifySys, (cond, -1)),
        (SharedCell, ("c", 0)), (Lock, ("l",)),
    ]
    assert [cls for cls, _ in samples] == list(_HANDLERS)
    return samples


def test_syscalls_are_slotted():
    """A syscall is yielded on every kernel step, so it carries no
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


#: (program, buggy, seed, locks and reads logged) -> (SHA-256 of the JSON
#: list of (record type, tid, op_id) over the log, kernel.steps) for a
#: 3-thread x 8-call run of every registry program, recorded while a read
#: and an acquire each still built a syscall object and every lock and read
#: event still reached the tracer.  The correct, default-level entries of
#: four programs repeat ``GOLDEN_SCHEDULES``.
GOLDEN_SCHEDULES_EVERY_PROGRAM = {
    ("blinktree", False, 0, False): (
        "81dba4fd5a30786ca22258445496f34e68ae48db5cf62eeb18dd7ceca260c295", 249),
    ("blinktree", False, 0, True): (
        "7e31df26d880752d190a4f8e72a7b71b89488044c77d4857509ecd126fd9f9c1", 249),
    ("blinktree", False, 1, False): (
        "cfc418bbeeb6f4f76fb54aa58d4ee89b880a5b0ba96420952b32d1174eaa69dd", 226),
    ("blinktree", False, 1, True): (
        "903e31bf8d4e1462c404426a4e063a0d92591b1f58391d2bbb50bcf1f201811c", 226),
    ("blinktree", True, 0, False): (
        "81dba4fd5a30786ca22258445496f34e68ae48db5cf62eeb18dd7ceca260c295", 249),
    ("blinktree", True, 0, True): (
        "7e31df26d880752d190a4f8e72a7b71b89488044c77d4857509ecd126fd9f9c1", 249),
    ("blinktree", True, 1, False): (
        "254fb075369bec4e56189d2d11bc0ebcd60a91677509c9ef3e0afc6b3f19eb84", 216),
    ("blinktree", True, 1, True): (
        "a1b6e0ba2d2753c321c48d9f76a9a8e239e10c013d4ad6060c174800ed0b3d7f", 216),
    ("bounded-queue", False, 0, False): (
        "5320f5cbead84aa0bc0b6ebc4da8cc401c131ae782e3dbe1e527bf908f62b7ad", 184),
    ("bounded-queue", False, 0, True): (
        "af6ca4e39b5a88cf03f1aa1c42c343c2a9fd5878ddec61ddae7e2ec95831aa5f", 184),
    ("bounded-queue", False, 1, False): (
        "b24346d3ed7a039108d0ccdf70c38f56ee4a79e494158652e8dc773ac6a7e0ef", 166),
    ("bounded-queue", False, 1, True): (
        "9f5ab5c9efb9f090c31b1758de607e93557ad12b376a2800320218b140558b69", 166),
    ("bounded-queue", True, 0, False): (
        "78dd823dd459bb53b59cb603d74cdec4a362178dc156d554e526bec60d97ab78", 253),
    ("bounded-queue", True, 0, True): (
        "8cf11b5d8a6ea924c0fa91f3f0edcd10e3af507e5afb8113d8afb5c8c28dd22e", 253),
    ("bounded-queue", True, 1, False): (
        "4c9189847365552495c79e103ba3e3aa832f9a77dfac515636e598b8f2ef7add", 184),
    ("bounded-queue", True, 1, True): (
        "53a67a6e25834c8c97c0eb94a07374c84e05557e1aca6e2d6f7e87a71fbed7cb", 184),
    ("cache", False, 0, False): (
        "d0a92599830ede2b47f5081ba6e3563a7d7b10c851066e1cb61091570f2b5473", 513),
    ("cache", False, 0, True): (
        "b1cf147ead9d280f00ff00c490c053e33b1db0a6e6958ade68e1be30b6d7df92", 513),
    ("cache", False, 1, False): (
        "f31a39e04577d34f411015804230a8ea1324ee1b4486fccc292dda4ea06bac6a", 481),
    ("cache", False, 1, True): (
        "efc64f0e831ae21220640d0b110a1200846885211c6711c53b2b7e91c5b61795", 481),
    ("cache", True, 0, False): (
        "5ca5409406518882ef618fc8326ceb0b4609a26d79fc6ee01f77b6c70ef236ec", 455),
    ("cache", True, 0, True): (
        "a535fbe3d2d52574758092ec0cff53ee3bf1f950b18ec5dffa4f7cfbb7927beb", 455),
    ("cache", True, 1, False): (
        "f31a39e04577d34f411015804230a8ea1324ee1b4486fccc292dda4ea06bac6a", 478),
    ("cache", True, 1, True): (
        "f60713ed9f88163a4a9a3e276ac6216bd6af3c6578b83786ca18ab582617794c", 478),
    ("java-vector", False, 0, False): (
        "ebaeb0ecd17179e782cd8876d103a65334adf0db1a7c750295c4bcf52ea8ad44", 119),
    ("java-vector", False, 0, True): (
        "c98a0d8682d439d39fbada07308521b9b3bceead3d0fb187c5ff1fe1e5ada16d", 119),
    ("java-vector", False, 1, False): (
        "ff1c25353939e1df34aa3f61387c2878ada3fbb84129f7150b5240f88c59a865", 100),
    ("java-vector", False, 1, True): (
        "38e92390571b6f796c74b1812d602bcdfe2eb0698fb20f4d731cedbab77f7da1", 100),
    ("java-vector", True, 0, False): (
        "08f462c4903c2b35d88fda65e99d1368410755aa2944a4cf54fc68bec8a96f19", 126),
    ("java-vector", True, 0, True): (
        "0c76ebc30cf01d3e25c0174664c46e1821e272a73c18bb8bd3085a48171e1b1c", 126),
    ("java-vector", True, 1, False): (
        "ad544674dd55b579a615a4f85ba48f753059f495f43b7d42d80d28807c7515e0", 111),
    ("java-vector", True, 1, True): (
        "3d45ca2adc07c0b21e2e8ce64b486577428bff75ee130e0a2ce0a2a868700ab0", 111),
    ("multiset-tree", False, 0, False): (
        "44fcb34d8125a13db94f890034db7545d3057c48d2df4761bc2d6050457cf5ca", 536),
    ("multiset-tree", False, 0, True): (
        "d464ae024183773cc2b0946ebfb8bd5c0045895eea3b39aea1b5f6f796dcbdc0", 536),
    ("multiset-tree", False, 1, False): (
        "25c68f14be37979e46b301412898a14e695907cbd53c21fad8911dfcbc5725ef", 428),
    ("multiset-tree", False, 1, True): (
        "f9ebd580ef3e1a0f43df6e88b3dc478b0736c8e1022b18678dbeb3e390c9b04a", 428),
    ("multiset-tree", True, 0, False): (
        "4ca3cfe3ed89c225a3036ec28c4fe3487f93523e22ae6aa6930351145765d888", 529),
    ("multiset-tree", True, 0, True): (
        "2b3dcfb552d980ec8f0736952c4df3e8fc9b5c247bf28a70946107e443a0eb2e", 529),
    ("multiset-tree", True, 1, False): (
        "ff47238084dba78a4d09b2b99e9b613dcb05d00166cb02588c2ba6d27dddd122", 434),
    ("multiset-tree", True, 1, True): (
        "55356ce1323d86726a169a8b9ddcff66eb79aef585bcd284a850c53a7971dd0e", 434),
    ("multiset-vector", False, 0, False): (
        "9863eb30170b1cf351d959b80dea6ac15c9bbb06e1a37d7f07b9f6fcb1fe127b", 3082),
    ("multiset-vector", False, 0, True): (
        "bf196a04f765544c17650434b3c67c497a391e715c1e73e2b95f6a035c279407", 3082),
    ("multiset-vector", False, 1, False): (
        "151e1424a0e82edfb350d352da439d1ca24deff96794744e3646b0b29b833145", 3040),
    ("multiset-vector", False, 1, True): (
        "330a9a7b0119003972563def179ef3e7cd73603d8335ede640b7da481602939b", 3040),
    ("multiset-vector", True, 0, False): (
        "a94d8b9a9e1fa6f32dca66f449c97311aa91a2e1fbd2400041bae1db9ac9e547", 2296),
    ("multiset-vector", True, 0, True): (
        "117ea02d7789199c3da0e2a845bd4534d3590d44a35c6c702c14164a6a45950b", 2296),
    ("multiset-vector", True, 1, False): (
        "922f965778a1aeca7d15138a16dc14f121db7e0b1b1feb259a0174ebeee346cb", 2634),
    ("multiset-vector", True, 1, True): (
        "51b14676901cf33ee3a12d5dc60f5df4a31a8c72cfeece35631667af66712f7b", 2634),
    ("scanfs", False, 0, False): (
        "a4a3d013cdd80449d1d0ecf72fee03a74b639bde88bf1279d6a055fbb4b89822", 300),
    ("scanfs", False, 0, True): (
        "60bb8d5ec0ba3013d77e9a6de7f3178c684ccc72de3a928f13f0e8d30d6f562f", 300),
    ("scanfs", False, 1, False): (
        "cb4fceb91bcded9e1fc47302981a3f88f04bb162dd65692e378c9a1e9ba42d80", 215),
    ("scanfs", False, 1, True): (
        "2a19554d1b3c2fb7bc9485d0db3db6f9ed0c863d4d92ced0566f99afa45baa5e", 215),
    ("scanfs", True, 0, False): (
        "a4a3d013cdd80449d1d0ecf72fee03a74b639bde88bf1279d6a055fbb4b89822", 300),
    ("scanfs", True, 0, True): (
        "60bb8d5ec0ba3013d77e9a6de7f3178c684ccc72de3a928f13f0e8d30d6f562f", 300),
    ("scanfs", True, 1, False): (
        "cb4fceb91bcded9e1fc47302981a3f88f04bb162dd65692e378c9a1e9ba42d80", 215),
    ("scanfs", True, 1, True): (
        "2a19554d1b3c2fb7bc9485d0db3db6f9ed0c863d4d92ced0566f99afa45baa5e", 215),
    ("stringbuffer", False, 0, False): (
        "c8abd709263d7dbdd5e652d38f1a947b81e0b8ba4270ce45c85b8f3b7ea98456", 460),
    ("stringbuffer", False, 0, True): (
        "a31f4f3c82d3d9383b71cad9b7039451a7e3ebb8ff87a30bb4a7c2ba9a7ebd6c", 460),
    ("stringbuffer", False, 1, False): (
        "657d17226f9ac0eb6cf8a83c59d0c3d289814bd27dde604e6209b1cc4e2ee446", 292),
    ("stringbuffer", False, 1, True): (
        "d44d6c327dccd14c43cd9a38b756b5874145d7e6422cb4b8a045bc7159979495", 292),
    ("stringbuffer", True, 0, False): (
        "204ef45c761ef700df434588e4761f82d037b1c7ba428519f5298c04455ec67a", 501),
    ("stringbuffer", True, 0, True): (
        "f6048ff9c0306e8a0d6ad6aebf0eba904c10673fb11f7df811ba2551a5c43bdd", 501),
    ("stringbuffer", True, 1, False): (
        "6999afe96259d6fb16e1b8ac73707d5224d4b20234bee39b38f71f7c4f86f597", 362),
    ("stringbuffer", True, 1, True): (
        "01d0204a80f47bc56035d7d6ff43c1ed3ef74d00db14b2f7dfc0eea05d3b8e9f", 362),
}


@pytest.mark.parametrize(
    "program,buggy,seed,logged", sorted(GOLDEN_SCHEDULES_EVERY_PROGRAM)
)
def test_every_program_schedule_matches_golden(program, buggy, seed, logged):
    """Locks and reads logged, the run pins the lock and read records too,
    which the kernel reports only to a tracer that records them."""
    result = run_program(
        program, buggy=buggy, num_threads=3, calls_per_thread=8, seed=seed,
        log_locks=logged, log_reads=logged,
    )
    triples = [(type(a).__name__, a.tid, a.op_id) for a in result.log]
    digest = hashlib.sha256(json.dumps(triples).encode()).hexdigest()
    assert (digest, result.kernel.steps) == GOLDEN_SCHEDULES_EVERY_PROGRAM[
        (program, buggy, seed, logged)
    ]
