"""A deterministic cooperative concurrency kernel.

VYRD's checker consumes a *log* of fine-grained actions produced by truly
interleaved method executions.  The paper instruments C#/.NET and Java
programs running on native threads; under CPython the GIL makes native-thread
interleavings coarse and irreproducible, so this reproduction substitutes a
*simulated* concurrency substrate (documented in DESIGN.md):

* A *simulated thread* is a Python generator that ``yield``\\ s a syscall
  at every shared-memory access and synchronization operation: a
  :class:`Syscall` object, or the cell it reads or the lock it acquires.
* The :class:`Kernel` executes one syscall at a time and asks a pluggable
  :class:`~repro.concurrency.schedulers.Scheduler` which runnable thread to
  resume next.  A seeded random scheduler therefore produces a fully
  reproducible, fine-grained interleaving -- every context switch happens at
  an explicitly marked program point.
* A :class:`Tracer` observes shared writes, commit annotations and commit
  blocks; :class:`repro.core.instrument.VyrdTracer` plugs in here to build
  the VYRD log.

Everything that happens *between* two yields of a simulated thread is atomic
by construction, which is exactly the property VYRD's commit-action logging
needs ("each logged action is performed atomically with the corresponding
log update", paper section 4.2).

Example
-------
>>> from repro.concurrency import Kernel, SharedCell
>>> cell = SharedCell("c", 0)
>>> def incr(ctx):
...     v = yield cell.read()
...     yield cell.write(v + 1)
>>> kernel = Kernel(seed=7)
>>> for i in range(2):
...     _ = kernel.spawn(incr, name=f"t{i}")
>>> kernel.run()
>>> cell.peek()  # lost update is possible under some seeds; here both ran
2
"""

from __future__ import annotations

import itertools
import sys
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs import NULL_RECORDER, Recorder
from .errors import (
    DeadlockError,
    KernelStopped,
    SimThreadError,
    StepLimitExceeded,
)
from .schedulers import RandomScheduler, Scheduler


class Status(Enum):
    """Lifecycle states of a :class:`SimThread`."""

    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


# ---------------------------------------------------------------------------
# Syscalls
# ---------------------------------------------------------------------------


class Syscall:
    """Base class for every request a simulated thread can yield.

    Reads and lock acquires are most kernel steps and carry nothing but
    their primitive, so they build no syscall: ``cell.read()`` returns the
    :class:`~repro.concurrency.memory.SharedCell` and ``lock.acquire()``
    the :class:`~repro.concurrency.primitives.Lock`, and the handler table
    maps each of those classes to its effect.  Every other syscall type is
    a plain slotted class with an ordinary ``__init__`` (a frozen dataclass
    costs two to three and a half times as much to build).  Syscalls are
    immutable by contract: nothing mutates, compares or hashes one.  The
    four that carry no program object are shared constants (see
    :class:`ThreadCtx`).  The others are never cached on their cell, lock
    or condition: a primitive holding a syscall that refers back to it is
    a reference cycle, which would leave every run's program to the cyclic
    collector.  That is why a release, which carries its ``commit`` flag,
    still builds a :class:`ReleaseSys` per step.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        names = [
            name
            for cls in reversed(type(self).__mro__)
            for name in cls.__dict__.get("__slots__", ())
        ]
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({fields})"


class Pass(Syscall):
    """A pure scheduling point with no effect (``ctx.checkpoint()``)."""

    __slots__ = ()


class WriteSys(Syscall):
    """Write ``value`` into ``cell``.

    When ``commit`` is true the tracer records a commit action atomically
    with the write -- this is how implementations annotate the paper's
    *commit action* when it coincides with the decisive shared write.
    """

    __slots__ = ("cell", "value", "commit")

    def __init__(self, cell: Any, value: Any, commit: bool = False):
        self.cell = cell
        self.value = value
        self.commit = commit


class ReleaseSys(Syscall):
    """Release a lock.  ``commit`` marks the release as the commit action."""

    __slots__ = ("lock", "commit")

    def __init__(self, lock: Any, commit: bool = False):
        self.lock = lock
        self.commit = commit


class RWBeginReadSys(Syscall):
    __slots__ = ("rwlock",)

    def __init__(self, rwlock: Any):
        self.rwlock = rwlock


class RWEndReadSys(Syscall):
    __slots__ = ("rwlock",)

    def __init__(self, rwlock: Any):
        self.rwlock = rwlock


class RWBeginWriteSys(Syscall):
    __slots__ = ("rwlock",)

    def __init__(self, rwlock: Any):
        self.rwlock = rwlock


class RWEndWriteSys(Syscall):
    __slots__ = ("rwlock", "commit")

    def __init__(self, rwlock: Any, commit: bool = False):
        self.rwlock = rwlock
        self.commit = commit


class CommitSys(Syscall):
    """A standalone commit action (for paths with no decisive write)."""

    __slots__ = ()


class BeginCommitBlockSys(Syscall):
    """Open the current method execution's commit block (paper section 5.2)."""

    __slots__ = ()


class EndCommitBlockSys(Syscall):
    """Close the commit block; ``commit`` marks it as the commit action."""

    __slots__ = ("commit",)

    def __init__(self, commit: bool = False):
        self.commit = commit


class ReplaySys(Syscall):
    """Emit a coarse-grained, data-structure-specific log entry (section 6.2).

    ``tag`` identifies the replay routine registered with the checker and
    ``payload`` is the (immutable) data it needs.
    """

    __slots__ = ("tag", "payload", "commit")

    def __init__(self, tag: str, payload: Any, commit: bool = False):
        self.tag = tag
        self.payload = payload
        self.commit = commit


class JoinSys(Syscall):
    """Block until ``thread`` finishes; its return value is sent back."""

    __slots__ = ("thread",)

    def __init__(self, thread: "SimThread"):
        self.thread = thread


class CondWaitSys(Syscall):
    """Atomically release the condition's lock and block until notified."""

    __slots__ = ("cond",)

    def __init__(self, cond: Any):
        self.cond = cond


class CondNotifySys(Syscall):
    """Wake ``count`` waiters (-1 for all); the caller must hold the lock."""

    __slots__ = ("cond", "count")

    def __init__(self, cond: Any, count: int = 1):
        self.cond = cond
        self.count = count


# The syscalls that carry no program object: ``ThreadCtx`` hands out these.
_PASS = Pass()
_COMMIT = CommitSys()
_BEGIN_BLOCK = BeginCommitBlockSys()
_END_BLOCK = EndCommitBlockSys(False)
_END_BLOCK_COMMIT = EndCommitBlockSys(True)


# ---------------------------------------------------------------------------
# Tracer protocol
# ---------------------------------------------------------------------------


class Tracer:
    """Observer interface for kernel events relevant to VYRD logging.

    The kernel invokes these callbacks *atomically* with the corresponding
    effect (no other simulated thread can run in between), which gives the
    log-ordering guarantee of paper section 4.2 for free.

    ``log_reads`` and ``log_locks`` say whether the tracer records shared
    reads and lock grants and releases.  A kernel reads both once, when it
    is built, and calls ``on_read`` only when ``log_reads`` is true and
    ``on_acquire``/``on_release`` only when ``log_locks`` is true.
    """

    log_reads = True
    log_locks = True

    def on_write(self, tid: int, cell, old, new) -> None:  # pragma: no cover - interface
        pass

    def on_read(self, tid: int, cell) -> None:  # pragma: no cover - interface
        pass

    def on_acquire(self, tid: int, lock, mode: str = "x") -> None:  # pragma: no cover - interface
        pass

    def on_release(self, tid: int, lock, mode: str = "x") -> None:  # pragma: no cover - interface
        pass

    def on_commit(self, tid: int) -> None:  # pragma: no cover - interface
        pass

    def on_begin_commit_block(self, tid: int) -> None:  # pragma: no cover - interface
        pass

    def on_end_commit_block(self, tid: int) -> None:  # pragma: no cover - interface
        pass

    def on_replay(self, tid: int, tag: str, payload) -> None:  # pragma: no cover - interface
        pass

    def on_spawn(self, parent_tid: int, child_tid: int) -> None:  # pragma: no cover - interface
        pass

    def on_join(self, tid: int, child_tid: int) -> None:  # pragma: no cover - interface
        pass


class NullTracer(Tracer):
    """A tracer that ignores every event (used when logging is disabled)."""

    log_reads = False
    log_locks = False


# ---------------------------------------------------------------------------
# Threads
# ---------------------------------------------------------------------------


class SimThread:
    """A simulated thread: a generator plus scheduling metadata.

    Instances are created by :meth:`Kernel.spawn`; user code never
    instantiates this class directly.
    """

    __slots__ = (
        "tid",
        "name",
        "daemon",
        "gen",
        "status",
        "send_value",
        "waiting_reason",
        "result",
        "exception",
        "joiners",
        "priority",
    )

    def __init__(self, tid: int, name: str, gen, daemon: bool):
        self.tid = tid
        self.name = name
        self.daemon = daemon
        self.gen = gen
        self.status = Status.READY
        self.send_value: Any = None
        self.waiting_reason: Optional[str] = None
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.joiners: List["SimThread"] = []
        self.priority: int = 0  # used by priority schedulers (PCT)

    @property
    def finished(self) -> bool:
        return self.status in (Status.DONE, Status.FAILED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread tid={self.tid} name={self.name!r} {self.status.value}>"


class ThreadCtx:
    """Per-thread handle passed as the first argument of every thread body.

    Provides the thread identity (``tid``), syscall sugar that does not fit
    on a primitive object, and dynamic spawning.
    """

    __slots__ = ("tid", "name", "kernel", "thread")

    def __init__(self, tid: int, name: str, kernel: "Kernel", thread: SimThread):
        self.tid = tid
        self.name = name
        self.kernel = kernel
        self.thread = thread

    def checkpoint(self) -> Pass:
        """A pure preemption point: ``yield ctx.checkpoint()``."""
        return _PASS

    def commit(self) -> CommitSys:
        """A standalone commit action: ``yield ctx.commit()``."""
        return _COMMIT

    def begin_commit_block(self) -> BeginCommitBlockSys:
        return _BEGIN_BLOCK

    def end_commit_block(self, commit: bool = False) -> EndCommitBlockSys:
        return _END_BLOCK_COMMIT if commit else _END_BLOCK

    def replay(self, tag: str, payload, commit: bool = False) -> ReplaySys:
        """Emit a coarse-grained log entry (paper section 6.2)."""
        return ReplaySys(tag, payload, commit)

    def spawn(self, fn, *args, name: Optional[str] = None, daemon: bool = False) -> SimThread:
        """Spawn a new simulated thread from inside a running thread."""
        return self.kernel.spawn(fn, *args, name=name, daemon=daemon)

    def join(self, thread: SimThread) -> JoinSys:
        """Block until ``thread`` finishes: ``result = yield ctx.join(t)``."""
        return JoinSys(thread)


def with_lock(lock, body):
    """Run generator ``body`` while holding ``lock``.

    Usage inside a simulated thread::

        result = yield from with_lock(self.mutex, self._do_work(ctx))

    The lock is released even if ``body`` raises.
    """
    yield lock.acquire()
    try:
        result = yield from body
    finally:
        yield lock.release()
    return result


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


class Kernel:
    """Deterministic scheduler and syscall interpreter for simulated threads.

    Parameters
    ----------
    scheduler:
        Decides which runnable thread executes next.  Defaults to a
        :class:`~repro.concurrency.schedulers.RandomScheduler` built from
        ``seed``.
    seed:
        Convenience shortcut for ``scheduler=RandomScheduler(seed)``.
    tracer:
        Receives shared-write / commit / commit-block / replay events;
        VYRD's instrumentation layer plugs in here.
    max_steps:
        Upper bound on scheduling steps before :class:`StepLimitExceeded`
        is raised (guards against livelock).
    obs:
        Observability recorder (:mod:`repro.obs`).  The kernel binds its
        step counter as the recorder's trace clock, so every span recorded
        anywhere in the pipeline is keyed to this kernel's step-time.
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        max_steps: Optional[int] = None,
        obs: Optional[Recorder] = None,
    ):
        self.scheduler: Scheduler = scheduler if scheduler is not None else RandomScheduler(seed)
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        # the read and lock handlers skip the hooks of events not recorded
        self._log_reads = self.tracer.log_reads
        self._log_locks = self.tracer.log_locks
        self.max_steps = max_steps
        self.obs: Recorder = obs if obs is not None else NULL_RECORDER
        if self.obs.enabled:
            self.obs.bind_step_clock(lambda: self.steps)
        self.threads: List[SimThread] = []
        # READY threads in tid order, or None after a status change (spawn,
        # block, unblock, finish) until the loop rebuilds it
        self._ready: Optional[Tuple[SimThread, ...]] = ()
        self._pending = 0  # unfinished non-daemon threads
        self.steps = 0
        self._tid_counter = itertools.count(0)
        self._running = False
        self.current: Optional[SimThread] = None
        # A scheduler exposing ``on_step`` observes every executed step --
        # ``(thread, syscall)`` after its effect applies, ``(thread, None)``
        # when the thread finishes.  Sleep-set reduction
        # (:mod:`repro.concurrency.reduction`) relies on this feed.
        self._step_listener = getattr(self.scheduler, "on_step", None)

    # -- thread management -------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        *args,
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> SimThread:
        """Create a simulated thread running ``fn(ctx, *args)``.

        ``fn`` must be a generator function whose first parameter is a
        :class:`ThreadCtx`.  Threads may be spawned before :meth:`run` or
        dynamically from inside another simulated thread.
        """
        tid = next(self._tid_counter)
        thread = SimThread(tid, name or f"thread-{tid}", None, daemon)
        ctx = ThreadCtx(tid, thread.name, self, thread)
        gen = fn(ctx, *args)
        if not hasattr(gen, "send"):
            raise TypeError(f"thread body {fn!r} must be a generator function")
        thread.gen = gen
        thread.priority = self.scheduler.initial_priority(thread)
        self.threads.append(thread)
        self._ready = None
        if not daemon:
            self._pending += 1
        if self.current is not None:
            # dynamic spawn from a running simulated thread: the fork edge
            # is visible to tracers (race detection needs it)
            self.tracer.on_spawn(self.current.tid, tid)
        return thread

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        """Run until every non-daemon thread has finished.

        Raises
        ------
        DeadlockError
            if non-daemon threads are blocked and nothing can run.
        SimThreadError
            if a simulated thread raises an unexpected exception.
        StepLimitExceeded
            if ``max_steps`` is exhausted.
        """
        if self._running:
            raise RuntimeError("kernel.run() is not reentrant")
        self._running = True
        obs = self.obs
        try:
            # Constant bookkeeping per step: these are bound once per run,
            # the READY tuple is rebuilt only after a status change, and the
            # pending count replaces a scan for unfinished app threads.
            step = self._observed_step if obs.enabled else self._step
            pick = self.scheduler.pick
            limit = self.max_steps if self.max_steps is not None else sys.maxsize
            with obs.span("kernel.run", cat="kernel"):
                while self._pending:
                    runnable = self._ready
                    if runnable is None:  # ``threads`` is in tid order
                        runnable = self._ready = tuple(
                            t for t in self.threads if t.status is Status.READY
                        )
                    if not runnable:
                        blocked = [
                            (t.name, t.waiting_reason or "?")
                            for t in self.threads
                            if t.status is Status.BLOCKED and not t.daemon
                        ]
                        raise DeadlockError(blocked)
                    if self.steps >= limit:
                        raise StepLimitExceeded(self.max_steps)
                    step(pick(runnable, self.steps))
                self._shutdown_daemons()
        finally:
            self._running = False

    def _observed_step(self, thread: SimThread) -> None:
        """One scheduling step with per-thread counters and a step span."""
        obs = self.obs
        obs.count("kernel.steps")
        obs.count(f"kernel.steps.t{thread.tid}")
        with obs.span(
            "kernel.step", cat="kernel", tid=thread.tid, thread=thread.name
        ):
            self._step(thread)

    def _shutdown_daemons(self) -> None:
        """Throw :class:`KernelStopped` into still-live daemon threads."""
        for t in self.threads:
            if t.daemon and not t.finished:
                self._ready = None
                try:
                    t.gen.throw(KernelStopped())
                except (StopIteration, KernelStopped):
                    pass
                except Exception as exc:  # daemon crashed during cleanup
                    t.status = Status.FAILED
                    t.exception = exc
                    raise SimThreadError(t, exc)
                t.status = Status.DONE

    def _step(self, thread: SimThread) -> None:
        self.steps += 1
        self.current = thread
        try:
            value, thread.send_value = thread.send_value, None
            syscall = thread.gen.send(value)
        except StopIteration as stop:
            self._finish(thread, Status.DONE, result=stop.value)
            if self._step_listener is not None:
                self._step_listener(thread, None)
            return
        except Exception as exc:
            self._finish(thread, Status.FAILED, exception=exc)
            raise SimThreadError(thread, exc)
        finally:
            self.current = None
        try:
            handler = _HANDLERS.get(type(syscall))
            if handler is None:
                handler = _subclass_handler(thread, syscall)
            handler(self, thread, syscall)
        except SimThreadError:
            raise
        except Exception as exc:
            # misuse detected while interpreting the syscall (bad release,
            # non-syscall yield, ...): attribute it to the offending thread
            self._finish(thread, Status.FAILED, exception=exc)
            raise SimThreadError(thread, exc)
        if self._step_listener is not None:
            self._step_listener(thread, syscall)

    def _finish(self, thread: SimThread, status: Status, result=None, exception=None) -> None:
        thread.status = status
        thread.result = result
        thread.exception = exception
        self._ready = None
        if not thread.daemon:
            self._pending -= 1
        for joiner in thread.joiners:
            self.unblock(joiner, result)
            self.tracer.on_join(joiner.tid, thread.tid)
        thread.joiners.clear()

    # -- syscall handlers (dispatched by type through ``_HANDLERS``) ---------

    def _sys_pass(self, thread: SimThread, syscall: Pass) -> None:
        pass

    def _sys_write(self, thread: SimThread, syscall: WriteSys) -> None:
        cell = syscall.cell
        old = cell._value
        cell._value = syscall.value
        self.tracer.on_write(thread.tid, cell, old, syscall.value)
        if syscall.commit:
            self.tracer.on_commit(thread.tid)

    def _sys_release(self, thread: SimThread, syscall: ReleaseSys) -> None:
        syscall.lock._release(self, thread)
        if syscall.commit:
            self.tracer.on_commit(thread.tid)

    def _sys_begin_read(self, thread: SimThread, syscall: RWBeginReadSys) -> None:
        syscall.rwlock._begin_read(self, thread)

    def _sys_end_read(self, thread: SimThread, syscall: RWEndReadSys) -> None:
        syscall.rwlock._end_read(self, thread)

    def _sys_begin_write(self, thread: SimThread, syscall: RWBeginWriteSys) -> None:
        syscall.rwlock._begin_write(self, thread)

    def _sys_end_write(self, thread: SimThread, syscall: RWEndWriteSys) -> None:
        syscall.rwlock._end_write(self, thread)
        if syscall.commit:
            self.tracer.on_commit(thread.tid)

    def _sys_commit(self, thread: SimThread, syscall: CommitSys) -> None:
        self.tracer.on_commit(thread.tid)

    def _sys_begin_block(self, thread: SimThread, syscall: BeginCommitBlockSys) -> None:
        self.tracer.on_begin_commit_block(thread.tid)

    def _sys_end_block(self, thread: SimThread, syscall: EndCommitBlockSys) -> None:
        self.tracer.on_end_commit_block(thread.tid)
        if syscall.commit:
            self.tracer.on_commit(thread.tid)

    def _sys_replay(self, thread: SimThread, syscall: ReplaySys) -> None:
        self.tracer.on_replay(thread.tid, syscall.tag, syscall.payload)
        if syscall.commit:
            self.tracer.on_commit(thread.tid)

    def _sys_join(self, thread: SimThread, syscall: JoinSys) -> None:
        target = syscall.thread
        if target.finished:
            thread.send_value = target.result
            self.tracer.on_join(thread.tid, target.tid)
        else:
            self.block(thread, f"join({target.name})")
            target.joiners.append(thread)

    def _sys_cond_wait(self, thread: SimThread, syscall: CondWaitSys) -> None:
        syscall.cond._wait(self, thread)

    def _sys_cond_notify(self, thread: SimThread, syscall: CondNotifySys) -> None:
        syscall.cond._notify(self, thread, syscall.count)

    # -- helpers used by primitives ------------------------------------------

    def block(self, thread: SimThread, reason: str) -> None:
        thread.status = Status.BLOCKED
        thread.waiting_reason = reason
        self._ready = None

    def unblock(self, thread: SimThread, send_value=None) -> None:
        thread.status = Status.READY
        thread.send_value = send_value
        thread.waiting_reason = None
        self._ready = None


#: Syscall type -> handler, in the order a subclass is matched against.
#: A yielded :class:`~repro.concurrency.memory.SharedCell` is its own read
#: and a yielded :class:`~repro.concurrency.primitives.Lock` its own
#: acquire: ``memory.py`` and ``primitives.py`` register those two entries
#: beside their classes, since both modules import this one.
_HANDLERS: Dict[type, Callable[[Kernel, SimThread, Any], None]] = {
    Pass: Kernel._sys_pass,
    WriteSys: Kernel._sys_write,
    ReleaseSys: Kernel._sys_release,
    RWBeginReadSys: Kernel._sys_begin_read,
    RWEndReadSys: Kernel._sys_end_read,
    RWBeginWriteSys: Kernel._sys_begin_write,
    RWEndWriteSys: Kernel._sys_end_write,
    CommitSys: Kernel._sys_commit,
    BeginCommitBlockSys: Kernel._sys_begin_block,
    EndCommitBlockSys: Kernel._sys_end_block,
    ReplaySys: Kernel._sys_replay,
    JoinSys: Kernel._sys_join,
    CondWaitSys: Kernel._sys_cond_wait,
    CondNotifySys: Kernel._sys_cond_notify,
}


def _subclass_handler(thread: SimThread, syscall) -> Callable:
    """Handler for a subclass of a syscall type (the first ``isinstance``
    match in table order); non-syscalls are a :class:`TypeError`."""
    for cls, handler in _HANDLERS.items():
        if isinstance(syscall, cls):
            return handler
    raise TypeError(f"thread {thread.name!r} yielded a non-syscall: {syscall!r}")


def run_threads(
    bodies: Iterable[Callable[..., Any]],
    seed: int = 0,
    scheduler: Optional[Scheduler] = None,
    tracer: Optional[Tracer] = None,
    max_steps: Optional[int] = None,
) -> Kernel:
    """Convenience: spawn one thread per generator function and run to completion.

    Returns the kernel so callers can inspect thread results.
    """
    kernel = Kernel(scheduler=scheduler, seed=seed, tracer=tracer, max_steps=max_steps)
    for i, body in enumerate(bodies):
        kernel.spawn(body, name=f"t{i}")
    kernel.run()
    return kernel
