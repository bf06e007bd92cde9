"""Synchronization primitives for simulated threads.

All primitives are *passive* objects: their methods return syscalls
(:class:`~repro.concurrency.kernel.Syscall` values, or for ``acquire`` the
lock itself) that the simulated thread must ``yield``; the kernel performs
the actual state transition.  This keeps every blocking decision inside the
kernel, where the scheduler (and therefore the reproducible interleaving)
lives.

* :class:`Lock` -- reentrant mutual exclusion, modelling Java ``synchronized``
  and .NET ``lock``.
* :class:`RWLock` -- a reader-writer lock modelling Boxwood's RECLAIMLOCK
  (``BEGINREAD``/``ENDREAD``/``BEGINWRITE``/``ENDWRITE`` in the paper's
  Fig. 8 pseudocode).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .errors import LockError
from .kernel import (
    _HANDLERS,
    CondNotifySys,
    CondWaitSys,
    Kernel,
    ReleaseSys,
    RWBeginReadSys,
    RWBeginWriteSys,
    RWEndReadSys,
    RWEndWriteSys,
    SimThread,
)


class Lock:
    """A reentrant lock for simulated threads.

    Usage inside a thread body::

        yield lock.acquire()
        try:
            ...
        finally:
            yield lock.release()

    ``release(commit=True)`` marks the release as the method execution's
    commit action (the paper notes the first lock release after the last
    write to ``supp(view)`` is often the right commit point).  An acquire
    carries nothing but its lock, so the lock itself is the acquire
    syscall.
    """

    __slots__ = ("name", "owner", "depth", "waiters")

    def __init__(self, name: str = "lock"):
        self.name = name
        self.owner: Optional[int] = None  # owning tid
        self.depth = 0
        self.waiters: deque = deque()

    # -- syscall constructors (yield these) --------------------------------

    def acquire(self) -> "Lock":
        return self

    def release(self, commit: bool = False) -> ReleaseSys:
        return ReleaseSys(self, commit)

    # -- kernel-side implementation -----------------------------------------

    def _release(self, kernel: Kernel, thread: SimThread) -> None:
        if self.owner != thread.tid:
            raise LockError(
                f"thread {thread.name!r} released lock {self.name!r} "
                f"owned by tid {self.owner!r}"
            )
        self.depth -= 1
        if self.depth > 0:
            return
        if kernel._log_locks:
            kernel.tracer.on_release(thread.tid, self)
        if self.waiters:
            next_thread = self.waiters.popleft()
            self.owner = next_thread.tid
            self.depth = 1
            kernel.unblock(next_thread)
            if kernel._log_locks:
                kernel.tracer.on_acquire(next_thread.tid, self)
        else:
            self.owner = None

    def held_by(self, tid: int) -> bool:
        """True if ``tid`` currently owns this lock (used in assertions)."""
        return self.owner == tid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Lock {self.name!r} owner={self.owner} depth={self.depth}>"


def _sys_acquire(kernel: Kernel, thread: SimThread, lock: Lock) -> None:
    """A yielded lock: take it, re-enter it, or block behind its owner."""
    if lock.owner is None:
        lock.owner = thread.tid
        lock.depth = 1
        if kernel._log_locks:
            kernel.tracer.on_acquire(thread.tid, lock)
    elif lock.owner == thread.tid:
        lock.depth += 1
    else:
        kernel.block(thread, f"lock({lock.name})")
        lock.waiters.append(thread)


_HANDLERS[Lock] = _sys_acquire


class RWLock:
    """A reader-writer lock with writer preference (Boxwood's RECLAIMLOCK).

    Multiple readers may hold the lock simultaneously; a writer excludes
    everyone.  Readers arriving while a writer is active or waiting are
    queued, preventing writer starvation.  Read sections are reentrant per
    thread (a thread may nest ``begin_read`` calls).
    """

    __slots__ = ("name", "readers", "writer", "read_waiters", "write_waiters")

    def __init__(self, name: str = "rwlock"):
        self.name = name
        self.readers: dict = {}  # tid -> nesting depth
        self.writer: Optional[int] = None
        self.read_waiters: deque = deque()
        self.write_waiters: deque = deque()

    # -- syscall constructors ------------------------------------------------

    def begin_read(self) -> RWBeginReadSys:
        return RWBeginReadSys(self)

    def end_read(self) -> RWEndReadSys:
        return RWEndReadSys(self)

    def begin_write(self) -> RWBeginWriteSys:
        return RWBeginWriteSys(self)

    def end_write(self, commit: bool = False) -> RWEndWriteSys:
        return RWEndWriteSys(self, commit)

    # -- kernel-side implementation -------------------------------------------

    def _begin_read(self, kernel: Kernel, thread: SimThread) -> None:
        if thread.tid in self.readers:  # reentrant read
            self.readers[thread.tid] += 1
            return
        if self.writer is None and not self.write_waiters:
            self.readers[thread.tid] = 1
            if kernel._log_locks:
                kernel.tracer.on_acquire(thread.tid, self, mode="r")
        else:
            kernel.block(thread, f"rwlock-read({self.name})")
            self.read_waiters.append(thread)

    def _end_read(self, kernel: Kernel, thread: SimThread) -> None:
        depth = self.readers.get(thread.tid)
        if depth is None:
            raise LockError(
                f"thread {thread.name!r} ended a read section of {self.name!r} "
                "it never began"
            )
        if depth > 1:
            self.readers[thread.tid] = depth - 1
            return
        del self.readers[thread.tid]
        if kernel._log_locks:
            kernel.tracer.on_release(thread.tid, self, mode="r")
        self._wake(kernel)

    def _begin_write(self, kernel: Kernel, thread: SimThread) -> None:
        if self.writer is None and not self.readers:
            self.writer = thread.tid
            if kernel._log_locks:
                kernel.tracer.on_acquire(thread.tid, self, mode="w")
        else:
            kernel.block(thread, f"rwlock-write({self.name})")
            self.write_waiters.append(thread)

    def _end_write(self, kernel: Kernel, thread: SimThread) -> None:
        if self.writer != thread.tid:
            raise LockError(
                f"thread {thread.name!r} ended a write section of {self.name!r} "
                f"owned by tid {self.writer!r}"
            )
        self.writer = None
        if kernel._log_locks:
            kernel.tracer.on_release(thread.tid, self, mode="w")
        self._wake(kernel)

    def _wake(self, kernel: Kernel) -> None:
        """Grant the lock to waiters after a release (writer preference)."""
        if self.readers or self.writer is not None:
            return
        if self.write_waiters:
            next_writer = self.write_waiters.popleft()
            self.writer = next_writer.tid
            kernel.unblock(next_writer)
            if kernel._log_locks:
                kernel.tracer.on_acquire(next_writer.tid, self, mode="w")
            return
        while self.read_waiters:
            reader = self.read_waiters.popleft()
            self.readers[reader.tid] = 1
            kernel.unblock(reader)
            if kernel._log_locks:
                kernel.tracer.on_acquire(reader.tid, self, mode="r")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RWLock {self.name!r} readers={sorted(self.readers)} "
            f"writer={self.writer}>"
        )


class Condition:
    """A monitor condition variable with Mesa semantics.

    ``wait()`` atomically releases the associated :class:`Lock` and blocks;
    a notified waiter is moved to the lock's queue and resumes only once it
    has re-acquired the lock.  As with Mesa monitors, waiters must re-check
    their predicate in a loop::

        yield lock.acquire()
        while not predicate():
            yield not_empty.wait()
        ...
        yield lock.release()

    ``wait()`` from a reentrantly-held lock (depth > 1) is rejected -- the
    monitor patterns in this repository never need it and silently dropping
    nested ownership would be a bug factory.
    """

    __slots__ = ("name", "lock", "waiters")

    def __init__(self, lock: Lock, name: str = "cond"):
        self.name = name
        self.lock = lock
        self.waiters: deque = deque()

    # -- syscall constructors ----------------------------------------------

    def wait(self) -> CondWaitSys:
        return CondWaitSys(self)

    def notify(self, count: int = 1) -> CondNotifySys:
        return CondNotifySys(self, count)

    def notify_all(self) -> CondNotifySys:
        return CondNotifySys(self, -1)

    # -- kernel-side implementation -----------------------------------------

    def _wait(self, kernel: Kernel, thread: SimThread) -> None:
        if self.lock.owner != thread.tid:
            raise LockError(
                f"thread {thread.name!r} waited on {self.name!r} without "
                f"holding lock {self.lock.name!r}"
            )
        if self.lock.depth != 1:
            raise LockError(
                f"wait on {self.name!r} with reentrant lock depth "
                f"{self.lock.depth} is not supported"
            )
        self.lock._release(kernel, thread)
        kernel.block(thread, f"cond({self.name})")
        self.waiters.append(thread)

    def _notify(self, kernel: Kernel, thread: SimThread, count: int) -> None:
        if self.lock.owner != thread.tid:
            raise LockError(
                f"thread {thread.name!r} notified {self.name!r} without "
                f"holding lock {self.lock.name!r}"
            )
        wake = len(self.waiters) if count < 0 else min(count, len(self.waiters))
        for _ in range(wake):
            waiter = self.waiters.popleft()
            # Mesa: the waiter must re-acquire the lock before resuming.
            waiter.waiting_reason = f"lock({self.lock.name})"
            self.lock.waiters.append(waiter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Condition {self.name!r} waiters={len(self.waiters)}>"
