"""Fault-tolerant process-pool execution for the parallel explorers.

The multi-process drivers in :mod:`repro.concurrency.parallel` originally
assumed a healthy pool: a worker that died (``os._exit``, OOM kill) broke
the whole :class:`~concurrent.futures.ProcessPoolExecutor` and every
completed-but-unmerged outcome with it, and a hung worker wedged the
campaign forever.  This module supplies the recovery layer between the
drivers and the executor:

* **Per-task deadlines.**  Every dispatched chunk gets a wall-clock
  deadline; when it expires the pool's worker processes are terminated (a
  hung worker cannot be interrupted any other way), the executor is rebuilt,
  and every in-flight task is re-dispatched.  Only the task that actually
  expired is charged a retry -- innocent casualties of the pool kill ride
  again for free.
* **Bounded retry with exponential backoff and seeded jitter.**  Charged
  retries wait :meth:`RetryPolicy.delay` seconds: ``backoff_base`` doubled
  per attempt (capped), stretched by a jitter drawn from a
  :class:`random.Random` seeded with ``(seed, task serial, attempt)`` --
  replayable, and spread out so a rebuilt pool is not re-stormed.
* **Broken-pool recovery.**  ``BrokenProcessPool`` marks every pending
  future dead; the pool salvages futures that completed before the break,
  rebuilds the executor, and re-dispatches the rest.  Completed results
  held by the driver are never touched.
* **Isolation by splitting.**  A multi-item chunk that fails terminally is
  split into singleton chunks so that one poisoned schedule cannot take its
  chunk-mates down with it; the singleton results are re-assembled into the
  parent's merge slot, preserving canonical order.  A singleton that still
  fails is handed to the driver's ``give_up`` callback, which synthesizes a
  diagnosable outcome (e.g. :class:`~repro.concurrency.parallel.ExplorationTimeout`).

Determinism under retry: every run on the simulated substrate is a pure
function of its seed / decision vector, so re-executing a chunk reproduces
byte-identical records.  Retries therefore cannot reorder or duplicate
merge slots -- the drivers' canonical-order guarantee (parallel output
bit-identical to serial) survives any transient fault.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Backoff growth per attempt, and the largest relative jitter stretch.
BACKOFF_FACTOR = 2.0
JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a caller retries before giving up; the one retry policy.

    The pool, the producer supervisor
    (:class:`~repro.serve.supervise.ProducerSupervisor`) and the retrying
    store (:class:`~repro.serve.retry.RetryingStore`) all pace retries with
    it.  ``max_retries`` bounds the *charged* attempts beyond the first: a
    pool task is terminal once it has failed ``max_retries + 1`` times on
    its own account, a producer is restarted at most ``max_retries`` times.
    ``timeout`` is the pool's per-attempt wall-clock ceiling in seconds
    (``None`` disables the watchdog); nothing else enforces one.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    seed: int = 0

    def delay(self, key, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt >= 1`` of ``key``.

        ``min(backoff_max, backoff_base * BACKOFF_FACTOR**(attempt-1))``
        stretched by up to :data:`JITTER` (relative), drawn from a
        :class:`random.Random` seeded with ``seed``, ``key`` and ``attempt``
        so that a retried run replays its pacing.
        """
        if attempt <= 0:
            return 0.0
        base = min(
            self.backoff_max, self.backoff_base * BACKOFF_FACTOR ** (attempt - 1)
        )
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        return base * (1.0 + JITTER * rng.random())


def fork_context():
    """The ``fork`` multiprocessing context where the platform has one.

    A forked worker or producer inherits the parent's loaded program
    instead of re-importing it; elsewhere the platform default is used.
    """
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )


@dataclass
class TaskFailure:
    """Terminal failure of one task after the retry budget was exhausted."""

    kind: str  # "timeout" | "pool_broken" | "worker_error"
    message: str
    attempts: int

    def __str__(self) -> str:
        return f"{self.kind} after {self.attempts} attempt(s): {self.message}"


class _Task:
    __slots__ = (
        "key", "payload", "serial", "attempts", "deadline",
        "parent", "part_index", "splittable",
    )

    def __init__(self, key, payload, serial, parent=None, part_index=0,
                 splittable=True):
        self.key = key
        self.payload = payload
        self.serial = serial
        self.attempts = 0
        self.deadline: Optional[float] = None
        self.parent: Optional["_Aggregate"] = parent
        self.part_index = part_index
        self.splittable = splittable


@dataclass
class _Aggregate:
    """Bookkeeping for a split task: collects part results in part order."""

    key: Any
    expected: int
    parts: Dict[int, Any] = field(default_factory=dict)


class ResilientPool:
    """A retrying, watchdogged façade over :class:`ProcessPoolExecutor`.

    Parameters
    ----------
    worker_fn:
        Picklable ``worker_fn(payload, extra) -> result`` executed in a
        worker process.
    make_executor:
        Zero-argument factory for a fresh executor (called again after
        every pool kill/break).
    policy:
        :class:`RetryPolicy` (timeouts, retry budget, backoff).
    split:
        ``split(payload) -> list[payload] | None`` -- how to break a
        terminally failing multi-item chunk into singletons (return ``None``
        or a single-element list when it cannot be split further).
    combine:
        ``combine(list_of_part_results) -> result`` -- reassembles split
        results into the parent's shape.
    give_up:
        ``give_up(payload, TaskFailure) -> result`` -- synthesizes a
        result for an unsplittable task whose retries are exhausted.
    decorate:
        ``decorate(payload, serial, attempt) -> extra`` -- computes the
        picklable second worker argument per dispatch; this is the seam the
        fault-injection harness (:mod:`repro.faults`) hooks to target "the
        N-th task, first attempt".
    """

    def __init__(
        self,
        worker_fn: Callable,
        make_executor: Callable[[], ProcessPoolExecutor],
        policy: RetryPolicy,
        split: Callable,
        combine: Callable,
        give_up: Callable,
        decorate: Optional[Callable] = None,
    ):
        self._worker_fn = worker_fn
        self._make_executor = make_executor
        self.policy = policy
        self._split = split
        self._combine = combine
        self._give_up = give_up
        self._decorate = decorate
        self._executor = make_executor()
        self._live: Dict[Any, _Task] = {}  # future -> task
        self._retry_at: List[tuple] = []  # (resume_time, task)
        self._ready: List[tuple] = []  # (key, result)
        self._serial = 0
        self._submitted = 0
        self.events: List[dict] = []

    # -- public API ---------------------------------------------------------

    def submit(self, payload) -> int:
        """Enqueue one task; returns its key (submission ordinal)."""
        key = self._submitted
        self._submitted += 1
        task = _Task(key, payload, self._next_serial())
        self._dispatch(task)
        return key

    @property
    def has_pending(self) -> bool:
        return bool(self._live or self._retry_at or self._ready)

    @property
    def in_flight(self) -> int:
        return len(self._live) + len(self._retry_at)

    def next_completed(self) -> tuple:
        """Block until one task reaches a terminal state; return (key, result).

        Keys come back in completion order, not submission order; retries
        and recovery happen internally, so every submitted key is emitted
        exactly once.
        """
        while True:
            if self._ready:
                return self._ready.pop(0)
            if not self._live and not self._retry_at:
                raise RuntimeError("next_completed() with no pending task")
            self._pump()

    def shutdown(self) -> None:
        try:
            self._executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - executor already broken
            pass

    # -- internals ----------------------------------------------------------

    def _next_serial(self) -> int:
        serial = self._serial
        self._serial += 1
        return serial

    def _event(self, kind: str, task: _Task, detail: str = "", delay: float = 0.0):
        self.events.append({
            "kind": kind,
            "task": task.key if task.parent is None else f"{task.parent.key}.{task.part_index}",
            "serial": task.serial,
            "attempt": task.attempts,
            "detail": detail,
            "delay": round(delay, 4),
        })

    def _dispatch(self, task: _Task) -> None:
        extra = (
            self._decorate(task.payload, task.serial, task.attempts)
            if self._decorate is not None else None
        )
        future = self._executor.submit(self._worker_fn, task.payload, extra)
        task.deadline = (
            time.monotonic() + self.policy.timeout
            if self.policy.timeout is not None else None
        )
        self._live[future] = task

    def _pump(self) -> None:
        """One scheduling turn: flush due retries, reap futures, police deadlines."""
        now = time.monotonic()
        due = [entry for entry in self._retry_at if entry[0] <= now]
        if due:
            self._retry_at = [e for e in self._retry_at if e[0] > now]
            for _, task in due:
                self._dispatch(task)
            return
        if not self._live:
            # nothing running: sleep until the earliest retry is due
            resume = min(entry[0] for entry in self._retry_at)
            time.sleep(max(0.0, resume - time.monotonic()))
            return
        horizon = [t.deadline for t in self._live.values() if t.deadline is not None]
        horizon += [entry[0] for entry in self._retry_at]
        wait_timeout = (
            max(0.0, min(horizon) - now) if horizon else None
        )
        done, _ = wait(
            set(self._live), timeout=wait_timeout, return_when=FIRST_COMPLETED
        )
        for future in done:
            task = self._live.pop(future, None)
            if task is None:
                continue
            error = future.exception()
            if error is None:
                self._complete(task, future.result())
            elif isinstance(error, BrokenExecutor):
                self._recover_broken_pool(task)
                return
            else:
                self._event("worker_error", task, detail=repr(error))
                self._charge(task, "worker_error", repr(error))
        self._police_deadlines()

    def _police_deadlines(self) -> None:
        now = time.monotonic()
        expired = [
            task for task in self._live.values()
            if task.deadline is not None and now > task.deadline
        ]
        if not expired:
            return
        # A hung worker cannot be interrupted: kill the pool and re-dispatch
        # everything that was in flight.  Only the expired tasks pay.
        survivors: List[_Task] = []
        for future, task in list(self._live.items()):
            if future.done() and future.exception() is None and task not in expired:
                self._complete(task, future.result())
            else:
                survivors.append(task)
        self._live.clear()
        self._rebuild_executor(kill=True)
        for task in survivors:
            if task in expired:
                self._event(
                    "timeout", task,
                    detail=f"exceeded {self.policy.timeout}s deadline",
                )
                self._charge(task, "timeout",
                             f"no result within {self.policy.timeout}s")
            else:
                self._requeue(task, charge=False)

    def _recover_broken_pool(self, first_casualty: _Task) -> None:
        """The executor died under us: salvage finished futures, rebuild,
        re-dispatch the rest.  Every lost task is charged one attempt (the
        crashing worker is indistinguishable from its pool-mates)."""
        lost = [first_casualty]
        for future, task in list(self._live.items()):
            if future.done() and future.exception() is None:
                self._complete(task, future.result())
            else:
                lost.append(task)
        self._live.clear()
        self._rebuild_executor(kill=False)
        for task in lost:
            self._event("pool_broken", task, detail="worker process died")
            self._charge(task, "pool_broken", "process pool broke (worker died)")

    def _rebuild_executor(self, kill: bool) -> None:
        old = self._executor
        if kill:
            for process in (getattr(old, "_processes", None) or {}).values():
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass
        try:
            old.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may misbehave
            pass
        self._executor = self._make_executor()

    def _charge(self, task: _Task, kind: str, message: str) -> None:
        task.attempts += 1
        if task.attempts > self.policy.max_retries:
            self._terminal(task, TaskFailure(kind, message, task.attempts))
        else:
            self._requeue(task, charge=True)

    def _requeue(self, task: _Task, charge: bool) -> None:
        delay = self.policy.delay(task.serial, task.attempts) if charge else 0.0
        if charge:
            self._event("retry", task, delay=delay)
        self._retry_at.append((time.monotonic() + delay, task))

    def _terminal(self, task: _Task, failure: TaskFailure) -> None:
        parts = self._split(task.payload) if task.splittable else None
        if parts and len(parts) > 1:
            # Isolate the poison: re-run each item alone so only the schedule
            # that actually crashes or hangs pays the price.
            self._event("split", task, detail=f"{len(parts)} singleton(s)")
            aggregate = _Aggregate(key=task.key, expected=len(parts))
            for index, part in enumerate(parts):
                sub = _Task(
                    key=(task.key, index), payload=part,
                    serial=self._next_serial(), parent=aggregate,
                    part_index=index, splittable=False,
                )
                self._dispatch(sub)
            return
        self._event("gave_up", task, detail=str(failure))
        self._complete(task, self._give_up(task.payload, failure))

    def _complete(self, task: _Task, result) -> None:
        if task.parent is None:
            self._ready.append((task.key, result))
            return
        aggregate = task.parent
        aggregate.parts[task.part_index] = result
        if len(aggregate.parts) == aggregate.expected:
            combined = self._combine(
                [aggregate.parts[i] for i in range(aggregate.expected)]
            )
            self._ready.append((aggregate.key, combined))
