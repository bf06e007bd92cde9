"""What crosses the process boundary in multi-process exploration.

:mod:`repro.concurrency.explore` runs every campaign over one frontier;
with ``jobs>1`` it ships batches of frontier tasks to worker processes
through :class:`~repro.concurrency.resilient.ResilientPool`.  This module
holds what those workers need from the coordinator and send back to it.

**Program sources.**  Closures do not pickle, so multi-process exploration
takes a *program source*: either a picklable callable
``program(scheduler) -> outcome`` (a module-level function or
:func:`functools.partial` thereof) or any object with a
``resolve_program()`` method -- see :class:`repro.harness.ProgramSpec`,
which names a workload-registry program plus its configuration and is
resolved to a fresh kernel inside each worker.  :class:`_OncePickledSource`
pickles the source once per campaign.

**Errors.**  Outcomes must be picklable; exceptions raised by a run inside
a worker come back as :class:`RemoteError` surrogates that keep the
original type name, so campaign signatures compare equal to in-process
runs.  :class:`ExplorationTimeout` marks a schedule that stayed hung
through the pool's isolation and retries; :class:`RefinementViolation` is
the picklable failure raised by spec-driven programs.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Optional

from .schedulers import Scheduler


class RemoteError(Exception):
    """Surrogate for an exception raised inside a worker process.

    Arbitrary exceptions (kernel errors holding simulated threads, refinement
    failures holding checker state) are not reliably picklable, so workers
    ship failures home as ``(type name, message, details)`` and the
    coordinator revives them as this class.  ``remote_type`` preserves the
    original exception's type name for campaign-signature comparison against
    in-process runs.
    """

    def __init__(self, remote_type: str, message: str, details=None):
        super().__init__(message)
        self.remote_type = remote_type
        self.details = details

    @classmethod
    def of(cls, exc: BaseException) -> "RemoteError":
        """The surrogate a worker ships home for ``exc``."""
        details = getattr(exc, "details", None)
        return cls(
            type(exc).__name__, str(exc),
            details if isinstance(details, dict) else None,
        )

    def __reduce__(self):
        return (RemoteError, (self.remote_type, str(self), self.details))


class RefinementViolation(Exception):
    """Picklable failure raised by spec-driven programs on a refinement miss.

    Carries the outcome summary as the message and, when available, the
    outcome's ``to_dict()`` form in ``details`` so violation reports survive
    the trip back from a worker process.
    """

    def __init__(self, message: str, details: Optional[dict] = None):
        super().__init__(message)
        self.details = details

    def __reduce__(self):
        return (RefinementViolation, (str(self), self.details))


class ExplorationTimeout(Exception):
    """A schedule never completed: hung past the watchdog and every retry.

    The explorers convert a terminally stuck task into a failed
    :class:`~repro.concurrency.explore.RunRecord` carrying this error
    instead of wedging the campaign.  ``schedule`` is the replay handle --
    the swarm seed or the exhaustive decision-vector prefix -- so the hang
    can be reproduced in isolation (e.g. with a debugger attached).
    """

    def __init__(self, schedule, kind: str = "timeout", attempts: int = 0,
                 detail: str = ""):
        self.schedule = schedule
        self.kind = kind
        self.attempts = attempts
        self.detail = detail
        super().__init__(
            f"schedule {schedule!r} abandoned ({kind} after "
            f"{attempts} attempt(s)){': ' + detail if detail else ''}"
        )

    def __reduce__(self):
        return (
            ExplorationTimeout,
            (self.schedule, self.kind, self.attempts, self.detail),
        )


def resolve_program(source) -> Callable[[Scheduler], Any]:
    """Turn a program source into the ``program(scheduler)`` callable.

    Accepts any object with a ``resolve_program()`` method (e.g.
    :class:`repro.harness.ProgramSpec`) or a callable used as-is.  For
    multi-process exploration the *source* must be picklable; resolution
    happens inside each worker, so the resolved callable itself may close
    over fresh per-process state.
    """
    resolver = getattr(source, "resolve_program", None)
    if resolver is not None:
        return resolver()
    if callable(source):
        return source
    raise TypeError(
        f"not an explorable program: {source!r} (expected a callable or an "
        f"object with a resolve_program() method)"
    )


class _OncePickledSource:
    """Campaign-lifetime cache of the pickled program source.

    :class:`ProcessPoolExecutor` pickles the worker partial -- program
    source included -- for **every** dispatched task, so a campaign of N
    chunks walked the spec's object graph N times.  This wrapper serializes
    the source exactly once, up front, and replays the cached bytes into
    each task pickle (``__reduce__`` hands pickle the precomputed payload);
    workers transparently unpickle the original source object.  Also a
    fail-fast: an unpicklable source now raises at campaign start, not
    inside the pool.
    """

    __slots__ = ("source", "_payload")

    def __init__(self, source):
        self.source = source
        self._payload = pickle.dumps(source, protocol=pickle.HIGHEST_PROTOCOL)

    def __reduce__(self):
        return (pickle.loads, (self._payload,))

    def resolve_program(self):
        return resolve_program(self.source)
