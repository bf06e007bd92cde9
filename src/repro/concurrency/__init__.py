"""Deterministic cooperative concurrency simulator (VYRD substrate).

See DESIGN.md: this package replaces the paper's native C#/Java threads with
generator-coroutine simulated threads scheduled by seeded, reproducible
schedulers.  Public surface:

* :class:`Kernel`, :class:`ThreadCtx`, :func:`run_threads`, :func:`with_lock`
* Syscalls are produced by primitives/cells; user code only ``yield``\\ s them.
* :class:`SharedCell`, :class:`SharedArray`, :class:`CellFactory`
* :class:`Lock`, :class:`RWLock`
* Schedulers: :class:`RandomScheduler`, :class:`RoundRobinScheduler`,
  :class:`PCTScheduler`, :class:`ReplayScheduler`
* Exploration: :func:`explore_exhaustive` and :func:`explore_swarm`, one
  frontier engine at any job count (``jobs=1`` in-process, ``jobs>1`` over
  a :class:`ResilientPool` of worker processes)
"""

from .errors import (
    DeadlockError,
    KernelStopped,
    LockError,
    SimThreadError,
    SimulationError,
    StepLimitExceeded,
)
from .explore import ExplorationResult, RunRecord, explore_exhaustive, explore_swarm
from .parallel import (
    ExplorationTimeout,
    RefinementViolation,
    RemoteError,
    resolve_program,
)
from .reduction import ReducedReplayScheduler, StaticReducer
from .resilient import ResilientPool, RetryPolicy, TaskFailure
from .kernel import (
    Kernel,
    NullTracer,
    Pass,
    SimThread,
    Status,
    Syscall,
    ThreadCtx,
    Tracer,
    run_threads,
    with_lock,
)
from .memory import CellFactory, SharedArray, SharedCell
from .primitives import Condition, Lock, RWLock
from .schedulers import (
    PCTScheduler,
    RandomScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    Scheduler,
)

__all__ = [
    "CellFactory",
    "Condition",
    "DeadlockError",
    "ExplorationResult",
    "ExplorationTimeout",
    "Kernel",
    "KernelStopped",
    "Lock",
    "LockError",
    "NullTracer",
    "Pass",
    "PCTScheduler",
    "RandomScheduler",
    "ReplayScheduler",
    "RoundRobinScheduler",
    "RWLock",
    "ReducedReplayScheduler",
    "RefinementViolation",
    "StaticReducer",
    "RemoteError",
    "ResilientPool",
    "RetryPolicy",
    "RunRecord",
    "Scheduler",
    "TaskFailure",
    "SharedArray",
    "SharedCell",
    "SimThread",
    "SimThreadError",
    "SimulationError",
    "Status",
    "StepLimitExceeded",
    "Syscall",
    "ThreadCtx",
    "Tracer",
    "explore_exhaustive",
    "explore_swarm",
    "resolve_program",
    "run_threads",
    "with_lock",
]
