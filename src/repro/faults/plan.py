"""Seeded, replayable fault plans.

A :class:`FaultPlan` is a deterministic description of *what goes wrong
when*: which dispatched worker task crashes (``os._exit``) or hangs, where
a saved log gets torn or bit-flipped, and how much artificial latency the
tracer seam adds.  Plans are plain frozen dataclasses -- picklable (they
cross process boundaries inside injection hooks), hashable, and entirely a
function of their generation seed, so a failing campaign replays exactly
from ``FaultPlan.generate(seed, ...)``.

Injection seams (all opt-in, zero-cost when no plan is given):

* **Worker tasks** -- :meth:`FaultPlan.task_faults` resolves the plan for a
  ``(task serial, attempt)`` dispatch; the explorers pass the resulting
  :class:`TaskFaults` to the worker, which calls :meth:`TaskFaults.apply`
  before any real work.  Faults target ``attempt == 0`` only: a retried
  task runs clean, mirroring the transient failures (OOM kills, preempted
  nodes) the tolerance layer exists for.
* **Log files** -- :func:`repro.faults.inject.apply_log_faults` tears or
  bit-flips a saved log at plan-chosen *fractional* offsets (resolved
  against the actual file size at apply time, so one plan fits any log).
* **Kernel tracer** -- :class:`repro.faults.inject.LatencyTracer` sleeps on
  a plan-chosen cadence of traced events, simulating a slow log device
  without perturbing the deterministic schedule.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Worker-task fault kinds.
CRASH = "crash"
HANG = "hang"
#: Log-file fault kinds.
TORN_LOG = "torn_log"
BITFLIP_LOG = "bitflip_log"
SPLICE_LOG = "splice_log"
#: Tracer-seam fault kind.
SLOW_IO = "slow_io"
#: Serve-pipeline fault kinds.  Field reuse keeps plan JSON round-trippable:
#: PRODUCER_KILL -- ``frac`` is the kill point as a fraction of the run's
#: record count; FLAKY_STORE -- ``frac`` is the per-op transient-error
#: probability, ``seconds``/``every`` the latency spike and its cadence;
#: STORE_OUTAGE -- ``task`` is the op serial a blackout starts at,
#: ``seconds`` its wall-clock length (retry backoff rides past it).
PRODUCER_KILL = "producer_kill"
FLAKY_STORE = "flaky_store"
STORE_OUTAGE = "store_outage"

_TASK_KINDS = (CRASH, HANG)
_LOG_KINDS = (TORN_LOG, BITFLIP_LOG, SPLICE_LOG)
_STORE_KINDS = (FLAKY_STORE, STORE_OUTAGE)


@dataclass(frozen=True)
class Fault:
    """One planned fault.

    ``task`` targets a dispatched worker task by serial (first-dispatch
    ordinal) for :data:`CRASH`/:data:`HANG`.  ``frac`` locates log faults as
    a fraction of the file size (resolved at apply time); ``bit`` selects
    the flipped bit for :data:`BITFLIP_LOG`.  ``seconds`` is the hang
    duration or the per-event tracer latency; ``every`` is the tracer-event
    cadence for :data:`SLOW_IO`.
    """

    kind: str
    task: Optional[int] = None
    frac: float = 0.0
    bit: int = 0
    seconds: float = 0.0
    every: int = 1


@dataclass(frozen=True)
class TaskFaults:
    """The faults resolved for one worker-task dispatch (picklable).

    Built coordinator-side by :meth:`FaultPlan.task_faults`, shipped to the
    worker process, applied at task start.
    """

    fault: Optional[Fault] = None

    def apply(self) -> None:
        fault = self.fault
        if fault is None:
            return
        if fault.kind == CRASH:
            # A real abrupt worker death: no exception propagation, no
            # cleanup handlers -- exactly what BrokenProcessPool reports.
            os._exit(13)
        if fault.kind == HANG:
            time.sleep(fault.seconds)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic campaign-wide fault schedule.

    Build with :meth:`generate` (seeded) or construct faults explicitly.
    ``hang_seconds`` bounds injected hangs so an un-watchdogged run cannot
    sleep forever; keep it well above the explorer's per-task ``timeout``
    so the watchdog, not the sleep expiring, ends the hang.
    """

    seed: int = 0
    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    @classmethod
    def generate(
        cls,
        seed: int,
        tasks: int = 8,
        crashes: int = 1,
        hangs: int = 1,
        torn: int = 1,
        bitflips: int = 1,
        splices: int = 1,
        slow_ios: int = 0,
        hang_seconds: float = 30.0,
        slow_io_seconds: float = 0.0005,
        producer_kills: int = 0,
        flaky_stores: int = 0,
        outages: int = 0,
        flaky_error_rate: float = 0.2,
        outage_seconds: float = 0.05,
    ) -> "FaultPlan":
        """Draw a replayable fault mix from ``seed``.

        ``tasks`` is the horizon of worker-task serials eligible for
        crash/hang targeting (distinct serials are drawn without
        replacement, so one task suffers at most one worker fault).
        """
        rng = random.Random(seed)
        want = crashes + hangs
        population = list(range(max(tasks, want)))
        targets = rng.sample(population, want) if want else []
        faults = []
        for target in targets[:crashes]:
            faults.append(Fault(CRASH, task=target))
        for target in targets[crashes:]:
            faults.append(Fault(HANG, task=target, seconds=hang_seconds))
        for _ in range(torn):
            faults.append(Fault(TORN_LOG, frac=rng.random()))
        for _ in range(bitflips):
            faults.append(Fault(BITFLIP_LOG, frac=rng.random(),
                                bit=rng.randrange(8)))
        for _ in range(splices):
            faults.append(Fault(SPLICE_LOG, frac=rng.random()))
        for _ in range(slow_ios):
            faults.append(Fault(SLOW_IO, seconds=slow_io_seconds,
                                every=rng.randrange(16, 64)))
        for _ in range(producer_kills):
            # Keep the kill point inside the run: a fraction of the record
            # count, away from the trivial endpoints.
            faults.append(Fault(PRODUCER_KILL,
                                frac=0.1 + 0.8 * rng.random()))
        for _ in range(flaky_stores):
            faults.append(Fault(FLAKY_STORE, frac=flaky_error_rate,
                                seconds=0.0005,
                                every=rng.randrange(16, 64)))
        for _ in range(outages):
            # A brownout session makes 13-20 store ops: start the blackout
            # inside them, or it never bites.
            faults.append(Fault(STORE_OUTAGE,
                                task=rng.randrange(2, 12),
                                seconds=outage_seconds))
        return cls(seed=seed, faults=tuple(faults))

    # -- seam resolution ----------------------------------------------------

    def task_faults(self, serial: int, attempt: int) -> Optional[TaskFaults]:
        """Resolve the plan for one worker-task dispatch.

        Only first attempts are targeted (transient-fault model); retried
        dispatches always run clean.  Returns ``None`` when nothing is
        planned, so the zero-fault path ships nothing extra to workers.
        """
        if attempt != 0:
            return None
        for fault in self.faults:
            if fault.kind in _TASK_KINDS and fault.task == serial:
                return TaskFaults(fault=fault)
        return None

    @property
    def log_faults(self) -> Tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind in _LOG_KINDS)

    @property
    def tracer_faults(self) -> Tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind == SLOW_IO)

    @property
    def worker_faults(self) -> Tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind in _TASK_KINDS)

    @property
    def store_faults(self) -> Tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind in _STORE_KINDS)

    @property
    def producer_faults(self) -> Tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind == PRODUCER_KILL)

    def describe(self) -> dict:
        """JSON-friendly summary (CLI/benchmark reporting)."""
        return {
            "seed": self.seed,
            "crashes": sum(1 for f in self.faults if f.kind == CRASH),
            "hangs": sum(1 for f in self.faults if f.kind == HANG),
            "torn_logs": sum(1 for f in self.faults if f.kind == TORN_LOG),
            "bitflips": sum(1 for f in self.faults if f.kind == BITFLIP_LOG),
            "splices": sum(1 for f in self.faults if f.kind == SPLICE_LOG),
            "slow_ios": sum(1 for f in self.faults if f.kind == SLOW_IO),
            "producer_kills": sum(
                1 for f in self.faults if f.kind == PRODUCER_KILL
            ),
            "flaky_stores": sum(
                1 for f in self.faults if f.kind == FLAKY_STORE
            ),
            "outages": sum(
                1 for f in self.faults if f.kind == STORE_OUTAGE
            ),
            "faults": [
                {
                    "kind": f.kind, "task": f.task,
                    "frac": round(f.frac, 6), "bit": f.bit,
                    "seconds": f.seconds, "every": f.every,
                }
                for f in self.faults
            ],
        }
