"""Fault injectors: log corruption, tracer latency, store brownouts.

These are the *mechanisms* behind a :class:`~repro.faults.plan.FaultPlan`:
:func:`tear` and :func:`bitflip` damage a saved log file in place,
:func:`apply_log_faults` resolves a plan's fractional offsets against a real
file, :class:`LatencyTracer` wraps a kernel tracer to simulate a slow log
device, and :class:`FlakyStore` wraps a serve-layer blob store to simulate
a browning-out backend (transient errors, latency spikes, blackout
windows).  All of them are deterministic given the plan: the same plan
applied to the same bytes damages the same offsets, and the same plan over
the same op sequence fails the same calls.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional

from ..concurrency.kernel import Tracer
from ..core.log import _CHAIN_HEADER, FRAME_FIXED, LogFormatError, read_prologue
from ..serve.store import WrappedStore
from .plan import (
    BITFLIP_LOG,
    FLAKY_STORE,
    SPLICE_LOG,
    STORE_OUTAGE,
    TORN_LOG,
    Fault,
    FaultPlan,
)


def tear(path: str, offset: int) -> int:
    """Truncate the file at ``offset`` (a torn write / lost tail).

    Returns the number of bytes discarded.  ``offset`` past the end is a
    no-op, matching a tear that happened to land after the last flush.
    """
    size = os.path.getsize(path)
    offset = max(0, min(offset, size))
    with open(path, "r+b") as handle:
        handle.truncate(offset)
    return size - offset


def bitflip(path: str, offset: int, bit: int = 0) -> int:
    """Flip one bit of the byte at ``offset`` in place.

    Returns the offset actually flipped (clamped into the file), modelling
    silent media corruption under an otherwise intact file.
    """
    size = os.path.getsize(path)
    if size == 0:
        return 0
    offset = max(0, min(offset, size - 1))
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ (1 << (bit % 8))]))
    return offset


def _frame_spans(path: str) -> List[tuple]:
    """``(start, end)`` byte spans of every frame in a chained log.

    Walks the frame headers only -- no CRC or chain checks, no unpickling --
    because the injector must be able to splice files it is about to
    declare corrupt.  A file that is not chained has no frame boundaries to
    splice at: no spans.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        shard, offset = read_prologue(data)
    except LogFormatError:
        shard = None
    if shard is None:
        return []
    spans = []
    while offset + FRAME_FIXED <= len(data):
        _seq, length, _crc = _CHAIN_HEADER.unpack_from(data, offset)
        end = offset + FRAME_FIXED + length
        if end > len(data):
            break
        spans.append((offset, end))
        offset = end
    return spans


def splice_records(path: str, offset: int) -> dict:
    """Swap the frame at ``offset`` with its successor, in place.

    A frame-aware record splice: both frames stay individually intact
    (lengths and CRCs verify), only their order changes -- the tampering a
    CRC alone cannot detect and the hash chain exists to catch.
    Returns the swapped record indices, or ``{"spliced": False}`` when the
    file has fewer than two whole frames (nothing to reorder).
    """
    spans = _frame_spans(path)
    if len(spans) < 2:
        return {"spliced": False}
    index = 0
    for i, (lo, hi) in enumerate(spans):
        if lo <= offset < hi:
            index = i
            break
    else:
        index = len(spans) - 1
    if index == len(spans) - 1:
        index -= 1
    (a_lo, a_hi), (b_lo, b_hi) = spans[index], spans[index + 1]
    with open(path, "r+b") as handle:
        data = bytearray(handle.read())
        swapped = data[b_lo:b_hi] + data[a_lo:a_hi]
        data[a_lo:b_hi] = swapped
        handle.seek(0)
        handle.write(data)
    return {"spliced": True, "records": (index, index + 1),
            "offsets": (a_lo, b_hi)}


def resolve_offset(fault: Fault, size: int) -> int:
    """Turn a fault's fractional position into a concrete byte offset.

    Offsets are kept strictly inside the payload region (past any leading
    byte, before the final byte) whenever the file is big enough, so a
    planned corruption always damages *something* rather than degenerating
    to an empty tear at offset 0 or past-the-end.
    """
    if size <= 2:
        return 0
    return 1 + int(fault.frac * (size - 2))


def apply_log_faults(path: str, plan: FaultPlan) -> List[dict]:
    """Damage ``path`` according to the plan's log faults, in plan order.

    Returns one record per applied fault (kind, resolved offset, and the
    discarded byte count for tears) so callers can cross-check recovery
    reports against ground truth.
    """
    applied = []
    for fault in plan.log_faults:
        size = os.path.getsize(path)
        offset = resolve_offset(fault, size)
        if fault.kind == TORN_LOG:
            lost = tear(path, offset)
            applied.append({"kind": TORN_LOG, "offset": offset, "lost": lost})
        elif fault.kind == BITFLIP_LOG:
            flipped = bitflip(path, offset, fault.bit)
            applied.append({"kind": BITFLIP_LOG, "offset": flipped,
                            "bit": fault.bit % 8})
        elif fault.kind == SPLICE_LOG:
            spliced = splice_records(path, offset)
            spliced["kind"] = SPLICE_LOG
            spliced["offset"] = offset
            applied.append(spliced)
    return applied


class LatencyTracer(Tracer):
    """Delegating tracer that adds wall-clock latency on a fixed cadence.

    Simulates a slow log device: every ``every``-th traced event sleeps for
    ``seconds`` before delegating.  The kernel consults only its scheduler
    for interleaving decisions, so the injected latency stretches wall-clock
    time without perturbing the schedule -- runs under a ``LatencyTracer``
    produce bit-identical logs to unfaulted runs (asserted in the fault
    campaign).
    """

    def __init__(self, inner: Tracer, plan: FaultPlan):
        self.inner = inner
        self.events = 0
        self.stalls = 0
        faults = plan.tracer_faults
        fault: Optional[Fault] = faults[0] if faults else None
        self._every = max(1, fault.every) if fault else 0
        self._seconds = fault.seconds if fault else 0.0

    def _tick(self) -> None:
        self.events += 1
        if self._every and self.events % self._every == 0:
            self.stalls += 1
            time.sleep(self._seconds)

    def on_write(self, tid, cell, old, new):
        self._tick()
        self.inner.on_write(tid, cell, old, new)

    def on_read(self, tid, cell):
        self._tick()
        self.inner.on_read(tid, cell)

    def on_acquire(self, tid, lock, mode="x"):
        self._tick()
        self.inner.on_acquire(tid, lock, mode)

    def on_release(self, tid, lock, mode="x"):
        self._tick()
        self.inner.on_release(tid, lock, mode)

    def on_commit(self, tid):
        self._tick()
        self.inner.on_commit(tid)

    def on_begin_commit_block(self, tid):
        self._tick()
        self.inner.on_begin_commit_block(tid)

    def on_end_commit_block(self, tid):
        self._tick()
        self.inner.on_end_commit_block(tid)

    def on_replay(self, tid, tag, payload):
        self._tick()
        self.inner.on_replay(tid, tag, payload)

    def on_spawn(self, parent_tid, child_tid):
        self._tick()
        self.inner.on_spawn(parent_tid, child_tid)

    def on_join(self, tid, child_tid):
        self._tick()
        self.inner.on_join(tid, child_tid)


#: Most consecutive :data:`~repro.faults.plan.FLAKY_STORE` failures, so a
#: bounded retry budget always gets through.
MAX_CONSECUTIVE = 2


class FlakyStore(WrappedStore):
    """Plan-driven brownout wrapper around a serve-layer ``LogStore``.

    Simulates a misbehaving blob backend for the retry layer
    (:class:`repro.serve.retry.RetryingStore`) to absorb.  Three behaviours,
    all drawn deterministically from the plan seed and the op serial:

    * :data:`~repro.faults.plan.FLAKY_STORE` -- each op fails with
      probability ``frac`` (raising
      :class:`~repro.serve.retry.TransientStoreError`), and every
      ``every``-th op stalls ``seconds`` before completing (a latency
      spike).  Consecutive failures are capped at :data:`MAX_CONSECUTIVE`
      so a bounded retry budget is always sufficient -- the transient-fault
      model every other injector here follows.
    * :data:`~repro.faults.plan.STORE_OUTAGE` -- once op serial ``task`` is
      reached, *every* op fails for ``seconds`` of wall-clock time (a
      blackout window); retry backoff is what rides past it.

    Every primitive but ``path`` is faulted (see
    :class:`~repro.serve.store.WrappedStore`).
    """

    def __init__(self, inner, plan: FaultPlan):
        import random

        super().__init__(inner)
        self.plan = plan
        flaky = [f for f in plan.store_faults if f.kind == FLAKY_STORE]
        outages = [f for f in plan.store_faults if f.kind == STORE_OUTAGE]
        self._flaky: Optional[Fault] = flaky[0] if flaky else None
        self._outage: Optional[Fault] = outages[0] if outages else None
        self._rng = random.Random(f"{plan.seed}:flaky-store")
        self._lock = threading.Lock()
        self._consecutive = 0
        self._outage_started: Optional[float] = None
        self.ops = 0
        self.failures = 0
        self.stalls = 0

    def _maybe_fail(self, op: str, name: str) -> float:
        """Raise a planned transient error or return a stall duration."""
        from ..serve.retry import TransientStoreError

        with self._lock:
            self.ops += 1
            serial = self.ops
            if self._outage is not None:
                start_at = self._outage.task or 0
                if self._outage_started is None and serial >= start_at:
                    self._outage_started = time.monotonic()
                if (
                    self._outage_started is not None
                    and time.monotonic() - self._outage_started
                    < self._outage.seconds
                ):
                    self.failures += 1
                    raise TransientStoreError(
                        f"store blackout: {op}({name!r}) at op {serial}"
                    )
            stall = 0.0
            if self._flaky is not None:
                fault = self._flaky
                roll = self._rng.random()
                if (
                    roll < fault.frac
                    and self._consecutive < MAX_CONSECUTIVE
                ):
                    self._consecutive += 1
                    self.failures += 1
                    raise TransientStoreError(
                        f"transient store error: {op}({name!r}) "
                        f"at op {serial}"
                    )
                self._consecutive = 0
                if fault.every and serial % fault.every == 0:
                    stall = fault.seconds
                    self.stalls += 1
            return stall

    def _call(self, op: str, name: str, fn, *args):
        stall = self._maybe_fail(op, name)
        if stall:
            time.sleep(stall)
        return fn(*args)
