"""Recorders: the measurement substrate of the verification pipeline.

The paper's evaluation (Tables 2-3) is a measurement story -- logging
overhead per granularity, checker cost online vs offline -- and the
follow-up literature on linearizability checking makes the same point:
knowing *where* checker time goes (witness commits vs observer re-evaluation
vs view refresh vs t-tilde overlay construction) is what guides
optimization.  This module provides the hooks every pipeline stage reports
into:

* :class:`Recorder` -- the protocol: counters, histograms, spans and
  instants.  Every method is a no-op, so the base class doubles as the
  interface documentation.
* :class:`NullRecorder` -- the default.  ``enabled`` is ``False`` and every
  hot path guards on it, so a pipeline without observability pays one
  attribute load and branch per guarded site (measured by
  ``benchmarks/bench_observability_overhead.py``; the budget is <= 5% on
  Table 2-class runs).
* :class:`MetricsRecorder` -- the real thing: monotonic counters, min/max/
  mean histograms, and span events on a *kernel-step-keyed* clock exported
  as Chrome trace-event JSON (see :mod:`repro.obs.trace`).

Span timestamps are keyed to kernel step-time, not wall-clock: the
deterministic substrate's only meaningful notion of "when" is the scheduler
step, so two runs of the same seed produce the same event ordering.  Each
step is :data:`TICKS_PER_STEP` trace ticks wide and events opened within one
step are sequenced inside it.  Wall-clock is still measured per span and
aggregated into :attr:`MetricsRecorder.phase_wall` (seconds per span name),
which is what the profiling report attributes cost with.

Counters and histograms are deterministic (pure functions of the seed);
span wall-times are not.  :meth:`MetricsRecorder.counters_snapshot` returns
only the deterministic part, which is what crosses process boundaries when
the parallel explorer merges per-worker metrics -- merged campaign metrics
compare equal between serial and parallel engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Width of one kernel step on the trace timeline, in trace ticks
#: (microseconds, as far as trace viewers are concerned).  Spans opened
#: within a single step are sequenced by arrival inside this window.
TICKS_PER_STEP = 1000

#: Synthetic pid stamped on every trace event (one recorder = one "process").
TRACE_PID = 1


class _NullSpan:
    """Shared no-op context manager returned by disabled recorders."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Observer protocol for pipeline measurements.

    All methods are no-ops; subclasses override what they record.  Hot call
    sites must guard on :attr:`enabled` before building span arguments, so a
    disabled recorder costs one attribute load and branch.
    """

    #: Fast-path guard: hot code does ``if recorder.enabled: ...``.
    enabled: bool = False

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the monotonic counter ``name``."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""

    def span(self, name: str, cat: str = "", tid: int = 0, **args):
        """A context manager timing one pipeline phase occurrence."""
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "", tid: int = 0, **args) -> None:
        """A zero-duration event (e.g. one tracer append)."""

    def bind_step_clock(self, clock: Callable[[], int]) -> None:
        """Key subsequent event timestamps to ``clock()`` (kernel steps)."""


class NullRecorder(Recorder):
    """The zero-cost default: records nothing, ``enabled`` stays False."""


#: Shared default instance -- ``obs or NULL_RECORDER`` is the wiring idiom.
NULL_RECORDER = NullRecorder()


@dataclass
class Histogram:
    """Streaming min/max/mean summary of one sample stream."""

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def merge(self, other: dict) -> None:
        """Fold a ``to_dict()`` snapshot (possibly from another process) in."""
        self.count += other["count"]
        self.total += other["total"]
        for key, pick in (("min", min), ("max", max)):
            value = other.get(key)
            if value is not None:
                current = getattr(self, key)
                setattr(self, key, value if current is None else pick(current, value))


class _Span:
    """Context manager emitting one complete ("X") trace event on exit."""

    __slots__ = ("_recorder", "_name", "_cat", "_tid", "_args", "_ts", "_wall")

    def __init__(self, recorder: "MetricsRecorder", name: str, cat: str,
                 tid: int, args: dict):
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args

    def __enter__(self):
        self._ts = self._recorder._now()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        recorder = self._recorder
        wall = time.perf_counter() - self._wall
        recorder.phase_wall[self._name] = (
            recorder.phase_wall.get(self._name, 0.0) + wall
        )
        recorder.count("span." + self._name)
        end = recorder._now()
        args = self._args
        args["wall_us"] = round(wall * 1e6, 1)
        recorder._emit({
            "name": self._name,
            "cat": self._cat or "vyrd",
            "ph": "X",
            "pid": TRACE_PID,
            "tid": self._tid,
            "ts": self._ts,
            "dur": max(end - self._ts, 0),
            "args": args,
        })
        return False


class MetricsRecorder(Recorder):
    """Counters + histograms + span events on a step-keyed clock.

    Parameters
    ----------
    max_events:
        Cap on retained trace events.  Events beyond the cap are dropped
        (but still counted -- ``dropped_events`` and the per-span counters
        and wall totals keep accumulating, so aggregate numbers never lie).
        ``max_events=0`` keeps counters/histograms only, which is the
        configuration the parallel explorer ships to worker processes.
    """

    enabled = True

    def __init__(self, max_events: int = 200_000):
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events: List[dict] = []
        self.phase_wall: Dict[str, float] = {}
        self.dropped_events = 0
        self._max_events = max_events
        self._step_clock: Optional[Callable[[], int]] = None
        self._last_step = 0
        self._seq = 0

    # -- clock ---------------------------------------------------------------

    def bind_step_clock(self, clock: Callable[[], int]) -> None:
        self._step_clock = clock

    def _now(self) -> int:
        """Current trace timestamp: kernel step widened to ticks, sequenced
        within the step so events opened in one step stay ordered."""
        step = self._step_clock() if self._step_clock is not None else 0
        if step != self._last_step:
            self._last_step = step
            self._seq = 0
        elif self._seq < TICKS_PER_STEP - 1:
            self._seq += 1
        return step * TICKS_PER_STEP + self._seq

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def span(self, name: str, cat: str = "", tid: int = 0, **args) -> _Span:
        return _Span(self, name, cat, tid, args)

    def instant(self, name: str, cat: str = "", tid: int = 0, **args) -> None:
        self.count("span." + name)
        self._emit({
            "name": name,
            "cat": cat or "vyrd",
            "ph": "i",
            "s": "t",
            "pid": TRACE_PID,
            "tid": tid,
            "ts": self._now(),
            "args": args,
        })

    def _emit(self, event: dict) -> None:
        if len(self.events) >= self._max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    # -- snapshots & merging ---------------------------------------------------

    def counters_snapshot(self) -> dict:
        """The deterministic part: counters and histograms, no wall-clock.

        This is what crosses process boundaries -- two campaigns over the
        same seeds merge to identical snapshots regardless of how the work
        was sharded.
        """
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
        }

    def merge_counts(self, snapshot: Optional[dict]) -> None:
        """Fold a :meth:`counters_snapshot` (e.g. from a worker process) in."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge(data)

    def to_dict(self) -> dict:
        """Full JSON-serializable summary (the CLI's ``--json`` of ``run``,
        ``explore``, ``faults`` and ``serve`` with ``--metrics``)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
            "phase_wall_ms": {
                name: round(seconds * 1e3, 3)
                for name, seconds in sorted(self.phase_wall.items())
            },
            "trace_events": len(self.events),
            "dropped_events": self.dropped_events,
        }


def merge_snapshots(snapshots) -> Optional[dict]:
    """Merge deterministic counter snapshots from many workers into one.

    ``None`` entries are skipped; returns ``None`` when nothing was
    collected (metrics were not requested).
    """
    merged: Optional[MetricsRecorder] = None
    for snapshot in snapshots:
        if snapshot is None:
            continue
        if merged is None:
            merged = MetricsRecorder(max_events=0)
        merged.merge_counts(snapshot)
    return merged.counters_snapshot() if merged is not None else None
