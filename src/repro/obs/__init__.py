"""Observability for the verification pipeline: metrics, spans, trace export.

Zero-cost when disabled: every pipeline stage holds a
:class:`Recorder` (default :data:`NULL_RECORDER`) and guards its recording
sites on ``recorder.enabled``.  Pass a :class:`MetricsRecorder` through
``Vyrd(obs=...)`` / ``Kernel(obs=...)`` / ``run_program(obs=...)`` (or use
``--metrics`` / ``--trace-out`` on the CLI) to collect:

* **counters** -- actions logged by type, commits checked, replay writes,
  t-tilde overlay constructions, verifier polls, scheduler steps per thread,
  pool retries/breaks, linearization-search work (``linz.nodes``,
  ``linz.memo_hits``, ``linz.prunes``, ``linz.exhausted_searches``);
* **histograms** -- observer-window sizes, view units recomputed per commit,
  overlay rollback sizes, linearization search depth and pending-set width
  (``linz.search_depth`` / ``linz.pending_width``);
* **spans** -- every pipeline phase (kernel step, tracer append, checker
  feed, witness commit, observer re-evaluation, view refresh, coarse
  replay, log recovery, the ``linz.search`` linearization search) on a
  kernel-step-keyed clock, exported as Chrome trace-event JSON via
  :func:`write_trace` and loadable in Perfetto.

See ``docs/ARCHITECTURE.md`` section 10 for the recorder protocol, the span
taxonomy and the overhead guarantees.
"""

from .recorder import (
    NULL_RECORDER,
    TICKS_PER_STEP,
    Histogram,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    merge_snapshots,
)
from .report import format_metrics
from .trace import (
    trace_events,
    validate_trace_events,
    validate_trace_file,
    write_trace,
)

__all__ = [
    "Histogram",
    "MetricsRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "TICKS_PER_STEP",
    "format_metrics",
    "merge_snapshots",
    "trace_events",
    "validate_trace_events",
    "validate_trace_file",
    "write_trace",
]
