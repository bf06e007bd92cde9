"""Human-readable profiling reports over a :class:`MetricsRecorder`.

``--metrics`` on ``run``, ``explore``, ``faults`` and ``serve`` prints these
tables; the same numbers round-trip through ``--json`` as
:meth:`MetricsRecorder.to_dict`.
"""

from __future__ import annotations

from typing import List

from .recorder import MetricsRecorder


def format_metrics(recorder: MetricsRecorder, title: str = "pipeline profile") -> str:
    """Render phase wall totals, counters and histograms as paper-style tables."""
    # Imported lazily: harness.metrics is a leaf module, but the harness
    # package __init__ pulls in the runner (and through it most of repro),
    # which must not happen while repro.core is still importing us.
    from ..harness.metrics import render_table

    sections: List[str] = []
    if recorder.phase_wall:
        rows = []
        for name in sorted(
            recorder.phase_wall, key=recorder.phase_wall.get, reverse=True
        ):
            rows.append((
                name,
                recorder.counters.get("span." + name, 0),
                recorder.phase_wall[name] * 1e3,
            ))
        sections.append(render_table(
            f"{title}: wall-clock by phase", ("phase", "spans", "total ms"), rows
        ))
    plain = {
        name: value for name, value in recorder.counters.items()
        if not name.startswith("span.")
    }
    if plain:
        sections.append(render_table(
            f"{title}: counters", ("counter", "value"),
            [(name, plain[name]) for name in sorted(plain)],
        ))
    if recorder.histograms:
        rows = []
        for name in sorted(recorder.histograms):
            histogram = recorder.histograms[name]
            rows.append((
                name, histogram.count, histogram.mean, histogram.min, histogram.max,
            ))
        sections.append(render_table(
            f"{title}: distributions", ("metric", "samples", "mean", "min", "max"),
            rows,
        ))
    if recorder.dropped_events:
        sections.append(
            f"note: {recorder.dropped_events} trace event(s) beyond the "
            f"retention cap were dropped (aggregates above remain complete)"
        )
    if not sections:
        sections.append(f"== {title} ==\n(nothing recorded)")
    return "\n\n".join(sections)
