"""Aggregation and table formatting for the paper's result tables.

* :func:`mean` -- average over the measurements that exist (``None``
  entries are absent measurements, not zeros).
* :func:`fmt` / :func:`render_table` -- plain-text tables in the style of
  the paper's Tables 1-3.

Timing is not done here: the experiment drivers read the clock they need
directly (``time.process_time`` for the paper's single-process CPU-time
tables, ``time.perf_counter`` for anything spanning worker processes or
sleeps), and the end-to-end benchmark keeps its own timing harness
(``benchmarks/e2e/timing.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def mean(values: Iterable[Optional[float]]) -> Optional[float]:
    """Arithmetic mean, skipping ``None`` entries (absent measurements).

    Returns ``None`` when no numeric values remain.
    """
    numeric = [v for v in values if v is not None]
    if not numeric:
        return None
    return sum(numeric) / len(numeric)


def fmt(value, width: int = 10, digits: int = 3) -> str:
    """Format one table cell."""
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.{digits}f}".rjust(width)
    return str(value).rjust(width)


def _is_numeric_cell(cell) -> bool:
    return cell is None or (
        isinstance(cell, (int, float)) and not isinstance(cell, bool)
    )


def render_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Plain-text table in the style of the paper's Tables 1-3.

    Numeric columns (every original cell a number or ``None``, with at
    least one number) are right-aligned; string columns stay left-aligned.
    Pre-formatted string cells are used verbatim.
    """
    rows = [list(r) for r in rows]
    widths = [len(h) for h in headers]
    # A column is right-aligned iff nothing but numbers (or missing values)
    # ever lands in it -- a single string cell makes it textual, and a
    # column of only ``None`` placeholders has nothing to align as numbers.
    saw_number = [False] * len(headers)
    all_numeric = [True] * len(headers)
    for row in rows:
        for i, cell in enumerate(row):
            if not _is_numeric_cell(cell):
                all_numeric[i] = False
            elif cell is not None:
                saw_number[i] = True
    numeric_col = [a and s for a, s in zip(all_numeric, saw_number)]
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = [
            cell if isinstance(cell, str) else fmt(cell, 0)
            for cell in row
        ]
        rendered_rows.append(rendered)
        for i, cell in enumerate(rendered):
            widths[i] = max(widths[i], len(cell))
    lines = [f"== {title} =="]
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for rendered in rendered_rows:
        lines.append(
            " | ".join(
                cell.rjust(widths[i]) if numeric_col[i] else cell.ljust(widths[i])
                for i, cell in enumerate(rendered)
            )
        )
    return "\n".join(lines)
