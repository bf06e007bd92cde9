"""Timing core of the end-to-end benchmark: meters, pace, statistics, spans.

Everything here is measured from outside the program: a :class:`Meter`
brackets one call into a public entry point, a :class:`Pace` samples the
machine's speed between those calls, a :class:`Spans` recorder keeps the
benchmark's own spans in memory, and :func:`env_stamp` records where a
result came from.
"""

from __future__ import annotations

import bisect
import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def cpu_split() -> Tuple[float, float]:
    """Self CPU (precise, ``process_time``) and reaped children's CPU.

    ``os.times`` counts children only once they are waited for, so a forked
    producer's CPU lands inside the meter that joins it.  Self CPU comes from
    ``process_time`` because ``os.times`` ticks at 10 ms.
    """
    times = os.times()
    return time.process_time(), times.children_user + times.children_system


def cpu_now() -> float:
    """Self plus reaped children's CPU (see :func:`cpu_split`)."""
    return sum(cpu_split())


class Meter:
    """Wall and CPU time of one bracketed region (``with Meter() as m``).

    ``start`` and ``end`` are the region's ``perf_counter`` bounds;
    ``children_cpu`` is the part of ``cpu`` spent by reaped children.
    """

    __slots__ = ("wall", "cpu", "children_cpu", "start", "end", "_cpu0")

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.children_cpu = 0.0

    def __enter__(self) -> "Meter":
        self._cpu0 = cpu_split()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.wall = self.end - self.start
        own, children = cpu_split()
        self.children_cpu = children - self._cpu0[1]
        self.cpu = own - self._cpu0[0] + self.children_cpu


# -- pace ----------------------------------------------------------------------

#: Wall seconds of one :func:`pace_loop` at the reference speed.  Every
#: reported time is scaled to that speed (see :class:`Pace`).
PACE_REFERENCE_S = 0.0025
#: The program's times move with the loop's time to this power.  Over ten
#: minutes on a 2-vCPU Xeon VM, the log-log slope of swarm-campaign and
#: check-logs time against the loop's time was 0.71 to 0.80 (correlation
#: 0.93 to 0.96): the tight loop slows more than the program does.
PACE_EXPONENT = 0.75
#: Least wall seconds between two pace samples taken by :meth:`Pace.tick`,
#: which keeps the loop near 2% of a run.
PACE_EVERY_S = 0.1


class _Cell:
    __slots__ = ("value", "seen")

    def __init__(self, value: int):
        self.value = value
        self.seen = 0


def _stepper(cells: list, stride: int, steps: int):
    for i in range(steps):
        cell = cells[(i * stride) % len(cells)]
        cell.seen += 1
        yield i, cell.value


def pace_loop(rounds: int = 40) -> int:
    """A fixed pure-Python loop, the mix the program runs: small objects,
    attribute and dict updates, string formatting and generator switches.

    It touches no program code, so a change to the program cannot move it.
    """
    table: Dict[int, int] = {}
    total = 0
    for r in range(rounds):
        cells = [_Cell(r * 64 + i) for i in range(64)]
        for i, cell in enumerate(cells):
            key = cell.value & 31
            table[key] = table.get(key, 0) + cell.value
            if i % 5 == 0:
                total += len(str(cell.value))
        threads = [_stepper(cells, stride, 24) for stride in (1, 3, 5, 7)]
        while threads:
            for thread in list(threads):
                try:
                    step, value = next(thread)
                except StopIteration:
                    threads.remove(thread)
                else:
                    total += step ^ value
    return total + len(table)


def _loop_seconds() -> float:
    """Wall seconds of one :func:`pace_loop`, garbage collection off so that
    the program's heap does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        pace_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def pin_cpus() -> Tuple[int, ...]:
    """Pin the calling thread to the first CPU it may run on.

    Returns that CPU and, when there is another, the second one, where a
    serve session's producer runs.  The two CPUs of a shared host slow down
    apart from each other, so a pace sample means something only for the
    CPU it ran on.
    """
    cpus = tuple(sorted(os.sched_getaffinity(0))[:2])
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


class Pace:
    """The machine's speed through one run, sampled between timed calls.

    On a shared host each CPU runs up to twice as slow for seconds to
    minutes at a time, and every timing taken then reads slower with it.
    A sample times :func:`pace_loop` once on each of ``cpus``; the calling
    thread is pinned to ``cpus[0]`` and returns there.  A time measured over
    ``[start, end]`` is multiplied by ``PACE_REFERENCE_S`` over the loop
    time, to the power ``PACE_EXPONENT``: it reads as it would at the
    reference speed.  The loop time is, on each CPU, the median of the
    samples from the last one before ``start`` to the first one after
    ``end``, averaged over the CPUs with ``weights`` (the call's CPU time on
    each; by default all on ``cpus[0]``).
    """

    def __init__(self, cpus: Sequence[int]):
        self.cpus = tuple(cpus)
        self.ends: List[float] = []  # perf_counter when each sample ended
        self.loops: List[List[float]] = [[] for _ in self.cpus]  # per CPU

    def sample(self) -> None:
        for loops, cpu in zip(self.loops, self.cpus):
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            loops.append(_loop_seconds())
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[0]})
        self.ends.append(time.perf_counter())

    def tick(self) -> None:
        """Sample unless the last sample is under ``PACE_EVERY_S`` old."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= PACE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float,
              weights: Sequence[float] = (1.0,)) -> float:
        """Reference speed over the machine's speed during ``[start, end]``."""
        if not self.ends:
            raise ValueError("no pace sample taken")
        first = max(0, bisect.bisect_right(self.ends, start) - 1)
        last = bisect.bisect_right(self.ends, end)
        pairs = [(weight, statistics.median(loops[first:last + 1]))
                 for weight, loops in zip(weights, self.loops)]
        loop = sum(w * x for w, x in pairs) / sum(w for w, _ in pairs)
        return (PACE_REFERENCE_S / loop) ** PACE_EXPONENT

    def summary(self) -> dict:
        return {"samples": len(self.ends),
                "cpus": list(self.cpus),
                "loop_ms_p50": [statistics.median(x) * 1e3 for x in self.loops],
                "loop_ms_min": [min(x) * 1e3 for x in self.loops],
                "loop_ms_max": [max(x) * 1e3 for x in self.loops],
                "reference_ms": PACE_REFERENCE_S * 1e3,
                "exponent": PACE_EXPONENT}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# -- statistics ----------------------------------------------------------------


def quartiles(values: Sequence[float]):
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(count: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median, p90, quartiles, sample count and the supported percentile."""
    q1, q3 = quartiles(values)
    top = supported_percentile(len(values))
    return {
        "samples": len(values),
        "p50": statistics.median(values),
        "p90": percentile(values, 90.0),
        "q1": q1,
        "q3": q3,
        "top_percentile": top,
        "top_value": percentile(values, top) if top is not None else None,
    }


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    name: str
    unit: object
    parent: Optional[int]
    wall0: float
    cpu0: float
    wall1: float = 0.0
    cpu1: float = 0.0
    children: List[int] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


class Spans:
    """The benchmark's own spans, kept in memory until the run ends.

    Each span has a name, start, end, parent and unit id, in wall time and
    in CPU time (self plus reaped children, see :func:`cpu_now`).  A span's
    self time is its duration minus the durations of its direct children.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, unit: object = None) -> "_SpanContext":
        return _SpanContext(self, name, unit)

    def _open(self, name: str, unit: object) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, unit, parent, time.perf_counter(), cpu_now()))
        if parent is not None:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.cpu1 = cpu_now()
        span.wall1 = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: self wall and self CPU summed over units.

        A span repeated within one unit counts once, at its fastest: on a
        shared machine, interference only ever adds time.
        """
        best: Dict[tuple, list] = {}
        for span in self.spans:
            wall = span.wall - sum(self.spans[c].wall for c in span.children)
            cpu = span.cpu - sum(self.spans[c].cpu for c in span.children)
            key = (span.name, span.unit)
            if key in best:
                best[key] = [min(best[key][0], wall), min(best[key][1], cpu)]
            else:
                best[key] = [wall, cpu]
        totals: Dict[str, Dict[str, float]] = {}
        for (name, _unit), (wall, cpu) in best.items():
            entry = totals.setdefault(name, {"wall": 0.0, "cpu": 0.0, "units": 0})
            entry["wall"] += wall
            entry["cpu"] += cpu
            entry["units"] += 1
        return totals

    def to_list(self) -> List[dict]:
        return [
            {
                "name": span.name,
                "unit": span.unit,
                "parent": span.parent,
                "start": span.wall0,
                "end": span.wall1,
                "cpu": span.cpu,
            }
            for span in self.spans
        ]


class _SpanContext:
    __slots__ = ("_spans", "_name", "_unit", "_index")

    def __init__(self, spans: Spans, name: str, unit: object):
        self._spans = spans
        self._name = name
        self._unit = unit

    def __enter__(self):
        self._index = self._spans._open(self._name, self._unit)
        return self

    def __exit__(self, *exc) -> None:
        self._spans._close(self._index)


# -- environment stamp ---------------------------------------------------------


def git_sha(root: str) -> Optional[str]:
    """HEAD of the checkout at ``root``; None outside a git checkout.

    ``GIT_CEILING_DIRECTORIES`` stops git from walking above ``root``, so a
    plain source tree never reports an enclosing repository's commit.
    """
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def speed_probe_ms() -> float:
    """CPU ms of a fixed pure-Python loop, best of three.

    The loop touches no program code, so it tracks only the machine: on a
    shared host it can read far slower for minutes at a time, and every
    timing of a run taken then reads slower with it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        sum(i * i % 7 for i in range(200_000))
        best = min(best, time.process_time() - start)
    return best * 1e3


def env_stamp(root: str, seed: int) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "speed_probe_ms": speed_probe_ms(),
        "seed": seed,
        "time": time.time(),
    }
