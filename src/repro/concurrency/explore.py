"""Schedule exploration on top of the deterministic kernel.

The paper deliberately trades completeness for scalability: VYRD checks the
single interleaving produced by one run.  Because our substrate is a
deterministic simulator, we can do better on small instances -- this module
adds two exploration drivers (an *extension* relative to the paper, recorded
in DESIGN.md):

* :func:`explore_exhaustive` -- depth-first enumeration of **all** schedules
  of a program up to a run budget, using :class:`ReplayScheduler` decision
  vectors.  On small programs this turns VYRD into a bounded model checker
  for refinement.
* :func:`explore_swarm` -- a portfolio of seeded random schedules; this is
  the paper's "large numbers of repetitions of the same experiment"
  methodology packaged as a reusable driver.

Both drivers take a ``program``: a callable that accepts a
:class:`~repro.concurrency.schedulers.Scheduler`, builds a fresh kernel plus
data structures, runs to completion, and returns an arbitrary outcome value
(or raises).  The drivers aggregate outcomes and first failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from .schedulers import RandomScheduler, ReplayScheduler, Scheduler


@dataclass
class RunRecord:
    """Outcome of a single explored run."""

    schedule: Any  # decision vector or seed
    outcome: Any = None
    error: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ExplorationResult:
    """Aggregate result of an exploration campaign."""

    runs: List[RunRecord] = field(default_factory=list)
    exhausted: bool = False  # exhaustive mode: True if the space was covered
    # Campaign accounting (swarm mode): how many runs were asked for, and how
    # many of those never ran (stop_on_failure cut the campaign short, or a
    # parallel driver cancelled outstanding work).  ``requested`` is None for
    # exhaustive campaigns, whose budget is a cap rather than a target.
    requested: Optional[int] = None
    skipped: int = 0
    # Schedule-reduction accounting (``--reduce static``): subtree roots the
    # sleep sets removed without executing.  In reduced exhaustive campaigns
    # ``skipped == pruned`` and ``requested == num_runs + skipped``, so the
    # invariant requested == executed + skipped holds in every mode; swarm
    # campaigns keep pruned == 0 (their skips are cancelled seeds).
    pruned: int = 0
    # Infrastructure incidents survived while producing the result: retries,
    # worker crashes, pool rebuilds, hang kills (dicts, see
    # concurrency.resilient).  Deliberately excluded from signature() -- a
    # campaign that recovered from faults must compare equal to one that
    # never saw any.
    interruptions: List[dict] = field(default_factory=list)
    # Merged observability counters/histograms (repro.obs snapshot shape)
    # when the campaign ran with metrics enabled; None otherwise.  Only the
    # deterministic part of the recorders crosses process boundaries, so a
    # full campaign produces the same metrics under any job count -- but,
    # like interruptions, excluded from signature(): a stop_on_failure
    # campaign may have speculatively executed (and measured) runs a serial
    # one never started.
    metrics: Optional[dict] = None

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    @property
    def failures(self) -> List[RunRecord]:
        return [r for r in self.runs if r.failed]

    @property
    def first_failure(self) -> Optional[RunRecord]:
        for record in self.runs:
            if record.failed:
                return record
        return None

    def outcomes(self) -> set:
        """Distinct outcome values across successful runs."""
        return {r.outcome for r in self.runs if not r.failed}

    def signature(self) -> dict:
        """Canonical digest of the campaign, for serial/parallel comparison.

        Errors are reduced to ``(type name, message)`` so that a failure
        revived from a worker process (whose exception object is a
        :class:`~repro.concurrency.parallel.RemoteError` surrogate) compares
        equal to the in-process original; schedules are normalized to tuples.
        Two campaigns that explored the same schedules to the same outcomes
        have equal signatures regardless of which engine produced them.
        """
        runs = []
        for record in self.runs:
            schedule = record.schedule
            if isinstance(schedule, list):
                schedule = tuple(schedule)
            if record.failed:
                error = record.error
                name = getattr(error, "remote_type", type(error).__name__)
                runs.append((schedule, None, (name, str(error))))
            else:
                runs.append((schedule, record.outcome, None))
        return {"runs": runs, "exhausted": self.exhausted}

    def to_dict(self) -> dict:
        """JSON-serializable summary (CLI ``explore --json``)."""
        return {
            "num_runs": self.num_runs,
            "requested": self.requested,
            "skipped": self.skipped,
            "pruned": self.pruned,
            "exhausted": self.exhausted,
            "num_failures": len(self.failures),
            "interruptions": list(self.interruptions),
            "outcomes": sorted(repr(o) for o in self.outcomes()),
            "metrics": self.metrics,
            "failures": [
                {
                    "schedule": r.schedule,
                    "error_type": getattr(
                        r.error, "remote_type", type(r.error).__name__
                    ),
                    "error": str(r.error),
                }
                for r in self.failures
            ],
        }


def _program_metrics(program) -> Optional[dict]:
    """Deterministic snapshot of a resolved program's recorder, if any.

    :meth:`repro.harness.ProgramSpec.resolve_program` attaches the
    accumulating :class:`repro.obs.MetricsRecorder` as ``obs_recorder``;
    plain callables without one yield ``None``.
    """
    recorder = getattr(program, "obs_recorder", None)
    if recorder is None:
        return None
    return recorder.counters_snapshot()


def _detached(exc: BaseException) -> BaseException:
    """``exc`` with the traceback frames dropped along its cause/context chain.

    A failed run's traceback frames hold its kernel, program and log, and
    reach back to the run's record, so keeping them would pin every failed
    run in a reference cycle only the cyclic GC frees.  Type and message
    stay, as in the wire tuples of the ``jobs>1`` path.
    """
    stack, seen = [exc], set()
    while stack:
        link = stack.pop()
        if link is None or id(link) in seen:
            continue
        seen.add(id(link))
        link.__traceback__ = None
        stack += (link.__cause__, link.__context__)
    return exc


class _AlwaysFirst(Scheduler):
    """Fallback for exhaustive DFS: always take alternative 0, so that the
    backtracking increment enumerates every subtree exactly once."""

    def pick(self, runnable: Sequence, step: int):
        return runnable[0]  # lowest tid: the READY tuple is in tid order


def explore_exhaustive(
    program: Callable[[Scheduler], Any],
    max_runs: int = 10_000,
    stop_on_failure: bool = False,
    reducer=None,
) -> ExplorationResult:
    """Enumerate schedules depth-first until the space or budget is exhausted.

    The enumeration works backwards from each completed run's decision trace:
    the deepest decision point with an untried alternative is incremented and
    everything after it is dropped, exactly like iterative DFS over the
    schedule tree.  Beyond the scripted prefix, every run takes alternative 0
    at each new decision point (so increments cover the whole tree).

    With a ``reducer`` (:class:`repro.concurrency.reduction.StaticReducer`),
    the same tree is walked with sleep sets: schedules that differ from an
    explored one only by swaps of statically-independent steps are pruned
    (counted in ``result.pruned``/``skipped``) instead of executed.  The
    reduced campaign reports the same outcome set as the unreduced one.
    """
    if reducer is not None:
        return _explore_exhaustive_reduced(
            program, max_runs, stop_on_failure, reducer
        )
    result = ExplorationResult()
    prefix: List[int] = []
    while len(result.runs) < max_runs:
        scheduler = ReplayScheduler(decisions=prefix, fallback=_AlwaysFirst())
        record = RunRecord(schedule=list(prefix))
        try:
            record.outcome = program(scheduler)
        except Exception as exc:  # outcome of interest, not a crash of ours
            record.error = _detached(exc)
        result.runs.append(record)
        record.schedule = [index for index, _ in scheduler.trace]
        if record.failed and stop_on_failure:
            break
        # Back up to the deepest choice point with an untried alternative.
        trace = scheduler.trace
        next_prefix = None
        for depth in range(len(trace) - 1, -1, -1):
            index, num_choices = trace[depth]
            if index + 1 < num_choices:
                next_prefix = [i for i, _ in trace[:depth]] + [index + 1]
                break
        if next_prefix is None:
            result.exhausted = True
            break
        prefix = next_prefix
    result.metrics = _program_metrics(program)
    return result


def _explore_exhaustive_reduced(
    program: Callable[[Scheduler], Any],
    max_runs: int,
    stop_on_failure: bool,
    reducer,
) -> ExplorationResult:
    """Sleep-set DFS over the schedule tree (see ``reduction``).

    Works from an explicit frontier of ``(prefix, sleep)`` entries: each run
    replays its prefix with its inherited sleep set and generates its own
    unexplored siblings, so this loop is the one-worker instance of the
    protocol :func:`repro.concurrency.parallel.parallel_exhaustive` shards.
    Runs are reported in schedule-lexicographic order (the unreduced DFS
    order) unless ``stop_on_failure`` truncates the campaign.
    """
    from .reduction import ReducedReplayScheduler

    result = ExplorationResult()
    stack: List[tuple] = [([], {})]
    pruned = 0
    while stack and len(result.runs) < max_runs:
        prefix, sleep = stack.pop()
        scheduler = ReducedReplayScheduler(
            decisions=prefix, sleep=sleep, reducer=reducer
        )
        record = RunRecord(schedule=list(prefix))
        try:
            record.outcome = program(scheduler)
        except Exception as exc:
            record.error = _detached(exc)
        record.schedule = [index for index, _ in scheduler.trace]
        result.runs.append(record)
        if record.failed and stop_on_failure:
            break
        entries, newly_pruned = scheduler.siblings()
        pruned += newly_pruned
        # LIFO: push (depth ascending, alternative descending) so pops walk
        # the deepest decision point first, lowest alternative first -- the
        # unreduced DFS order.
        stack.extend(
            sorted(entries, key=lambda e: (len(e[0]), -e[0][-1]))
        )
    else:
        if not stack:
            result.exhausted = True
    if result.first_failure is None or not stop_on_failure:
        result.runs.sort(key=lambda r: tuple(r.schedule))
    result.pruned = pruned
    result.skipped = pruned
    result.requested = len(result.runs) + pruned
    result.metrics = _program_metrics(program)
    return result


def explore_swarm(
    program: Callable[[Scheduler], Any],
    num_runs: int = 100,
    base_seed: int = 0,
    stop_on_failure: bool = False,
    scheduler_factory: Callable[[int], Scheduler] = None,
) -> ExplorationResult:
    """Run ``program`` under ``num_runs`` differently seeded random schedules."""
    make = scheduler_factory or (lambda seed: RandomScheduler(seed))
    result = ExplorationResult(requested=num_runs)
    for i in range(num_runs):
        seed = base_seed + i
        record = RunRecord(schedule=seed)
        try:
            record.outcome = program(make(seed))
        except Exception as exc:
            record.error = _detached(exc)
        result.runs.append(record)
        if record.failed and stop_on_failure:
            break
    result.skipped = num_runs - len(result.runs)
    result.metrics = _program_metrics(program)
    return result
