"""Schedule exploration on top of the deterministic kernel: one frontier.

The paper deliberately trades completeness for scalability: VYRD checks the
single interleaving produced by one run.  Because our substrate is a
deterministic simulator, we can do better on small instances -- this module
explores many schedules of one program (an *extension* relative to the
paper, recorded in DESIGN.md):

* :func:`explore_exhaustive` -- depth-first enumeration of **all** schedules
  of a program up to a run budget, using :class:`ReplayScheduler` decision
  vectors.  On small programs this turns VYRD into a bounded model checker
  for refinement.  A ``reducer``
  (:class:`~repro.concurrency.reduction.StaticReducer`) prunes schedules
  that differ from an explored one only by swaps of independent steps.
* :func:`explore_swarm` -- a portfolio of seeded random schedules; this is
  the paper's "large numbers of repetitions of the same experiment"
  methodology packaged as a reusable driver.

Both take a ``program``: a callable that accepts a
:class:`~repro.concurrency.schedulers.Scheduler`, builds a fresh kernel plus
data structures, runs to completion, and returns an arbitrary outcome value
(or raises) -- or, for ``jobs>1``, a picklable program source (see
:func:`repro.concurrency.parallel.resolve_program`).

**One frontier.**  A task is a swarm seed or an exhaustive ``(prefix,
sleep)`` entry.  :func:`_run_batch` -- the one place a program meets a
scheduler -- runs a batch of tasks and returns their records, their
unexplored children and the number of subtrees the sleep sets pruned.  An
exhaustive task performs exactly one run: replay ``prefix``, then take the
fallback at every later decision (alternative 0, or the first thread not
asleep).  Its children are ``trace[:d] + [alt]`` for every untried ``alt``
at a depth ``d >= len(prefix)``.  Every schedule has a unique generating
prefix (truncate after its last non-fallback decision), so each is run
exactly once, with no coordination between workers.

**Dispatch.**  ``jobs=1`` calls :func:`_run_batch` in-process on one task
at a time, taken from a depth-first stack of child iterators.  Without a
reducer that stack stays one iterator deep: when a run is taken from a
sibling iterator, the iterator is replaced by one over the new run's whole
trace, which in DFS order holds every sibling still pending -- the
classic backtracking step, so pending work stays proportional to the tree
depth.  ``jobs>1`` sends the same function through a
:class:`~repro.concurrency.resilient.ResilientPool` (deadlines, retries,
worker-death recovery, poison isolation by splitting): a swarm's seed
chunks go up front, exhaustive children join a FIFO frontier cut into
batches.  Swarm seeds stay a lazy ``range`` throughout.

**Canonical order.**  Runs are reported in ascending seed order (swarm) or
lexicographic decision-vector order (exhaustive), and ``stop_on_failure``
truncates after the first failure in that order.  The ``jobs=1`` stack
emits that order as it goes; the pool sorts what its workers return.  A
complete campaign therefore has the same :meth:`ExplorationResult.signature`
at every job count, and a retried batch reproduces byte-identical records,
so a campaign that survived faults compares equal to one that saw none.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from ..obs import merge_snapshots
from .parallel import (
    ExplorationTimeout,
    RemoteError,
    _OncePickledSource,
    resolve_program,
)
from .reduction import ReducedReplayScheduler
from .resilient import ResilientPool, RetryPolicy
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
    # Campaign accounting, by mode:
    # * swarm: ``requested`` is num_runs and ``skipped`` counts the seeds
    #   that never ran (stop_on_failure ended the campaign), so
    #   requested == num_runs + skipped; ``pruned`` stays 0.
    # * reduced exhaustive (``--reduce static``): ``pruned`` counts the
    #   subtree roots the sleep sets removed without executing,
    #   ``skipped == pruned`` and ``requested == num_runs + skipped``.
    # * unreduced exhaustive: the budget is a cap rather than a target, so
    #   ``requested`` stays None and ``skipped``/``pruned`` stay 0.
    requested: Optional[int] = None
    skipped: int = 0
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
    stay, as in the :class:`RemoteError` surrogates of the ``jobs>1`` path.
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


# ---------------------------------------------------------------------------
# The frontier: tasks, the batch runner, and the two dispatchers
# ---------------------------------------------------------------------------


def _scheduler(task, reducer) -> Scheduler:
    """The scheduler that runs one frontier task."""
    if isinstance(task, int):
        return RandomScheduler(task)
    prefix, sleep = task
    if reducer is None:
        return ReplayScheduler(prefix, fallback=_AlwaysFirst())
    return ReducedReplayScheduler(prefix, sleep=sleep, reducer=reducer)


def _unexplored(schedule: List[int], trace: List[tuple], start: int):
    """Unreduced children of one run: each untried alternative at a depth
    ``>= start`` of its trace, deepest first (DFS order)."""
    for depth in range(len(trace) - 1, start - 1, -1):
        chosen, width = trace[depth]
        for alt in range(chosen + 1, width):
            yield schedule[:depth] + [alt], None


def _run_batch(program, reducer, tasks, stop_on_failure=False, remote=False):
    """Run each task once; return ``(records, children, pruned)``.

    ``children`` holds, per exhaustive run, its unexplored child tasks
    deepest first; ``pruned`` counts the sibling subtrees the sleep sets
    removed.  ``stop_on_failure`` ends the batch at its first failure, which
    is right only for tasks in canonical order (swarm seeds).

    ``remote`` marks a pool worker: errors become picklable
    :class:`RemoteError` surrogates, and unreduced children cover only the
    depths below each task's prefix.  In-process, failures keep their type
    with the traceback dropped, and unreduced children cover the whole
    trace, lazily: on the ``jobs=1`` stack they replace the iterator the
    task came from (see the module docstring).
    """
    records, children, pruned = [], [], 0
    for task in tasks:
        scheduler = _scheduler(task, reducer)
        record = RunRecord(schedule=task)
        try:
            record.outcome = program(scheduler)
        except Exception as exc:  # outcome of interest, not a crash of ours
            record.error = RemoteError.of(exc) if remote else _detached(exc)
        records.append(record)
        if isinstance(task, int):
            if record.failed and stop_on_failure:
                break
            continue
        trace = scheduler.trace
        record.schedule = [index for index, _ in trace]
        if reducer is None:
            start = len(task[0]) if remote else 0
            children.append(_unexplored(record.schedule, trace, start))
        else:
            entries, newly_pruned = scheduler.siblings()
            pruned += newly_pruned
            children.append(sorted(entries, key=lambda e: -len(e[0])))
    return records, children, pruned


def _explore_in_process(program, reducer, tasks, budget, stop_on_failure):
    """The ``jobs=1`` dispatcher: a depth-first stack of task iterators."""
    result = ExplorationResult()
    stack = [iter(tasks)]
    while stack and result.num_runs < budget:
        task = next(stack[-1], None)
        if task is None:
            stack.pop()
            continue
        records, children, pruned = _run_batch(program, reducer, (task,))
        result.runs += records
        if stop_on_failure and records[0].failed:
            break
        result.pruned += pruned
        if children and reducer is None:
            stack[-1] = children[0]  # the new trace holds every pending sibling
        elif children:
            stack.append(iter(children[0]))
    else:
        # Out of budget or out of tasks: the tree is covered iff no task is
        # left on the stack (the probe consumes one, which no longer matters).
        result.exhausted = not any(True for pending in stack for _ in pending)
    result.metrics = _program_metrics(program)
    return result


def _pool_batch(source, reducer, stop_on_failure, tasks, inject=None):
    """:func:`_run_batch` in a worker: picklable results, children in the
    shallowest-first order of the pool's FIFO frontier, and the batch's
    deterministic metrics snapshot.  ``inject`` is the fault hook resolved
    for this dispatch, applied first so that a planned crash or hang takes
    the whole batch down, exactly like a real worker death."""
    if inject is not None:
        inject.apply()
    program = resolve_program(source)
    records, children, pruned = _run_batch(
        program, reducer, tasks, stop_on_failure, remote=True
    )
    found = [
        task for kids in children for task in sorted(kids, key=lambda t: len(t[0]))
    ]
    return records, found, pruned, _program_metrics(program)


def _split(tasks) -> Optional[list]:
    return [[task] for task in tasks] if len(tasks) > 1 else None


def _combine(parts: List[tuple]) -> tuple:
    return (
        [record for part in parts for record in part[0]],
        [task for part in parts for task in part[1]],
        sum(part[2] for part in parts),
        merge_snapshots(part[3] for part in parts),
    )


def _give_up(tasks, failure) -> tuple:
    """Records for tasks still crashing or hung after isolation and every
    retry.  The subtree below an abandoned prefix stays unexplored."""
    records = []
    for task in tasks:
        schedule = task if isinstance(task, int) else list(task[0])
        records.append(RunRecord(schedule, error=ExplorationTimeout(
            schedule, kind=failure.kind, attempts=failure.attempts,
            detail=failure.message,
        )))
    return records, [], 0, None


def _fold_pool_counters(metrics: Optional[dict], events: List[dict]) -> Optional[dict]:
    """Count pool incidents (retries, rebuilds, hang kills) into ``metrics``.

    ``pool.*`` counters reflect infrastructure luck, not the program under
    test: a fault-free campaign has none, so the deterministic
    serial==parallel metrics guarantee is untouched.
    """
    if metrics is None or not events:
        return metrics
    counters = metrics["counters"]
    for event in events:
        name = "pool.events." + str(event.get("kind", "unknown"))
        counters[name] = counters.get(name, 0) + 1
    return metrics


def _explore_pool(source, reducer, tasks, budget, stop_on_failure, ordered,
                  jobs, chunk_size, policy, faults) -> ExplorationResult:
    """The ``jobs>1`` dispatcher: :func:`_run_batch` in worker processes.

    ``ordered`` tasks (swarm seeds) are in canonical order and have no
    children: they go to the pool up front as :func:`_swarm_chunks`, merge
    in submission order, and with ``stop_on_failure`` the first failure
    ends the campaign.  Otherwise ``tasks`` seed a FIFO frontier that the
    children of every run join; batches of ``chunk_size`` are cut from it,
    with at most ``2 * jobs`` in flight and ``budget`` tasks in all.  Their
    results merge as they complete, a failure stops new dispatch while the
    batches in flight drain, and the runs are sorted at the end.
    ``faults`` is a :class:`repro.faults.FaultPlan` (or anything with
    ``task_faults(serial, attempt)``) addressing pool task serials.
    """
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    pool = ResilientPool(
        functools.partial(_pool_batch, _OncePickledSource(source), reducer,
                          ordered and stop_on_failure),
        make_executor=lambda: ProcessPoolExecutor(
            max_workers=jobs, mp_context=context
        ),
        policy=policy,
        split=_split,
        combine=_combine,
        give_up=_give_up,
        decorate=None if faults is None else (
            lambda _tasks, serial, attempt: faults.task_faults(serial, attempt)
        ),
    )
    result = ExplorationResult()
    frontier: deque = deque() if ordered else deque(tasks)
    done: dict = {}
    snapshots: List[Optional[dict]] = []
    merged = dispatched = 0
    failed = abandoned = stopped = False
    try:
        if ordered:
            for chunk in _swarm_chunks(tasks, jobs, chunk_size):
                pool.submit(chunk)
        while True:
            while (
                frontier
                and not (stop_on_failure and failed)
                and pool.in_flight < jobs * 2
                and dispatched < budget
            ):
                size = min(chunk_size, len(frontier), budget - dispatched)
                pool.submit([frontier.popleft() for _ in range(size)])
                dispatched += size
            if stopped or not pool.has_pending:
                break
            key, (records, found, pruned, snapshot) = pool.next_completed()
            snapshots.append(snapshot)
            result.pruned += pruned
            frontier.extend(found)
            failed = failed or any(record.failed for record in records)
            abandoned = abandoned or any(
                isinstance(record.error, ExplorationTimeout) for record in records
            )
            if not ordered:
                result.runs += records
                continue
            done[key] = records  # merge in submission order, to the first failure
            while merged in done and not stopped:
                chunk = done.pop(merged)
                merged += 1
                result.runs += chunk
                stopped = stop_on_failure and any(r.failed for r in chunk)
    except (BrokenExecutor, OSError) as exc:
        # Unrecoverable infrastructure collapse (the executor cannot even be
        # rebuilt): keep every merged outcome and attach the failure rather
        # than losing the campaign.
        result.interruptions.append(
            {"kind": "fatal", "detail": repr(exc), "task": None}
        )
        abandoned = True
    finally:
        pool.shutdown()
    result.interruptions += pool.events
    result.metrics = _fold_pool_counters(merge_snapshots(snapshots), pool.events)
    if not ordered:
        result.runs.sort(key=lambda record: record.schedule)
    if stop_on_failure and failed:
        for position, record in enumerate(result.runs):
            if record.failed:
                del result.runs[position + 1 :]
                break
    else:
        result.exhausted = not frontier and not abandoned
    return result


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None or jobs <= 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return max(1, os.cpu_count() or 1)
    return jobs


def _swarm_chunks(
    seeds: range, jobs: int, chunk_size: Optional[int] = None
) -> List[range]:
    """The seed chunks a ``jobs>1`` swarm submits, in submission order.

    All of them go to the pool up front, so chunk ``k`` is pool task serial
    ``k``: fault plans (:mod:`repro.faults`) address chunks by that serial.
    The default size aims at ~4 chunks per worker, balancing load against
    per-task dispatch cost.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-len(seeds) // (jobs * 4)))
    return [seeds[i : i + chunk_size] for i in range(0, len(seeds), chunk_size)]


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def explore_swarm(
    program,
    num_runs: int = 100,
    base_seed: int = 0,
    stop_on_failure: bool = False,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    faults=None,
) -> ExplorationResult:
    """Run ``program`` under ``num_runs`` differently seeded random schedules.

    Seeds ``base_seed`` onward; results come back in ascending seed order
    at every job count.  ``jobs`` fans the campaign out over worker
    processes (``None``/``0`` = all CPUs, ``1`` = in-process), in chunks
    of ``chunk_size`` seeds (default: ~4 per worker).  ``timeout`` (per-chunk
    wall clock), ``max_retries`` and ``backoff_base`` configure the pool's
    :class:`~repro.concurrency.resilient.RetryPolicy`; ``faults`` injects a
    :class:`repro.faults.FaultPlan`.  Recovered incidents are reported on
    ``interruptions``; a seed still hung after every retry becomes a failed
    record carrying an :class:`ExplorationTimeout`.
    """
    seeds = range(base_seed, base_seed + num_runs)
    jobs = _resolve_jobs(jobs)
    if jobs <= 1:
        result = _explore_in_process(
            resolve_program(program), None, seeds, num_runs, stop_on_failure
        )
    else:
        policy = RetryPolicy(max_retries=max_retries, timeout=timeout,
                             backoff_base=backoff_base, seed=base_seed)
        result = _explore_pool(
            program, None, seeds, num_runs, stop_on_failure, True,
            jobs, chunk_size, policy, faults,
        )
    result.exhausted = False
    result.requested = num_runs
    result.skipped = num_runs - result.num_runs
    return result


def explore_exhaustive(
    program,
    max_runs: int = 10_000,
    stop_on_failure: bool = False,
    reducer=None,
    jobs: Optional[int] = 1,
    chunk_size: int = 16,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    faults=None,
) -> ExplorationResult:
    """Enumerate schedules depth-first until the space or budget is exhausted.

    Each run replays a decision-vector prefix and then takes alternative 0
    at every new decision point, so backtracking from each trace covers the
    whole tree.  With a ``reducer``
    (:class:`repro.concurrency.reduction.StaticReducer`), the same tree is
    walked with sleep sets: schedules that differ from an explored one only
    by swaps of statically-independent steps are pruned (counted in
    ``result.pruned``/``skipped``) instead of executed, and the campaign
    reports the same outcome set as the unreduced one.

    ``jobs`` and the pool options work as for :func:`explore_swarm`, with
    ``chunk_size`` frontier tasks per batch.  A full campaign is identical
    at every job count.  Under a binding ``max_runs`` the ``jobs=1`` walk
    covers the lexicographically first runs, while the pool covers the
    tree breadth first, so budget-limited campaigns compare only at equal
    job counts; the same holds for ``stop_on_failure``, which the pool
    applies by draining in-flight batches.  A prefix abandoned by the pool
    leaves its subtree unexplored, so the campaign is not exhausted.
    """
    jobs = _resolve_jobs(jobs)
    root = ([], None)
    if jobs <= 1:
        result = _explore_in_process(
            resolve_program(program), reducer, (root,), max_runs, stop_on_failure
        )
    else:
        policy = RetryPolicy(max_retries=max_retries, timeout=timeout,
                             backoff_base=backoff_base, seed=max_runs)
        result = _explore_pool(
            program, reducer, (root,), max_runs, stop_on_failure, False,
            jobs, chunk_size, policy, faults,
        )
    if reducer is not None:
        result.skipped = result.pruned
        result.requested = result.num_runs + result.pruned
    return result
