"""Experiment drivers behind the paper's Tables 1-3.

* :func:`run_program` -- execute one harness workload (section 7.1) on a
  fresh program instance under a seeded scheduler, producing a VYRD log.
* :func:`detection_experiment` -- Table 1: methods executed before the first
  error is detected, I/O vs view refinement, plus the view/I-O checker CPU
  ratio *on the same trace* (the paper's last column).
* :func:`logging_overhead_experiment` -- Table 2: run time with no logging
  vs I/O-refinement logging vs view-refinement logging.  The tracer never
  influences scheduling, so all three timings replay the *identical*
  interleaving.
* :func:`breakdown_experiment` -- Table 3: program alone / program+logging /
  program+logging+online VYRD / offline VYRD alone.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from ..concurrency import Kernel
from ..concurrency.explore import (
    ExplorationResult,
    explore_exhaustive,
    explore_swarm,
)
from ..concurrency.parallel import RefinementViolation
from ..core import CheckOutcome, Vyrd
from ..obs import Recorder
from .metrics import mean
from .workload import PROGRAMS, BuiltProgram, Program


def _resolve(program: Union[str, Program]) -> Program:
    if isinstance(program, Program):
        return program
    return PROGRAMS[program]


@dataclass
class RunResult:
    """One executed workload plus its verification session."""

    program: Program
    built: BuiltProgram
    vyrd: Vyrd
    kernel: Kernel
    run_cpu: float
    online_outcome: Optional[CheckOutcome] = None
    race_outcome: Optional[object] = None  # RaceOutcome when races enabled
    lint_findings: tuple = ()  # LintFindings when the lint pre-flight ran
    obs: Optional[Recorder] = None  # the recorder run_program was given
    linz_outcome: Optional[object] = None  # LinzOutcome when linearizability on

    @property
    def log(self):
        return self.vyrd.log


def run_program(
    program: Union[str, Program],
    buggy: bool = False,
    num_threads: int = 4,
    calls_per_thread: int = 50,
    seed: int = 0,
    mode: str = "view",
    log_level: Optional[str] = None,
    online: bool = False,
    max_steps: int = 20_000_000,
    scheduler_factory=None,
    log_locks: bool = False,
    log_reads: bool = False,
    races=None,
    faults=None,
    lint: Optional[str] = None,
    linearizability=False,
    obs: Optional[Recorder] = None,
    log=None,
    daemons: bool = True,
) -> RunResult:
    """Build, run and (optionally online-) verify one program instance.

    ``scheduler_factory(seed)`` overrides the default seeded random
    scheduler (e.g. with :class:`~repro.concurrency.PCTScheduler` for the
    scheduling ablation).  ``log_locks``/``log_reads`` additionally record
    the events the :mod:`repro.atomicity` baseline needs.  ``races``
    (``"hb"``/``"lockset"``/``"both"``) runs the :mod:`repro.races`
    detectors over the same log -- incrementally when ``online=True``,
    offline otherwise -- and fills ``RunResult.race_outcome``.  ``faults``
    (a :class:`repro.faults.FaultPlan` with ``slow_io`` faults) wraps the
    tracer in a :class:`repro.faults.LatencyTracer`, simulating a slow log
    device; the schedule -- and hence the log -- is unaffected.  ``lint``
    (``"warn"``/``"error"``) statically checks the implementation's
    instrumentation annotations *before* the run (:mod:`repro.lint`) and
    raises :class:`repro.lint.LintError` when any finding at or above that
    severity survives suppression; all findings land in
    ``RunResult.lint_findings``.  ``linearizability`` (``True`` or a spec
    factory) additionally runs the annotation-free linearization search
    (:mod:`repro.linz`) over the completed log and fills
    ``RunResult.linz_outcome``.  ``obs`` (a
    :class:`repro.obs.MetricsRecorder`) profiles the whole pipeline: it is
    threaded through the session, the kernel (whose step counter becomes
    the trace clock) and the harness phases, and comes back on
    ``RunResult.obs``.  ``log`` (a :class:`repro.core.Log` or subclass)
    replaces the session's in-memory log -- the streaming service passes a
    shard tee here so every append is also spooled to durable shard
    files.  ``daemons=False`` skips spawning the workload's background
    threads (compression, flushers): exhaustive exploration needs a finite
    schedule tree, and an always-runnable daemon makes it infinite."""
    program = _resolve(program)
    built = program.build(buggy, num_threads)
    lint_findings: tuple = ()
    if lint is not None:
        from ..lint import LintError, lint_class, severity_at_least

        if lint not in ("warn", "error"):
            raise ValueError(f"lint must be 'warn' or 'error', not {lint!r}")
        lint_findings = tuple(lint_class(built.impl))
        gating = [
            finding for finding in lint_findings
            if severity_at_least(finding.severity, lint)
        ]
        if gating:
            raise LintError(gating)
    vyrd = Vyrd(
        spec_factory=built.spec_factory,
        mode=mode,
        impl_view_factory=built.view_factory,
        invariants=built.invariants,
        replay_registry=built.replay_registry,
        log_level=log_level,
        log_locks=log_locks,
        log_reads=log_reads,
        races=races,
        atomic_locs=program.atomic_locs,
        linearizability=linearizability,
        obs=obs,
        log=log,
    )
    scheduler = scheduler_factory(seed) if scheduler_factory is not None else None
    tracer = vyrd.tracer
    if faults is not None and getattr(faults, "tracer_faults", ()):
        from ..faults import LatencyTracer  # late import: faults -> harness

        tracer = LatencyTracer(tracer, faults)
    kernel = Kernel(
        scheduler=scheduler, seed=seed, tracer=tracer, max_steps=max_steps,
        obs=obs,
    )
    vds = vyrd.wrap(built.impl)
    verifier = vyrd.start_online(kernel) if online else None
    for index in range(num_threads):
        body = built.make_worker(
            vds, random.Random(seed * 131 + index), index, calls_per_thread
        )
        kernel.spawn(body, name=f"app-{index}")
    for daemon in built.daemons if daemons else ():
        kernel.spawn(daemon, daemon=True)
    start = time.process_time()
    kernel.run()
    run_cpu = time.process_time() - start
    obs_rec = vyrd.obs
    if obs_rec.enabled:
        with obs_rec.span("harness.finalize", cat="harness"):
            online_outcome = verifier.finalize() if verifier is not None else None
            race_outcome = None
            if races:
                race_outcome = (
                    verifier.finalize_races() if verifier is not None
                    else vyrd.check_races()
                )
            linz_outcome = (
                vyrd.check_linearizability() if vyrd.linearizability else None
            )
    else:
        online_outcome = verifier.finalize() if verifier is not None else None
        race_outcome = None
        if races:
            race_outcome = (
                verifier.finalize_races() if verifier is not None
                else vyrd.check_races()
            )
        linz_outcome = (
            vyrd.check_linearizability() if vyrd.linearizability else None
        )
    return RunResult(
        program, built, vyrd, kernel, run_cpu, online_outcome, race_outcome,
        lint_findings, obs, linz_outcome,
    )


# ---------------------------------------------------------------------------
# Exploration campaigns over registry workloads
# ---------------------------------------------------------------------------


def log_hb_fingerprint(log) -> str:
    """Canonical digest of a run's happens-before order (its Mazurkiewicz
    trace under the reduction's independence relation).

    Two schedules that differ only by swaps of independent steps produce the
    same fingerprint; schedules that reorder anything the reduction treats
    as dependent -- same-cell write/read-write order, per-lock acquisition
    order, the global commit (linearization) order, per-thread program order
    -- produce different ones.  The schedule-reduction equivalence gate
    compares the *sets* of fingerprints reached by reduced and unreduced
    campaigns: equality means the reduced campaign covered every distinct
    HB order.  Requires a log recorded with ``log_locks``/``log_reads``
    (see ``ProgramSpec.fingerprint``).
    """
    from ..core.actions import (
        AcquireAction,
        CallAction,
        CommitAction,
        ReadAction,
        ReleaseAction,
        ReturnAction,
        WriteAction,
    )

    per_tid: dict = {}
    per_loc: dict = {}
    per_lock: dict = {}
    commits: list = []
    methods: dict = {}
    pending_readers: dict = {}

    def tid_seq(tid):
        return per_tid.setdefault(tid, [])

    for action in log:
        tid = action.tid
        if isinstance(action, CallAction):
            methods[(tid, action.op_id)] = action.method
            tid_seq(tid).append(("call", action.method, repr(action.args)))
        elif isinstance(action, ReturnAction):
            tid_seq(tid).append(("ret", action.method, repr(action.result)))
        elif isinstance(action, WriteAction):
            tid_seq(tid).append(("w", action.loc, repr(action.new)))
            stream = per_loc.setdefault(action.loc, [])
            readers = pending_readers.pop(action.loc, None)
            if readers:
                stream.append(("readers", tuple(sorted(readers))))
            stream.append(("w", tid, repr(action.new)))
        elif isinstance(action, ReadAction):
            # reads between two writes commute, so they form a set
            tid_seq(tid).append(("r", action.loc))
            pending_readers.setdefault(action.loc, set()).add(tid)
        elif isinstance(action, AcquireAction):
            tid_seq(tid).append(("acq", action.lock))
            per_lock.setdefault(action.lock, []).append(tid)
        elif isinstance(action, ReleaseAction):
            tid_seq(tid).append(("rel", action.lock))
        elif isinstance(action, CommitAction):
            tid_seq(tid).append(("commit",))
            commits.append((tid, methods.get((tid, action.op_id))))
        else:
            tid_seq(tid).append((type(action).__name__,))
    for loc, readers in pending_readers.items():
        per_loc.setdefault(loc, []).append(("readers", tuple(sorted(readers))))
    canonical = (
        sorted(per_tid.items()),
        sorted(per_loc.items()),
        sorted(per_lock.items()),
        tuple(commits),
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


@dataclass(frozen=True)
class ProgramSpec:
    """A picklable description of one workload-registry program run.

    Closures do not cross process boundaries, so exploration with
    ``jobs>1`` (:mod:`repro.concurrency.explore`) takes this spec instead:
    the registry *name* plus the configuration needed to rebuild the
    workload.  Each
    worker resolves it to a fresh kernel + data structure via
    :meth:`resolve_program`, runs the workload under the explorer-supplied
    scheduler, and checks refinement offline.

    ``workload_seed`` fixes the operation mix (which methods each thread
    calls, with which arguments); only the *schedule* varies between runs --
    the paper's "large numbers of repetitions of the same experiment".

    ``metrics=True`` accumulates deterministic observability counters and
    histograms (:mod:`repro.obs`) across every run the resolved program
    executes; the explorers merge the per-worker snapshots into
    ``ExplorationResult.metrics``.  Only the deterministic part crosses
    process boundaries, so campaign metrics are identical however the work
    was sharded (and identical to a serial run).
    """

    program: str
    buggy: bool = False
    num_threads: int = 2
    calls_per_thread: int = 4
    workload_seed: int = 0
    mode: str = "view"
    max_steps: int = 20_000_000
    metrics: bool = False
    # Exhaustive exploration needs a finite schedule tree; always-runnable
    # background threads (compression, flushers) make it infinite, so
    # daemon-free configs are the exhaustive/reduction gate shape.
    daemons: bool = True
    # fingerprint=True records locks+reads and makes the success outcome the
    # run's HB fingerprint (see log_hb_fingerprint) instead of the log
    # length, so campaign outcome sets enumerate the distinct HB orders.
    fingerprint: bool = False

    def resolve_program(self):
        """Build the ``program(scheduler) -> outcome`` callable (in-worker).

        When ``metrics`` is set, the callable carries the accumulating
        recorder as ``program.obs_recorder`` (events off: only counters and
        histograms, the mergeable deterministic part).
        """
        spec = self
        recorder = None
        if spec.metrics:
            from ..obs import MetricsRecorder

            recorder = MetricsRecorder(max_events=0)

        def program(scheduler):
            result = run_program(
                spec.program,
                buggy=spec.buggy,
                num_threads=spec.num_threads,
                calls_per_thread=spec.calls_per_thread,
                seed=spec.workload_seed,
                mode=spec.mode,
                max_steps=spec.max_steps,
                scheduler_factory=lambda _seed: scheduler,
                obs=recorder,
                daemons=spec.daemons,
                log_locks=spec.fingerprint,
                log_reads=spec.fingerprint,
            )
            outcome = result.vyrd.check_offline()
            if not outcome.ok:
                raise RefinementViolation(outcome.summary(), details=outcome.to_dict())
            if spec.fingerprint:
                return ("ok", log_hb_fingerprint(result.log))
            return ("ok", len(result.log))

        program.obs_recorder = recorder
        return program


def explore_program(
    program: Union[str, Program],
    mode: str = "swarm",
    jobs: Optional[int] = 1,
    num_runs: int = 100,
    base_seed: int = 0,
    max_runs: int = 10_000,
    stop_on_failure: bool = False,
    buggy: bool = False,
    num_threads: int = 2,
    calls_per_thread: int = 4,
    workload_seed: int = 0,
    check_mode: str = "view",
    metrics: bool = False,
    reduce: Optional[str] = None,
    daemons: bool = True,
    fingerprint: bool = False,
) -> ExplorationResult:
    """Run an exploration campaign over one registry program.

    ``mode="swarm"`` runs ``num_runs`` seeded random schedules
    (``base_seed`` onward); ``mode="exhaustive"`` enumerates the schedule
    tree up to ``max_runs``.  ``jobs`` fans the campaign out across worker
    processes (``None`` / ``0`` = all CPUs, ``1`` = serial in-process).
    ``metrics=True`` merges per-worker observability counters into
    ``ExplorationResult.metrics``.

    ``reduce="static"`` (exhaustive mode only) prunes schedules that are
    sleep-set redundant under the static effect analysis of the program's
    implementation class (:func:`repro.lint.effects.analyze_program`);
    pruned subtree roots are reported on ``result.pruned``/``skipped``.
    ``daemons=False`` runs without the workload's background threads (a
    finite schedule tree, required for exhaustion); ``fingerprint=True``
    makes successful outcomes HB fingerprints (see
    :func:`log_hb_fingerprint`).
    """
    spec = ProgramSpec(
        _resolve(program).name,
        buggy=buggy,
        num_threads=num_threads,
        calls_per_thread=calls_per_thread,
        workload_seed=workload_seed,
        mode=check_mode,
        metrics=metrics,
        daemons=daemons,
        fingerprint=fingerprint,
    )
    reducer = None
    if reduce is not None:
        if reduce != "static":
            raise ValueError(f"unknown reduction {reduce!r} (only 'static')")
        if mode != "exhaustive":
            raise ValueError("--reduce static requires exhaustive mode")
        from ..concurrency.reduction import StaticReducer
        from ..lint.effects import analyze_program

        reducer = StaticReducer.from_effects(analyze_program(spec.program))
    if mode == "swarm":
        return explore_swarm(
            spec,
            num_runs=num_runs,
            base_seed=base_seed,
            stop_on_failure=stop_on_failure,
            jobs=jobs,
        )
    if mode == "exhaustive":
        return explore_exhaustive(
            spec,
            max_runs=max_runs,
            stop_on_failure=stop_on_failure,
            jobs=jobs,
            reducer=reducer,
        )
    raise ValueError(f"unknown exploration mode {mode!r} (swarm or exhaustive)")


# ---------------------------------------------------------------------------
# Table 1: time to detection
# ---------------------------------------------------------------------------


@dataclass
class DetectionResult:
    """Aggregated Table 1 row for one (program, thread count)."""

    program: str
    bug: str
    num_threads: int
    runs: int = 0
    io_detections: List[int] = field(default_factory=list)
    view_detections: List[int] = field(default_factory=list)
    io_cpu: float = 0.0
    view_cpu: float = 0.0

    @property
    def io_mean(self) -> Optional[float]:
        return mean(self.io_detections)

    @property
    def view_mean(self) -> Optional[float]:
        return mean(self.view_detections)

    @property
    def cpu_ratio(self) -> Optional[float]:
        if self.io_cpu <= 0:
            return None
        return self.view_cpu / self.io_cpu


def detection_experiment(
    program: Union[str, Program],
    num_threads: int = 4,
    calls_per_thread: int = 80,
    seeds=range(8),
    require_both: bool = False,
) -> DetectionResult:
    """Run the buggy program under several seeds; check each trace in both
    modes and aggregate methods-to-detection and checker CPU times.

    A seed that triggers the bug contributes its detection counts; a seed
    where a mode finds nothing contributes nothing to that mode's mean (the
    paper averages over runs of the same experiment; rare-triggering bugs
    simply need more seeds).  ``require_both=True`` keeps only seeds where
    *both* modes detect, making the means directly comparable.

    The checker CPU ratio (the paper's last column: view-mode VYRD time over
    I/O-mode VYRD time on the same trace) is measured on a *correct* run of
    the same workload, so both checkers process the complete trace rather
    than stopping at the first violation.
    """
    program = _resolve(program)
    result = DetectionResult(program.name, program.bug, num_threads)
    seeds = list(seeds)
    for seed in seeds:
        run = run_program(
            program,
            buggy=True,
            num_threads=num_threads,
            calls_per_thread=calls_per_thread,
            seed=seed,
            mode="view",
            log_level="view",
        )
        result.runs += 1
        io_outcome = run.vyrd.check_offline_with_mode("io")
        view_outcome = run.vyrd.check_offline_with_mode("view")
        io_hit = io_outcome.detection_method_count if not io_outcome.ok else None
        view_hit = view_outcome.detection_method_count if not view_outcome.ok else None
        if require_both and (io_hit is None or view_hit is None):
            continue
        if io_hit is not None:
            result.io_detections.append(io_hit)
        if view_hit is not None:
            result.view_detections.append(view_hit)
    # checker cost ratio on a complete (violation-free) trace
    ratio_seed = (max(seeds) if seeds else 0) + 1
    clean = run_program(
        program,
        buggy=False,
        num_threads=num_threads,
        calls_per_thread=calls_per_thread,
        seed=ratio_seed,
        mode="view",
        log_level="view",
    )
    start = time.process_time()
    clean.vyrd.check_offline_with_mode("io")
    result.io_cpu = time.process_time() - start
    start = time.process_time()
    clean.vyrd.check_offline_with_mode("view")
    result.view_cpu = time.process_time() - start
    return result


# ---------------------------------------------------------------------------
# Table 2: logging overhead
# ---------------------------------------------------------------------------


@dataclass
class LoggingOverheadResult:
    program: str
    num_threads: int
    calls_per_thread: int
    program_alone: float = 0.0
    io_logging: float = 0.0    # extra time with call/return/commit logging
    view_logging: float = 0.0  # extra time with full view-level logging

    @property
    def io_total(self) -> float:
        return self.program_alone + self.io_logging

    @property
    def view_total(self) -> float:
        return self.program_alone + self.view_logging


def logging_overhead_experiment(
    program: Union[str, Program],
    num_threads: int = 8,
    calls_per_thread: int = 60,
    seeds=range(3),
    buggy: bool = False,
) -> LoggingOverheadResult:
    """Table 2: the cost of producing the log, by granularity.

    Reports, like the paper, the *program alone* time and the additional
    overhead of I/O-level and view-level logging (same seeds -> identical
    schedules, since logging does not perturb scheduling)."""
    program = _resolve(program)
    result = LoggingOverheadResult(program.name, num_threads, calls_per_thread)
    for seed in seeds:
        alone = run_program(program, buggy, num_threads, calls_per_thread, seed,
                            log_level="none").run_cpu
        io_run = run_program(program, buggy, num_threads, calls_per_thread, seed,
                             log_level="io").run_cpu
        view_run = run_program(program, buggy, num_threads, calls_per_thread, seed,
                               log_level="view").run_cpu
        result.program_alone += alone
        result.io_logging += max(0.0, io_run - alone)
        result.view_logging += max(0.0, view_run - alone)
    return result


# ---------------------------------------------------------------------------
# Table 3: running time breakdown
# ---------------------------------------------------------------------------


@dataclass
class BreakdownResult:
    program: str
    num_threads: int
    calls_per_thread: int
    prog_alone: float = 0.0
    prog_logging: float = 0.0
    prog_logging_online_vyrd: float = 0.0
    vyrd_offline: float = 0.0


def breakdown_experiment(
    program: Union[str, Program],
    num_threads: int = 10,
    calls_per_thread: int = 50,
    seeds=range(3),
) -> BreakdownResult:
    """Table 3: where the time goes, online vs offline checking."""
    program = _resolve(program)
    result = BreakdownResult(program.name, num_threads, calls_per_thread)
    for seed in seeds:
        result.prog_alone += run_program(
            program, False, num_threads, calls_per_thread, seed, log_level="none"
        ).run_cpu
        logged = run_program(
            program, False, num_threads, calls_per_thread, seed, log_level="view"
        )
        result.prog_logging += logged.run_cpu
        start = time.process_time()
        logged.vyrd.check_offline()
        result.vyrd_offline += time.process_time() - start
        online = run_program(
            program, False, num_threads, calls_per_thread, seed,
            log_level="view", online=True,
        )
        result.prog_logging_online_vyrd += online.run_cpu
    return result
