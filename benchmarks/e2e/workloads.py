"""The four end-to-end workloads: set-up, the timed closed loop, and checks.

Each workload calls only public entry points of the program and times them
from outside.  Inputs derive from the run's seed; the program receives only
those generated inputs.  Every unit is checked for correctness, and a unit
that fails a check counts toward ``failed``.

* ``serve-vector`` / ``serve-cache`` -- one ``vyrd serve`` session at a time
  (a forked :func:`produce_session` producer plus the daemon threads of
  :class:`ServeSession`), closed loop.  The vector multiset's producer is
  kernel-bound; the cache's daemon is checker-bound.
* ``check-logs`` -- offline checking of chained ``VYRDLOG2`` logs written at
  set-up: decode, view and I/O refinement, linearizability, races.  No
  kernel.
* ``explore-blinktree`` -- many short exploration runs (``jobs=1``): swarm
  coverage, bug detection campaigns and reduced exhaustion.

Rates are medians over short windows (a few sessions, one pass over the
logs, one swarm campaign) rather than totals over the run: on a shared
machine, interference comes in bursts of a few seconds, and a median over
windows spread through the run stays put where a total moves with the burst.
Every time is also scaled to a reference machine speed, sampled by a
:class:`~timing.Pace` between the timed calls, because the machine's speed
also drifts for minutes at a time, longer than a run.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core import RefinementChecker
from repro.core.log import load_log, log_signature, save_log, validate_well_formed
from repro.harness import explore_program, run_program
from repro.harness.workload import PROGRAMS
from repro.linz import DEFAULT_VARIANT, LinzChecker, expected_divergence, linz_config
from repro.races import RaceChecker
from repro.serve import (
    LocalDirectoryStore,
    ServeSession,
    manifest_name,
    produce_session,
    session_checkers,
)

from timing import Meter, Pace, peak_rss_mb, pin_cpus, summarize

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Shard files per served session.
SHARDS = 2
#: Serve sessions per window (the serve workloads' ``exhaust_s`` batch).
SERVE_WINDOW = 5
#: Every this many sessions, the served signature is checked against a
#: direct in-process run of the same seed.
SIGNATURE_EVERY = 10

_FORK = multiprocessing.get_context("fork")


@dataclass
class Context:
    """Where a run may write, and the seed its inputs derive from.

    ``cpus`` is empty, or the CPU this process is pinned to followed by the
    one a serve session's producer is pinned to (see :func:`timing.pin_cpus`).
    """

    work: str
    seed: int
    smoke: bool = False
    cpus: Tuple[int, ...] = ()

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class Timed(NamedTuple):
    """One timing sample: seconds, and the ``perf_counter`` interval of the
    call it was taken in, whose pace samples scale it.  ``weights`` say how
    much each paced CPU's speed counts: by default the call's CPU seconds in
    this process and in the children it reaped (a serve producer).
    """

    seconds: float
    start: float
    end: float
    weights: Tuple[float, ...]

    @classmethod
    def of(cls, meter: Meter, seconds: Optional[float] = None,
           weights: Optional[Tuple[float, ...]] = None) -> "Timed":
        if weights is None:
            weights = (meter.cpu - meter.children_cpu, meter.children_cpu)
        return cls(meter.wall if seconds is None else seconds, meter.start, meter.end,
                   weights)


@dataclass
class Window:
    """Work done in one throughput window, and the calls that did it.

    Its time is the sum of its calls' meters, which leaves out the pace
    samples taken between them.
    """

    records: int = 0
    schedules: int = 0
    calls: List[Timed] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)

    def add(self, records: int, schedules: int, meter: Meter) -> None:
        self.records += records
        self.schedules += schedules
        self.calls.append(Timed.of(meter))
        self.cpus.append(meter.cpu)

    @property
    def wall(self) -> float:
        return sum(call.seconds for call in self.calls)

    @property
    def cpu(self) -> float:
        return sum(self.cpus)


@dataclass
class Tally:
    """What one timed loop measured.

    ``windows`` are the throughput samples and ``batches`` the samples of
    ``exhaust_s``; ``units`` and ``lags`` hold per-sample wall seconds.
    """

    windows: List[Window] = field(default_factory=list)
    units: List[Timed] = field(default_factory=list)
    lags: List[Timed] = field(default_factory=list)
    batches: List[Window] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(window.wall for window in self.windows)

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted unit; record ``message`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)


# -- serve -----------------------------------------------------------------------


@dataclass
class Session:
    """One served session, timed from its start to its ``ServeResult``."""

    result: object
    unit: float  # session start -> ServeResult returned
    lag: float  # manifest blob mtime -> ServeResult returned
    meter: Meter  # start -> producer reaped (self + producer CPU)
    producer_cpu: float


def serve_session(store, name: str, program: str, seed: int, run_kwargs: dict,
                  factories, producer_cpu_id: Optional[int] = None) -> Session:
    """Serve one producing run: fork the producer, verify it online.

    With ``producer_cpu_id``, the producer is forked pinned to that CPU, while
    this thread keeps its own pinning.
    """
    checker_factory, race_factory = factories
    with Meter() as meter:
        start = time.perf_counter()
        session = ServeSession(
            store, name, SHARDS,
            checker_factory=checker_factory,
            race_checker_factory=race_factory,
        )
        process = _FORK.Process(
            target=produce_session,
            args=(store, name, program),
            kwargs={"seed": seed, "num_shards": SHARDS, "run_kwargs": run_kwargs},
            name=f"producer-{name}",
        )
        if producer_cpu_id is None:
            process.start()
        else:
            own = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {producer_cpu_id})  # the child inherits it
            try:
                process.start()
            finally:
                os.sched_setaffinity(0, own)
        try:
            result = session.run(process)
            returned = time.time()
            unit = time.perf_counter() - start
        finally:
            process.join(timeout=30.0)
            if process.is_alive():  # a wedged producer must not outlive us
                process.terminate()
                process.join()
    manifest = store.path(manifest_name(name))
    lag = returned - os.stat(manifest).st_mtime if os.path.exists(manifest) else unit
    return Session(result, unit, lag, meter, meter.children_cpu)


def session_problem(session: Session) -> Optional[str]:
    """Why a served session is wrong, or None."""
    result = session.result
    if not result.ok:
        return f"{result.session}: stream failed: {result.error}"
    if result.outcome is None or not result.outcome.ok:
        return f"{result.session}: refinement violation on a correct program"
    return None


def producer_cpu_id(ctx: Context) -> Optional[int]:
    return ctx.cpus[-1] if ctx.cpus else None


class ServeWorkload:
    """Closed-loop ``vyrd serve``: one session at a time, fresh store root.

    The daemon runs on this process's CPU and the producer on the other one,
    so both CPUs are paced.
    """

    paced_cpus = 2

    def __init__(self, program: str, threads: int, calls: int):
        self.program = program
        self.threads = threads
        self.calls = calls

    def run_kwargs(self, ctx: Context) -> dict:
        calls = max(10, self.calls // 4) if ctx.smoke else self.calls
        return {"num_threads": self.threads, "calls_per_thread": calls,
                "mode": "view"}

    def session_seed(self, ctx: Context, index: int) -> int:
        return ctx.seed * 100_000 + index

    def setup(self, ctx: Context, rep: int):
        """A fresh store root, the checker factories, one warm-up session."""
        store = LocalDirectoryStore(ctx.fresh_dir("store"))
        factories = session_checkers(self.program)
        warm = serve_session(
            store, f"warmup-{rep}", self.program,
            self.session_seed(ctx, 99_000 + rep), self.run_kwargs(ctx), factories,
            producer_cpu_id(ctx),
        )
        if session_problem(warm) is not None:
            raise RuntimeError(session_problem(warm))
        return store, factories

    def measure(self, ctx: Context, state, seconds: float, pace: Pace) -> Tally:
        store, factories = state
        kwargs = self.run_kwargs(ctx)
        tally = Tally()
        signatures = []
        producer_seconds = 0.0
        index = 0
        while tally.wall < seconds:
            window = Window()
            for _ in range(SERVE_WINDOW):
                name = f"s{index:05d}"
                seed = self.session_seed(ctx, index)
                pace.tick()
                session = serve_session(store, name, self.program, seed, kwargs,
                                        factories, producer_cpu_id(ctx))
                problem = session_problem(session)
                tally.check(problem is None, problem or "")
                tally.units.append(Timed.of(session.meter, session.unit))
                # the lag is the daemon's catch-up once the producer is done:
                # only this process's CPU counts
                tally.lags.append(Timed.of(session.meter, session.lag, (1.0,)))
                window.add(session.result.records, 1, session.meter)
                producer_seconds += session.producer_cpu
                if index % SIGNATURE_EVERY == 0:
                    signatures.append((seed, session.result.signature))
                shutil.rmtree(os.path.join(store.root, name), ignore_errors=True)
                index += 1
            tally.windows.append(window)
            tally.batches.append(window)
        # served == direct: the merged history hashes like an in-process run
        for seed, served in signatures:
            direct = log_signature(run_program(self.program, seed=seed, **kwargs).log)
            tally.check(served == direct, f"seed {seed}: served signature differs")
        tally.details["producer_cpu_share"] = (
            producer_seconds / sum(window.cpu for window in tally.windows))
        return tally


# -- check-logs --------------------------------------------------------------------

#: Programs and calls per thread (4 threads), sized so that each log costs a
#: similar time to check.  The vector multiset logs every read of its
#: compression daemon's scans, so it gets far fewer calls.  ``stringbuffer``
#: is left out: one or two correct histories in a hundred send the
#: linearizability search past tens of thousands of nodes, even at 4 x 6 calls.
CHECK_CALLS = {
    "multiset-vector": 6,
    "multiset-tree": 16,
    "java-vector": 60,
    "blinktree": 24,
    "cache": 16,
    "scanfs": 30,
    "bounded-queue": 50,
}
CHECK_SEEDS = 5


def check_run_kwargs(program: str, smoke: bool) -> dict:
    calls = CHECK_CALLS[program]
    return {"num_threads": 4, "calls_per_thread": max(4, calls // 3) if smoke else calls,
            "mode": "view", "log_locks": True, "log_reads": True}


def io_checker(program: str) -> RefinementChecker:
    """I/O refinement as ``check --mode both`` builds it."""
    config = linz_config(program, DEFAULT_VARIANT)
    built = PROGRAMS[program].build(False, 1)
    spec_factory = config.refinement_spec_factory or built.spec_factory
    return RefinementChecker(spec_factory(), mode="io",
                             replay_registry=built.replay_registry)


def check_file(program: str, path: str) -> dict:
    """One check-logs unit: decode, then every offline checker."""
    start = time.perf_counter()
    log = load_log(path)
    problems = validate_well_formed(log)
    decoded = time.perf_counter()
    view = session_checkers(program)[0]()
    view.feed(log)
    view_outcome = view.finish()
    io = io_checker(program)
    io.feed(log)
    io_outcome = io.finish()
    linz_outcome = LinzChecker(linz_config(program).linz_spec_factory).check(log)
    races = RaceChecker("both", atomic_locs=PROGRAMS[program].atomic_locs)
    races.feed(log)
    race_outcome = races.finish()
    end = time.perf_counter()
    return {
        "unit": end - start,
        "lag": end - decoded,
        "records": len(log),
        "problems": problems,
        "view_ok": view_outcome.ok,
        "io_ok": io_outcome.ok,
        "linz_ok": linz_outcome.ok,
        "races": len(race_outcome.races),
    }


def verdicts_agree(program: str, io_ok: bool, linz_ok: bool) -> bool:
    """The io verdict equals the linz verdict, or the pair is a documented
    refinement-OK / linearizability-violation divergence."""
    if io_ok == linz_ok:
        return True
    return bool(expected_divergence(program, DEFAULT_VARIANT)) and io_ok


class CheckLogsWorkload:
    """Offline ``check`` over one chained log per program and seed."""

    paced_cpus = 1

    def seeds(self, ctx: Context) -> List[int]:
        count = 1 if ctx.smoke else CHECK_SEEDS
        return [ctx.seed * 100_000 + index for index in range(count)]

    def setup(self, ctx: Context, rep: int):
        """Run every program and write its log, chained, to disk."""
        root = ctx.fresh_dir("logs")
        files = []
        for seed in self.seeds(ctx):
            for program in CHECK_CALLS:
                run = run_program(program, seed=seed,
                                  **check_run_kwargs(program, ctx.smoke))
                path = os.path.join(root, f"{program}-{seed}.vlog")
                save_log(run.log, path, chained=True)
                files.append((program, seed, path, run))
        return files

    def measure(self, ctx: Context, state, seconds: float, pace: Pace) -> Tally:
        # Reference verdicts from the in-memory logs, before any decode.  A
        # run may end with a daemon inside a commit block, so the decoded
        # log must carry the same well-formedness problems, not none.
        files = []
        for program, seed, path, run in state:
            races = RaceChecker("both", atomic_locs=PROGRAMS[program].atomic_locs)
            races.feed(run.log)
            files.append((program, seed, path, validate_well_formed(run.log),
                          run.vyrd.check_offline().ok, len(races.finish().races)))
        tally = Tally()
        while tally.wall < seconds:
            window = Window()
            for program, seed, path, problems, view_ok, races in files:
                pace.tick()
                with Meter() as meter:
                    unit = check_file(program, path)
                tally.check(
                    unit["problems"] == problems
                    and unit["view_ok"] == view_ok
                    and verdicts_agree(program, unit["io_ok"], unit["linz_ok"])
                    and unit["races"] == races,
                    f"{program} seed {seed}: offline verdicts differ from set-up",
                )
                tally.units.append(Timed.of(meter, unit["unit"]))
                tally.lags.append(Timed.of(meter, unit["lag"]))
                window.add(unit["records"], 1, meter)
            tally.windows.append(window)
            tally.batches.append(window)
        tally.details["files"] = len(files)
        return tally


# -- explore -----------------------------------------------------------------------

#: Swarm coverage and detection shape: blinktree, 3 threads x 6 calls.
EXPLORE = {"num_threads": 3, "calls_per_thread": 6}
#: Runs per swarm campaign; each campaign draws its own workload mix.
SWARM_CAMPAIGN = 100
#: Detection campaigns are a fixed set, like the exhaustion configs: runs to
#: first violation are geometric, so campaigns drawn from the seed would need
#: thousands of samples to hold a 10% bound on their median.
DETECT_CAMPAIGNS = 100
DETECT_STRIDE = 1_000
#: The four ``BENCH_schedule_reduction.json`` configs and the number of
#: distinct violations exhaustion must reproduce on each:
#: (program, buggy, threads, calls, workload_seed, violations).
EXHAUST_CASES = (
    ("blinktree", False, 2, 2, 13, 0),
    ("multiset-vector", True, 2, 1, 16, 6),
    ("blinktree", False, 3, 1, 7, 0),
    ("multiset-vector", False, 2, 1, 16, 0),
)
#: Shares of the measured seconds per part.  The parts take turns, the one
#: furthest below its share going next, so each samples the whole run.
EXPLORE_SHARES = {"exhaust": 0.15, "detect": 0.25, "swarm": 0.60}


def swarm_mix(ctx: Context, index: int) -> int:
    """Workload seed (the operation mix) of swarm campaign ``index``."""
    return ctx.seed * 10_000 + index


def swarm_campaign(ctx: Context, index: int, calls: int, num_runs: int):
    """Swarm campaign ``index``: its own workload mix and schedule seeds."""
    return explore_program(
        "blinktree", num_runs=num_runs,
        base_seed=ctx.seed * 1_000_000 + index * num_runs,
        num_threads=EXPLORE["num_threads"], calls_per_thread=calls,
        workload_seed=swarm_mix(ctx, index), jobs=1,
    )


def detect_campaign(index: int):
    return explore_program(
        "blinktree", buggy=True, stop_on_failure=True, num_runs=100_000,
        base_seed=index * DETECT_STRIDE, jobs=1, **EXPLORE,
    )


def exhaust_case(case):
    program, buggy, threads, calls, workload_seed, _ = case
    return explore_program(
        program, mode="exhaustive", reduce="static", buggy=buggy,
        num_threads=threads, calls_per_thread=calls, workload_seed=workload_seed,
        daemons=False, fingerprint=True, jobs=1, max_runs=60_000,
    )


def violation_set(result) -> set:
    return {
        (getattr(run.error, "remote_type", type(run.error).__name__), str(run.error))
        for run in result.failures
    }


def swarm_records(result) -> int:
    return sum(run.outcome[1] for run in result.runs if not run.failed)


class ExploreWorkload:
    """Many short ``jobs=1`` exploration runs of the B-link tree."""

    paced_cpus = 1

    def setup(self, ctx: Context, rep: int):
        """Warm the engine: a short swarm and one detection campaign."""
        swarm_campaign(ctx, 9_000 + rep, EXPLORE["calls_per_thread"], 50)
        if not detect_campaign(0).failures:
            raise RuntimeError("detection warm-up found no violation")
        return None

    def measure(self, ctx: Context, state, seconds: float, pace: Pace) -> Tally:
        tally = Tally()
        spent = dict.fromkeys(EXPLORE_SHARES, 0.0)
        detect_runs: List[int] = []
        campaign = 0
        # every part gets at least one turn, however slow the machine
        while sum(spent.values()) < seconds or 0.0 in spent.values():
            part = min(spent, key=lambda name: spent[name] / EXPLORE_SHARES[name])
            pace.tick()
            if part == "exhaust":
                batch = Window()
                with Meter() as meter:
                    for case in EXHAUST_CASES:
                        pace.tick()
                        with Meter() as call:
                            result = exhaust_case(case)
                        batch.add(0, result.num_runs, call)
                        tally.check(
                            result.exhausted and len(violation_set(result)) == case[5],
                            f"exhaustion of {case[:5]} did not reproduce "
                            f"{case[5]} violation(s)",
                        )
                tally.batches.append(batch)
                tally.details["exhaust_runs"] = batch.schedules
            elif part == "detect":
                # a whole pass per turn, so every run samples the same set
                with Meter() as meter:
                    for index in range(10 if ctx.smoke else DETECT_CAMPAIGNS):
                        pace.tick()
                        with Meter() as unit:
                            result = detect_campaign(index)
                        tally.check(bool(result.failures),
                                    f"detection campaign {index} found no violation")
                        tally.units.append(Timed.of(unit))
                        tally.lags.append(Timed.of(unit, unit.wall / result.num_runs))
                        detect_runs.append(result.num_runs)
            else:
                size = 50 if ctx.smoke else SWARM_CAMPAIGN
                with Meter() as meter:
                    result = swarm_campaign(ctx, campaign, EXPLORE["calls_per_thread"],
                                            size)
                tally.check(not result.failures and result.num_runs == size,
                            f"swarm campaign {campaign} reported a violation")
                window = Window()
                window.add(swarm_records(result), result.num_runs, meter)
                tally.windows.append(window)
                campaign += 1
            spent[part] += meter.wall
        tally.details["detect_runs_p50"] = median(detect_runs)
        return tally


#: Serve sessions are sized so a run holds over 100 of them even when the
#: machine runs at two thirds of its usual speed.
WORKLOADS: Dict[str, object] = {
    "serve-vector": ServeWorkload("multiset-vector", 4, 40),
    "serve-cache": ServeWorkload("cache", 4, 75),
    "check-logs": CheckLogsWorkload(),
    "explore-blinktree": ExploreWorkload(),
}


# -- the run -----------------------------------------------------------------------


Scale = Callable[[float, float, Tuple[float, ...]], float]


def unscaled(start: float, end: float, weights: Tuple[float, ...]) -> float:
    return 1.0


def end_to_end(tally: Tally, setups: List[Timed], scale: Scale) -> Dict[str, tuple]:
    """Every end-to-end metric as ``name -> (value, unit)``, each call's
    time multiplied by ``scale`` over the interval it was measured in."""

    def seconds(samples: List[Timed]) -> List[float]:
        return [s.seconds * scale(s.start, s.end, s.weights) for s in samples]

    def wall(window: Window) -> float:
        return sum(seconds(window.calls))

    def cpu(window: Window) -> float:
        return sum(c * scale(t.start, t.end, t.weights)
                   for c, t in zip(window.cpus, window.calls))

    windows = tally.windows
    units = seconds(tally.units)
    return {
        "setup_s": (median(seconds(setups)), "s"),
        "records_per_s": (median([w.records / wall(w) for w in windows]), "records/s"),
        "schedules_per_s": (median([w.schedules / wall(w) for w in windows]), "runs/s"),
        "unit_p50_ms": (summarize(units)["p50"] * 1e3, "ms"),
        "unit_p90_ms": (summarize(units)["p90"] * 1e3, "ms"),
        "verdict_lag_p50_ms": (median(seconds(tally.lags)) * 1e3, "ms"),
        "exhaust_s": (median([wall(batch) for batch in tally.batches]), "s"),
        "cpu_ms_per_krecord": (
            median([cpu(w) * 1e6 / w.records for w in windows]), "ms/krecord"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_workload(name: str, ctx: Context, seconds: float) -> dict:
    """Set up (repeatedly), measure for ``seconds``, check, summarize.

    Pace samples bracket every set-up and are taken between the measured
    calls; the metrics are scaled by them, and ``details["unscaled"]`` holds
    the same metrics as the clock read them.
    """
    workload = WORKLOADS[name]
    ctx.cpus = pin_cpus()
    pace = Pace(ctx.cpus[:workload.paced_cpus])
    setups = []
    state = None
    for rep in range(SETUP_REPEATS):
        pace.sample()
        with Meter() as meter:
            state = workload.setup(ctx, rep)
        setups.append(Timed.of(meter))
    pace.sample()
    tally = workload.measure(ctx, state, seconds, pace)
    pace.sample()
    metrics = end_to_end(tally, setups, pace.scale)
    details = dict(tally.details)
    details.update({
        "unscaled": {name: value for name, (value, _unit)
                     in end_to_end(tally, setups, unscaled).items()},
        "pace": pace.summary(),
        "setup_s": [s.seconds for s in setups],
        "units": summarize([s.seconds for s in tally.units]),
        "lags": summarize([s.seconds for s in tally.lags]),
        "batches": summarize([batch.wall for batch in tally.batches]),
        "windows": len(tally.windows),
        "records": sum(w.records for w in tally.windows),
        "schedules": sum(w.schedules for w in tally.windows),
        "measured_wall_s": tally.wall,
        "measured_cpu_s": sum(w.cpu for w in tally.windows),
    })
    return {
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures[:20],
        "metrics": metrics,
        "details": details,
    }
