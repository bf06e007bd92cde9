"""The traced run: a per-layer ledger of one workload.

Serve daemon internals cannot be wrapped from outside, so the traced run
replays the workload's inputs ("subjects") in-process, one public entry
point per span, in pipeline order:

1. ``run_program(log_level="none")``  -> kernel
2. ``run_program(view)``              -> tracer = (2) - (1)
3. ``produce_session``                -> shard tee = (3) - (2)
4. ``ShardTail.poll`` until drained   -> shard tail (chain-verified decode)
5. ``StreamMerger`` push/pop          -> merge
6. ``checker.feed`` (view)            -> refinement view
7. ``log_signature``                  -> codec signature
8. ``verify_chain``                   -> codec chain audit

and then the layers the serve pipeline does not use: ``LogWriter`` encode,
``load_log`` decode, ``validate_well_formed``, I/O refinement,
``LinzChecker.check`` and ``RaceChecker.feed`` (hb, lockset).  Every
workload's traced run measures every layer on its own inputs; the layers of
its own pipeline are summed and compared with the untraced CPU of the same
inputs (``trace.explained_fraction``).

A last serve step, ``ServeSession.run`` over the finished shards, checks the
replay end to end.  Its CPU beyond steps 4-8 (the daemon's threads, queue,
polling and health writes) is ``daemon.us_per_record``: a remainder taken by
difference, so it is reported on its own and never counted as explained.
Real serve sessions over the same subjects give the daemon's counters, and a
fixed exploration probe gives the ``explore.*`` numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional

from repro.concurrency import RandomScheduler, StaticReducer
from repro.core import RefinementChecker
from repro.core.log import (
    LogWriter,
    load_log,
    log_signature,
    validate_well_formed,
    verify_chain,
)
from repro.harness import explore_program, run_program
from repro.harness.workload import PROGRAMS
from repro.lint.effects import analyze_program
from repro.linz import LinzChecker, linz_config
from repro.obs import MetricsRecorder
from repro.races import RaceChecker
from repro.serve import (
    LocalDirectoryStore,
    ServeSession,
    ShardTail,
    StreamMerger,
    produce_session,
    session_checkers,
)

from timing import Meter, Spans, percentile
from workloads import (
    CHECK_CALLS,
    EXHAUST_CASES,
    EXPLORE,
    SHARDS,
    WORKLOADS,
    CheckLogsWorkload,
    Context,
    ServeWorkload,
    Tally,
    check_file,
    check_run_kwargs,
    detect_campaign,
    exhaust_case,
    io_checker,
    serve_session,
    session_problem,
    swarm_campaign,
    swarm_mix,
    verdicts_agree,
    violation_set,
)

#: Layers each workload's pipeline runs; their self CPU over the untraced
#: CPU of the same inputs is ``trace.explained_fraction``.  Serve sums steps
#: 1-8 only; the daemon remainder is what they leave unexplained.
SERVE_PIPELINE = ("kernel", "tracer", "shard.tee", "shard.tail", "merge",
                  "refinement.view", "codec.signature", "codec.verify_chain")
PIPELINES = {
    "serve-vector": SERVE_PIPELINE,
    "serve-cache": SERVE_PIPELINE,
    "check-logs": ("codec.decode", "codec.validate", "refinement.view",
                   "refinement.io", "linz", "races.hb", "races.lockset"),
    "explore-blinktree": ("kernel", "tracer", "refinement.view"),
}
#: Subjects replayed per workload (smoke, full).
SUBJECTS = {
    "serve-vector": (2, 10),
    "serve-cache": (2, 10),
    "check-logs": (7, 14),
    "explore-blinktree": (10, 60),
}
#: Real serve sessions for the daemon's counters when the workload's own
#: reference units are not serve sessions (smoke, full).
DAEMON_SESSIONS = (2, 10)
#: Passes per subject of the serve steps and of the untraced reference unit;
#: each span counts at its fastest.
REPEATS = 3


@dataclass
class Subject:
    """One replayed input: a registry program run with its arguments.

    ``scheduler_seed`` is set for exploration runs, whose workload is fixed
    by ``seed`` while the schedule varies.
    """

    program: str
    seed: int
    run_kwargs: dict
    scheduler_seed: Optional[int] = None

    def run(self, **extra):
        factory = None
        if self.scheduler_seed is not None:
            schedule = self.scheduler_seed
            factory = lambda _seed: RandomScheduler(schedule)  # noqa: E731
        kwargs = dict(self.run_kwargs, **extra)
        return run_program(self.program, seed=self.seed,
                           scheduler_factory=factory, **kwargs)


def subjects_for(name: str, ctx: Context) -> List[Subject]:
    count = SUBJECTS[name][0 if ctx.smoke else 1]
    workload = WORKLOADS[name]
    if isinstance(workload, ServeWorkload):
        return [
            Subject(workload.program, workload.session_seed(ctx, index),
                    workload.run_kwargs(ctx))
            for index in range(count)
        ]
    if isinstance(workload, CheckLogsWorkload):
        seeds = workload.seeds(ctx)[:count // len(CHECK_CALLS)]
        return [
            Subject(program, seed, check_run_kwargs(program, ctx.smoke))
            for seed in seeds for program in CHECK_CALLS
        ]
    # the first swarm campaign's runs: workload mix fixed, schedules vary
    return [
        Subject("blinktree", swarm_mix(ctx, 0), dict(EXPLORE, mode="view"),
                scheduler_seed=ctx.seed * 1_000_000 + index)
        for index in range(count)
    ]


# -- the replay ------------------------------------------------------------------------


@dataclass
class Counts:
    """Work done by the replay, the denominators of the per-layer rates."""

    records: int = 0
    steps: int = 0
    bytes: int = 0
    commits: int = 0
    race_records: int = 0
    linz_ops: int = 0
    linz_nodes: int = 0
    linz_memo_hits: int = 0
    linz_clones: int = 0


@dataclass
class Served:
    """What one pass of the serve steps produced."""

    bare: object
    run: object
    manifest: dict
    tails: list
    merger: StreamMerger
    view_outcome: object
    signature: str
    chains: list
    session: object


def replay_serve(spans: Spans, store, name: str, index: int,
                 subject: Subject) -> Served:
    """Steps 1-8, one public entry point per span, then the whole daemon."""
    program = subject.program
    with spans.span("kernel", index):
        bare = subject.run(log_level="none")
    with spans.span("run.view", index):
        run = subject.run()
    with spans.span("produce", index):
        manifest = produce_session(store, name, program, seed=subject.seed,
                                   num_shards=SHARDS, run_kwargs=subject.run_kwargs)
    with spans.span("tail", index):
        tails = [ShardTail(store, name, shard) for shard in range(SHARDS)]
        polled = []
        for tail in tails:
            items = tail.poll()
            while items:
                polled.append((tail.index, items))
                items = tail.poll()
    with spans.span("merge", index):
        merger = StreamMerger(SHARDS)
        for shard, items in polled:
            merger.push(shard, items)
        merged = merger.pop_ready()
    checker_factory = session_checkers(program)[0]
    checker = checker_factory()
    # The direct run's records: equal to the merged ones whenever the
    # producer ran the same schedule, and the explored schedule otherwise.
    with spans.span("refinement.view", index):
        checker.feed(run.log)
        view_outcome = checker.finish()
    with spans.span("signature", index):
        signature = log_signature(merged)
    with spans.span("verify_chain", index):
        chains = [
            verify_chain(store.path(entry["name"]), expected_head=entry["head_digest"])
            for entry in manifest["shards"]
        ]
    with spans.span("serve.session", index):
        session = ServeSession(store, name, SHARDS,
                               checker_factory=checker_factory).run()
    return Served(bare, run, manifest, tails, merger, view_outcome, signature,
                  chains, session)


def replay_subject(spans: Spans, counts: Counts, tally: Tally, store, work: str,
                   index: int, subject: Subject, recorder: MetricsRecorder) -> str:
    """Replay one subject through every layer; returns its encoded log path.

    The serve steps run ``REPEATS`` times, each under a fresh session name
    (an existing name would append to the old shards), because their layers
    are taken by difference and a single pass is too noisy for that.
    """
    program = subject.program
    name = f"t{index:05d}"
    with spans.span("subject", index):
        for rep in range(REPEATS):
            served = replay_serve(spans, store, f"{name}-{rep}", index, subject)
        run = served.run
        path = os.path.join(work, f"{name}.vlog")
        with spans.span("encode", index):
            with LogWriter(path, chained=True) as writer:
                writer.write_all(run.log)
        with spans.span("decode", index):
            decoded = load_log(path)
        with spans.span("validate", index):
            problems = validate_well_formed(decoded)
        io = io_checker(program)
        with spans.span("refinement.io", index):
            io.feed(decoded)
            io_outcome = io.finish()
        linz = LinzChecker(linz_config(program).linz_spec_factory)
        with spans.span("linz", index):
            linz_outcome = linz.check(decoded)
    # Outside the spans: a log with locks and reads for the race detectors
    # (serve and explore runs do not record them), and the checker's own
    # counters, which cost extra and would distort the view span.
    race_log = run.log
    if not subject.run_kwargs.get("log_reads"):
        race_log = subject.run(log_locks=True, log_reads=True).log
    atomic = PROGRAMS[program].atomic_locs
    with spans.span("races.hb", index):
        RaceChecker("hb", atomic_locs=atomic).feed(race_log)
    with spans.span("races.lockset", index):
        RaceChecker("lockset", atomic_locs=atomic).feed(race_log)
    built = PROGRAMS[program].build(False, 1)
    RefinementChecker(
        built.spec_factory(), mode="view", impl_view=built.view_factory(),
        invariants=built.invariants, replay_registry=built.replay_registry,
        obs=recorder,
    ).feed(run.log)

    records = len(run.log)
    counts.records += records
    counts.steps += served.bare.kernel.steps
    counts.bytes += os.path.getsize(path)
    counts.commits += served.view_outcome.commits_executed
    counts.race_records += len(race_log)
    counts.linz_ops += linz_outcome.operations
    stats = linz_outcome.stats
    counts.linz_nodes += stats.get("nodes", 0)
    counts.linz_memo_hits += stats.get("memo_hits", 0)
    counts.linz_clones += stats.get("spec_clones", 0)
    # served == direct holds only when the producer ran the same schedule;
    # a producer cannot take an exploration run's scheduler.
    same_schedule = subject.scheduler_seed is None
    tally.check(
        (served.signature == log_signature(run.log) or not same_schedule)
        and served.session.ok and served.session.signature == served.signature
        and all(report.ok for report in served.chains)
        and served.merger.next_seq == served.manifest["records"]
        and records == len(decoded)
        and not any(tail.error for tail in served.tails)
        and problems == validate_well_formed(run.log)
        and served.view_outcome.ok
        and verdicts_agree(program, io_outcome.ok, linz_outcome.ok),
        f"replay of {program} seed {subject.seed} disagrees with the direct run",
    )
    return path


def layer_totals(spans: Spans) -> Dict[str, Dict[str, float]]:
    """Self wall/CPU per layer; tracer, tee and the daemon remainder are
    taken by difference."""
    raw = spans.self_times()

    def get(name, key):
        return raw.get(name, {}).get(key, 0.0)

    layers = {}
    for key in ("cpu", "wall"):
        derived = {
            "kernel": get("kernel", key),
            "tracer": get("run.view", key) - get("kernel", key),
            "shard.tee": get("produce", key) - get("run.view", key),
            "shard.tail": get("tail", key),
            "merge": get("merge", key),
            "refinement.view": get("refinement.view", key),
            "codec.signature": get("signature", key),
            "codec.verify_chain": get("verify_chain", key),
            "daemon": get("serve.session", key) - sum(
                get(step, key) for step in
                ("tail", "merge", "refinement.view", "signature", "verify_chain")
            ),
            "codec.encode": get("encode", key),
            "codec.decode": get("decode", key),
            "codec.validate": get("validate", key),
            "refinement.io": get("refinement.io", key),
            "linz": get("linz", key),
            "races.hb": get("races.hb", key),
            "races.lockset": get("races.lockset", key),
        }
        for layer, value in derived.items():
            layers.setdefault(layer, {})[key] = value
    return layers


# -- untraced references and probes --------------------------------------------------


def reference(spans: Spans, workload, store, index: int, subject: Subject,
              path: str) -> list:
    """The workload's own untraced unit on one subject, ``REPEATS`` times,
    each under a "reference" span; returns the serve sessions it ran.

    It runs right after the subject's replay, so both see the machine in
    the same state, and like the replay it counts at its fastest.
    """
    sessions = []
    factories = session_checkers(subject.program)
    for rep in range(REPEATS):
        with spans.span("reference", index):
            if isinstance(workload, ServeWorkload):
                sessions.append(serve_session(
                    store, f"r{index:05d}-{rep}", subject.program, subject.seed,
                    subject.run_kwargs, factories,
                ))
            elif isinstance(workload, CheckLogsWorkload):
                check_file(subject.program, path)
            else:
                # one swarm run alone; a campaign adds almost nothing per run
                explore_program(subject.program, num_runs=1,
                                base_seed=subject.scheduler_seed,
                                workload_seed=subject.seed, jobs=1, **EXPLORE)
    return sessions


def serve_sessions(store, subjects: List[Subject]) -> list:
    """Real serve sessions over the subjects, for the daemon's counters."""
    return [
        serve_session(store, f"d{index:05d}", subject.program, subject.seed,
                      subject.run_kwargs, session_checkers(subject.program))
        for index, subject in enumerate(subjects)
    ]


def daemon_metrics(sessions: list, tally: Tally) -> Dict[str, tuple]:
    """The daemon's counters from ``ServeResult.stats``, plus lag and CPU."""
    for session in sessions:
        problem = session_problem(session)
        tally.check(problem is None, problem or "")
    stats = [s.result.stats for s in sessions]
    cpu = sum(s.meter.cpu for s in sessions)
    return {
        "daemon.queue_max_depth": (max(x["queue_max_depth"] for x in stats), "count"),
        "daemon.queue_put_waits": (sum(x["queue_put_waits"] for x in stats), "count"),
        "daemon.pause_raises": (sum(x["pause_raises"] for x in stats), "count"),
        "daemon.producer_throttle_waits": (
            sum(x["producer_throttle_waits"] or 0 for x in stats), "count"),
        "daemon.verdict_lag_p90_ms": (
            percentile([s.lag for s in sessions], 90.0) * 1e3, "ms"),
        "daemon.producer_cpu_share": (
            sum(s.producer_cpu for s in sessions) / cpu, "ratio"),
    }


def explore_probe(ctx: Context, tally: Tally) -> Dict[str, tuple]:
    """The exploration engine on the explore-blinktree inputs, scaled down."""
    runs = 60 if ctx.smoke else 300
    points = []
    for calls in (1, EXPLORE["calls_per_thread"]):
        with Meter() as meter:
            result = swarm_campaign(ctx, 1, calls, runs)
        tally.check(not result.failures, "probe swarm reported a violation")
        steps = [
            Subject("blinktree", swarm_mix(ctx, 1),
                    {"num_threads": EXPLORE["num_threads"], "calls_per_thread": calls,
                     "log_level": "none"},
                    scheduler_seed=run.schedule).run().kernel.steps
            for run in result.runs[:20]
        ]
        points.append((sum(steps) / len(steps), meter.cpu / runs))
    (steps_a, cost_a), (steps_b, cost_b) = points
    slope = (cost_b - cost_a) / (steps_b - steps_a)
    detect = []
    for index in range(5 if ctx.smoke else 20):
        result = detect_campaign(index)
        tally.check(bool(result.failures), f"detection campaign {index} missed")
        detect.append(result.num_runs)
    with Meter() as reducer_meter:
        for program in sorted({case[0] for case in EXHAUST_CASES}):
            StaticReducer.from_effects(analyze_program(program))
    exhaust_runs = exhaust_pruned = 0
    for case in EXHAUST_CASES:
        result = exhaust_case(case)
        tally.check(result.exhausted and len(violation_set(result)) == case[5],
                    f"exhaustion of {case[:5]} differs")
        exhaust_runs += result.num_runs
        exhaust_pruned += result.pruned
    walls = {}
    for jobs in (1, 2):
        with Meter() as meter:
            result = explore_program(
                "blinktree", num_runs=2 * runs, base_seed=ctx.seed * 1_000_000,
                workload_seed=swarm_mix(ctx, 1), jobs=jobs, **EXPLORE,
            )
        tally.check(not result.failures, f"jobs={jobs} swarm reported a violation")
        walls[jobs] = meter.wall
    return {
        "explore.us_per_run": (cost_b * 1e6, "us"),
        "explore.fixed_ms_per_run": ((cost_a - slope * steps_a) * 1e3, "ms"),
        "explore.detect_runs_p50": (median(detect), "count"),
        "explore.exhaust_runs": (exhaust_runs, "count"),
        "explore.exhaust_pruned": (exhaust_pruned, "count"),
        "explore.reducer_setup_ms": (reducer_meter.cpu * 1e3, "ms"),
        "explore.jobs2_overhead_ratio": (walls[2] / walls[1], "ratio"),
    }


def histogram_mean(recorder: MetricsRecorder, name: str) -> float:
    histogram = recorder.histograms.get(name)
    return histogram.mean if histogram is not None and histogram.count else 0.0


# -- the traced run ---------------------------------------------------------------------


def trace_workload(name: str, ctx: Context) -> dict:
    subjects = subjects_for(name, ctx)
    pipeline = PIPELINES[name]
    spans = Spans()
    counts = Counts()
    tally = Tally()
    recorder = MetricsRecorder(max_events=0)
    store = LocalDirectoryStore(ctx.fresh_dir("store"))
    work = ctx.fresh_dir("replay")
    workload = WORKLOADS[name]
    sessions = []
    for index, subject in enumerate(subjects):
        path = replay_subject(spans, counts, tally, store, work, index, subject,
                              recorder)
        sessions += reference(spans, workload, store, index, subject, path)
    if not isinstance(workload, ServeWorkload):
        sessions = serve_sessions(
            store, subjects[:DAEMON_SESSIONS[0 if ctx.smoke else 1]])
    daemon = daemon_metrics(sessions, tally)
    ref_cpu = spans.self_times()["reference"]["cpu"]
    ref_wall = spans.self_times()["reference"]["wall"]
    layers = layer_totals(spans)
    pipeline_cpu = sum(layers[layer]["cpu"] for layer in pipeline)
    pipeline_wall = sum(layers[layer]["wall"] for layer in pipeline)
    dominant = max(pipeline, key=lambda layer: layers[layer]["cpu"])

    def per_record(layer, records=None):
        return layers[layer]["cpu"] * 1e6 / (records or counts.records)

    metrics = {
        "kernel.steps_per_record": (counts.steps / counts.records, "count"),
        "kernel.us_per_step": (layers["kernel"]["cpu"] * 1e6 / counts.steps, "us"),
        "kernel.cpu_share": (
            layers["kernel"]["cpu"] / ref_cpu if "kernel" in pipeline else 0.0,
            "ratio"),
        "tracer.us_per_record": (per_record("tracer"), "us"),
        "codec.encode_us_per_record": (per_record("codec.encode"), "us"),
        "codec.decode_us_per_record": (per_record("codec.decode"), "us"),
        "codec.validate_us_per_record": (per_record("codec.validate"), "us"),
        "codec.bytes_per_record": (counts.bytes / counts.records, "B"),
        "codec.verify_chain_us_per_record": (per_record("codec.verify_chain"), "us"),
        "codec.signature_us_per_record": (per_record("codec.signature"), "us"),
        "shard.tee_us_per_record": (per_record("shard.tee"), "us"),
        "shard.tail_us_per_record": (per_record("shard.tail"), "us"),
        "merge.us_per_record": (per_record("merge"), "us"),
        "daemon.us_per_record": (per_record("daemon"), "us"),
        "refinement.view_us_per_record": (per_record("refinement.view"), "us"),
        "refinement.io_us_per_record": (per_record("refinement.io"), "us"),
        "refinement.commits_per_s": (
            counts.commits / layers["refinement.view"]["cpu"], "1/s"),
        "view.units_recomputed": (
            histogram_mean(recorder, "view.units_recomputed"), "count"),
        "view.keys_compared": (histogram_mean(recorder, "view.keys_compared"), "count"),
        "observer.window_size": (
            histogram_mean(recorder, "observer.window_size"), "count"),
        "linz.us_per_op": (layers["linz"]["cpu"] * 1e6 / counts.linz_ops, "us"),
        "linz.nodes_per_op": (counts.linz_nodes / counts.linz_ops, "count"),
        "linz.memo_hit_ratio": (
            counts.linz_memo_hits / max(1, counts.linz_nodes + counts.linz_memo_hits),
            "ratio"),
        "linz.spec_clones_per_op": (counts.linz_clones / counts.linz_ops, "count"),
        "races.hb_us_per_record": (per_record("races.hb", counts.race_records), "us"),
        "races.lockset_us_per_record": (
            per_record("races.lockset", counts.race_records), "us"),
    }
    metrics.update(daemon)
    metrics.update(explore_probe(ctx, tally))
    metrics.update({
        "trace.explained_fraction": (pipeline_cpu / ref_cpu, "ratio"),
        "trace.overhead_ratio": (pipeline_wall / ref_wall, "ratio"),
        "trace.dominant_share": (layers[dominant]["cpu"] / ref_cpu, "ratio"),
    })
    return {
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures[:20],
        "metrics": metrics,
        "details": {
            "subjects": len(subjects),
            "records": counts.records,
            "pipeline": list(pipeline),
            "dominant_layer": dominant,
            "reference_cpu_s": ref_cpu,
            "reference_wall_s": ref_wall,
            "layer_cpu_s": {layer: v["cpu"] for layer, v in layers.items()},
            "layer_share": {
                layer: layers[layer]["cpu"] / ref_cpu for layer in pipeline
            },
            # outside the pipeline sum: part of what steps 1-8 leave out
            "daemon_remainder_share": layers["daemon"]["cpu"] / ref_cpu,
        },
        "spans": spans.to_list(),
    }
