"""The ``vyrd`` command line: run workloads, check and inspect logs.

The paper's deployment story is two-phase: instrumented runs write a log
file; a verification pass replays it (section 4.2 -- "in practice, the log
is a file").  This CLI packages that workflow over the built-in benchmark
programs:

.. code-block:: console

   $ python -m repro.tools.cli programs
   $ python -m repro.tools.cli lint --json --fail-on error
   $ python -m repro.tools.cli analyze blinktree --matrix
   $ python -m repro.tools.cli run --program multiset-vector --buggy \\
         --seed 7 --races --save run.vyrdlog
   $ python -m repro.tools.cli explore --program multiset-vector --buggy \\
         --mode swarm --jobs 4 --seeds 500 --json
   $ python -m repro.tools.cli explore --program blinktree \\
         --mode exhaustive --reduce static --no-daemons --threads 3 \\
         --calls 1 --workload-seed 7 --max-runs 40000
   $ python -m repro.tools.cli check run.vyrdlog --program multiset-vector \\
         --mode view
   $ python -m repro.tools.cli check torn.vyrdlog --program multiset-vector \\
         --recover
   $ python -m repro.tools.cli check run.vyrdlog --program multiset-vector \\
         --mode linz --json
   $ python -m repro.tools.cli faults --program multiset-vector --seed 7 \\
         --jobs 2 --json
   $ python -m repro.tools.cli run --program blinktree --seed 3 --metrics \\
         --trace-out blinktree.trace.json
   $ python -m repro.tools.cli races run.vyrdlog --detector hb
   $ python -m repro.tools.cli trace run.vyrdlog --max-rows 40
   $ python -m repro.tools.cli witness run.vyrdlog
   $ python -m repro.tools.cli serve --program multiset-vector --sessions 2 \\
         --shards 2 --root /tmp/vyrd-serve --verify-direct --json
   $ python -m repro.tools.cli verify-chain /tmp/vyrd-serve/run-00000

``serve`` runs the streaming verification service (:mod:`repro.serve`):
producer processes write sharded, hash-chained logs into a store while a
daemon merges, checks and chain-audits them online (``--verify-direct``
additionally gates every session's canonical-order signature against a
single-process rerun); ``verify-chain`` walks the tamper-evident hash
chain of saved shard files -- or a whole session directory against its
manifest's recorded head digests -- and pinpoints the first bad byte;
``lint`` statically checks every registry implementation's
instrumentation annotations (:mod:`repro.lint`) before anything runs and
audits the ``# vyrd: ignore[...]`` suppression pragmas;
``analyze`` prints the static effect summaries and pairwise independence
matrix (:mod:`repro.lint.effects`) that ``explore --reduce static``
consumes; ``explore`` runs a whole campaign -- seeded random schedules
(swarm) or bounded exhaustive enumeration, optionally pruned by
sleep-set reduction over the static matrix (``--reduce static``) --
optionally fanned out across worker
processes (``--jobs``, :mod:`repro.concurrency.explore`); ``check`` rebuilds the
program's spec/view/invariants from the registry and
replays the saved log offline (``--recover`` salvages damaged logs first;
``--mode linz`` searches the log's call/return history for a
linearization, ``--mode both`` cross-validates that search with I/O
refinement); ``faults`` runs a seeded fault-injection campaign
(:mod:`repro.faults`) and verifies recovery; ``races`` runs the dynamic race detectors
over any saved log recorded with synchronization events (``run --races``
records them); ``trace``/``witness`` render Fig. 3/6-style diagrams from
any saved log.  ``run``/``explore``/``faults``/``serve`` accept
``--metrics``/``--trace-out`` to record their workflow with the
observability layer (:mod:`repro.obs`) and report where the time went.

``--mode io`` means one thing in every command: I/O refinement alone, with
neither the view nor the invariants, over a log written at io level.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from typing import List, Optional

from ..concurrency.errors import SimThreadError, SimulationError
from ..core import (
    Checkpoint,
    CheckpointError,
    CheckPlan,
    LogFormatError,
    format_outcome,
    load_log,
    recover_log,
    render_trace,
    render_witness,
    save_log,
    validate_well_formed,
)
from ..core.plan import CHECK_ERRORS, problem_of
from ..harness import PROGRAMS, explore_program, run_program


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (``run``/``explore``/``faults``/``serve``)."""
    parser.add_argument("--metrics", action="store_true",
                        help="record pipeline metrics (repro.obs) and report "
                             "them (tables, or under 'metrics' with --json)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace-event JSON of the "
                             "recorded spans to PATH (implies --metrics)")


def _obs_recorder(args):
    """A ``MetricsRecorder`` when the command asked for one, else ``None``."""
    if not (args.metrics or args.trace_out):
        return None
    from ..obs import MetricsRecorder

    return MetricsRecorder()


def _finish_obs(args, recorder, payload=None, title="pipeline profile") -> None:
    """Shared tail of every observability-aware command: export and report.

    Writes the trace file when requested, then either attaches the full
    metrics dict to the JSON ``payload`` or prints the profiling tables.
    """
    if recorder is None:
        return
    if args.trace_out:
        from ..obs import write_trace

        write_trace(recorder, args.trace_out)
    if payload is not None:
        payload["metrics"] = recorder.to_dict()
        if args.trace_out:
            payload["trace"] = args.trace_out
        return
    if args.metrics:
        from ..obs import format_metrics

        print()
        print(format_metrics(recorder, title=title))
    if args.trace_out:
        print(f"trace written to {args.trace_out}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vyrd",
        description="Runtime refinement-violation detection (VYRD, PLDI 2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("programs", help="list the built-in benchmark programs")

    lint_parser = sub.add_parser(
        "lint",
        help="statically check instrumentation annotations (commit "
             "placement, yield discipline, shared-write tracing) before "
             "anything runs",
    )
    lint_parser.add_argument("--program", action="append",
                             choices=sorted(PROGRAMS), metavar="NAME",
                             help="program(s) to lint (repeatable; default: "
                                  "every registry program)")
    lint_parser.add_argument("--rule", action="append", metavar="VY00x",
                             help="only report these rule ids (repeatable)")
    lint_parser.add_argument("--fail-on", choices=("warn", "error"),
                             default="warn",
                             help="lowest severity that makes the command "
                                  "exit 2 (default: warn)")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit the findings as JSON")

    analyze_parser = sub.add_parser(
        "analyze",
        help="statically compute per-operation effect summaries and the "
             "pairwise independence matrix that drives --reduce static",
    )
    analyze_parser.add_argument("program", choices=sorted(PROGRAMS))
    analyze_parser.add_argument("--matrix", action="store_true",
                                help="also print the pairwise "
                                     "independence matrix")
    analyze_parser.add_argument("--json", action="store_true",
                                help="emit the full analysis (summaries, "
                                     "matrix, incomplete operations) as JSON")

    run_parser = sub.add_parser("run", help="run a workload and check it")
    run_parser.add_argument("--program", required=True, choices=sorted(PROGRAMS))
    run_parser.add_argument("--buggy", action="store_true",
                            help="enable the program's seeded bug")
    run_parser.add_argument("--threads", type=int, default=4)
    run_parser.add_argument("--calls", type=int, default=40,
                            help="method calls per thread")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--mode", choices=("io", "view"), default="view")
    run_parser.add_argument("--online", action="store_true",
                            help="verify with the online verification thread")
    run_parser.add_argument("--atomicity", action="store_true",
                            help="also run the Atomizer-style atomicity "
                                 "baseline (logs lock/read events)")
    run_parser.add_argument("--races", nargs="?", const="both",
                            choices=("hb", "lockset", "both"),
                            help="also run dynamic race detection (logs "
                                 "sync/read events); optional value selects "
                                 "the detector (default: both)")
    run_parser.add_argument("--save", metavar="PATH",
                            help="write the log to PATH for later checking "
                                 "(a chained VYRDLOG2 file, shard 0)")
    run_parser.add_argument("--lint", nargs="?", const="error",
                            choices=("warn", "error"),
                            help="statically lint the implementation's "
                                 "instrumentation before running; findings "
                                 "at or above this severity abort the run "
                                 "(default threshold: error)")
    run_parser.add_argument("--max-steps", type=int, default=20_000_000,
                            help="kernel step budget (exceeding it is "
                                 "reported as a run problem, exit code 2)")
    _add_obs_arguments(run_parser)
    run_parser.add_argument("--json", action="store_true",
                            help="emit the run summary as JSON")

    explore_parser = sub.add_parser(
        "explore",
        help="run an exploration campaign (many schedules, optionally "
             "across worker processes)",
    )
    explore_parser.add_argument("--program", required=True, choices=sorted(PROGRAMS))
    explore_parser.add_argument("--mode", choices=("swarm", "exhaustive"),
                                default="swarm",
                                help="seeded random schedules (swarm) or "
                                     "bounded exhaustive enumeration")
    explore_parser.add_argument("--jobs", type=int, default=1,
                                help="worker processes (0 = all CPUs, "
                                     "1 = serial in-process)")
    explore_parser.add_argument("--seeds", type=int, default=100,
                                help="swarm: number of seeded runs")
    explore_parser.add_argument("--base-seed", type=int, default=0,
                                help="swarm: first scheduler seed")
    explore_parser.add_argument("--max-runs", type=int, default=1000,
                                help="exhaustive: schedule budget")
    explore_parser.add_argument("--buggy", action="store_true",
                                help="enable the program's seeded bug")
    explore_parser.add_argument("--threads", type=int, default=2)
    explore_parser.add_argument("--calls", type=int, default=4,
                                help="method calls per thread")
    explore_parser.add_argument("--workload-seed", type=int, default=0,
                                help="fixes the operation mix; only the "
                                     "schedule varies across runs")
    explore_parser.add_argument("--stop-on-failure", action="store_true",
                                help="end the campaign at the first failing "
                                     "schedule (skipped runs are reported)")
    explore_parser.add_argument("--reduce", choices=("static",),
                                help="exhaustive: prune schedules that only "
                                     "permute statically independent "
                                     "operations (sleep sets over the "
                                     "`vyrd analyze` matrix); pruned "
                                     "schedules are counted as skipped")
    explore_parser.add_argument("--no-daemons", action="store_true",
                                help="do not spawn the program's background "
                                     "daemons (always-runnable daemons make "
                                     "the exhaustive schedule tree infinite)")
    explore_parser.add_argument("--fingerprint", action="store_true",
                                help="report each run's outcome as a "
                                     "canonical happens-before fingerprint "
                                     "of its log (records lock/read events)")
    _add_obs_arguments(explore_parser)
    explore_parser.add_argument("--json", action="store_true",
                                help="emit the campaign summary as JSON")

    check_parser = sub.add_parser("check", help="check a saved log offline")
    check_parser.add_argument("log", help="log file written by `run --save`")
    check_parser.add_argument("--program", required=True, choices=sorted(PROGRAMS))
    check_parser.add_argument(
        "--mode", choices=("io", "view", "refinement", "linz", "both"),
        default="view",
        help="io/view: commit-annotated refinement ('refinement' is an "
             "alias for view); linz: annotation-free linearization search "
             "(violations exit 2); both: run I/O refinement and the "
             "linearization search and require the verdicts to agree -- "
             "a disagreement outside the documented expected-divergence "
             "list exits 2 with both verdicts in --json")
    check_parser.add_argument(
        "--variant", default="default",
        help="linz/both: the program's linearizability variant (e.g. "
             "'strict-lookup' for multiset-vector's documented "
             "expected divergence)")
    check_parser.add_argument("--all", action="store_true",
                              help="collect all violations, not just the first")
    check_parser.add_argument("--max-nodes", type=int, default=2_000_000,
                              help="linz/both: search-node budget; exceeding "
                                   "it is a hard error (exit 2), not a "
                                   "verdict")
    check_parser.add_argument("--recover", action="store_true",
                              help="salvage the longest valid prefix of a "
                                   "truncated/corrupt log and check that; "
                                   "without this flag a damaged log is a "
                                   "hard error (exit code 2)")
    check_parser.add_argument("--checkpoint-every", type=int, metavar="N",
                              default=0,
                              help="write a rolling checkpoint after every N "
                                   "processed records (requires --checkpoint); "
                                   "the last one lands on the last multiple "
                                   "of N")
    check_parser.add_argument("--checkpoint", metavar="PATH",
                              help="checkpoint file to write (with "
                                   "--checkpoint-every) or to update on "
                                   "completion")
    check_parser.add_argument("--resume", metavar="CKPT",
                              help="resume mid-log from a checkpoint written "
                                   "by a previous check of the same log; a "
                                   "corrupt checkpoint is rejected and the "
                                   "check falls back to record zero")
    check_parser.add_argument("--json", action="store_true",
                              help="emit the outcome as JSON")

    faults_parser = sub.add_parser(
        "faults",
        help="run a deterministic fault-injection campaign and verify "
             "recovery (crashes/hangs survive with serial-identical "
             "results; corrupt logs salvage exactly)",
    )
    faults_parser.add_argument("--program", default="multiset-vector",
                               choices=sorted(PROGRAMS))
    faults_parser.add_argument("--seed", type=int, default=0,
                               help="fault-plan generation seed")
    faults_parser.add_argument("--plan", metavar="PATH",
                               help="JSON fault plan (as emitted under "
                                    "'plan' in --json output) to replay "
                                    "instead of generating one from --seed")
    faults_parser.add_argument("--jobs", type=int, default=2,
                               help="worker processes for the faulted run")
    faults_parser.add_argument("--seeds", type=int, default=12,
                               help="schedules explored per campaign")
    faults_parser.add_argument("--threads", type=int, default=2)
    faults_parser.add_argument("--calls", type=int, default=3,
                               help="method calls per thread")
    faults_parser.add_argument("--timeout", type=float, default=5.0,
                               help="per-task watchdog deadline (seconds)")
    faults_parser.add_argument("--retries", type=int, default=2,
                               help="retry budget per task")
    _add_obs_arguments(faults_parser)
    faults_parser.add_argument("--json", action="store_true",
                               help="emit the campaign report as JSON")

    races_parser = sub.add_parser(
        "races", help="run dynamic race detection on a saved log"
    )
    races_parser.add_argument("log", help="log file written by `run --races --save`")
    races_parser.add_argument("--detector", choices=("hb", "lockset", "both"),
                              default="both")
    races_parser.add_argument("--atomic-prefix", action="append", default=[],
                              metavar="PREFIX",
                              help="treat locations starting with PREFIX as "
                                   "atomic (volatile/cache-mediated); e.g. "
                                   "'blt.' for blinktree logs (repeatable)")
    races_parser.add_argument("--context", type=int, default=4,
                              help="rows of context in the race excerpt")
    races_parser.add_argument("--json", action="store_true",
                              help="emit the outcome as JSON")

    trace_parser = sub.add_parser("trace", help="render a log as thread lanes")
    trace_parser.add_argument("log")
    trace_parser.add_argument("--writes", action="store_true",
                              help="include shared-variable writes")
    trace_parser.add_argument("--max-rows", type=int, default=None)

    witness_parser = sub.add_parser(
        "witness", help="show the commit-order witness interleaving"
    )
    witness_parser.add_argument("log")

    serve_parser = sub.add_parser(
        "serve",
        help="run the streaming verification service: forked producers "
             "write sharded hash-chained logs, the daemon merges them "
             "deterministically, checks online and audits the chains",
    )
    serve_parser.add_argument("--program", required=True,
                              choices=sorted(PROGRAMS))
    serve_parser.add_argument("--sessions", type=int, default=1,
                              help="producer sessions to serve (each gets "
                                   "seed base-seed + i)")
    serve_parser.add_argument("--base-seed", type=int, default=0)
    serve_parser.add_argument("--shards", type=int, default=2,
                              help="shard files per session")
    serve_parser.add_argument("--jobs", type=int, default=2,
                              help="sessions verified concurrently")
    serve_parser.add_argument("--buggy", action="store_true",
                              help="enable the program's seeded bug")
    serve_parser.add_argument("--threads", type=int, default=3)
    serve_parser.add_argument("--calls", type=int, default=10,
                              help="method calls per thread")
    serve_parser.add_argument("--mode", choices=("io", "view"),
                              default="view")
    serve_parser.add_argument("--races", nargs="?", const="both",
                              choices=("hb", "lockset", "both"),
                              help="also run daemon-side race detection "
                                   "(producers log sync/read events)")
    serve_parser.add_argument("--root", metavar="DIR",
                              help="store directory for shard files "
                                   "(default: a fresh temp directory)")
    serve_parser.add_argument("--sync", action="store_true",
                              help="fsync every acknowledged batch "
                                   "(crash-durable shards)")
    serve_parser.add_argument("--batch-records", type=int, default=64,
                              help="producer flush granularity")
    serve_parser.add_argument("--queue-records", type=int, default=4096,
                              help="daemon queue bound; producers are "
                                   "backpressured when checkers lag")
    serve_parser.add_argument("--supervise", action="store_true",
                              help="run each producer under the salvage-"
                                   "and-restart supervisor")
    serve_parser.add_argument("--max-restarts", type=int, default=2,
                              help="restart budget per supervised producer")
    serve_parser.add_argument("--kill-producer-after", type=int,
                              default=None, metavar="N",
                              help="fault hook: first producer attempt dies "
                                   "after N records (needs --supervise to "
                                   "recover)")
    serve_parser.add_argument("--store-retries", type=int, default=0,
                              help="wrap daemon store access in a retrying "
                                   "store with this retry budget")
    serve_parser.add_argument("--degrade-lag", type=int, default=None,
                              metavar="RECORDS",
                              help="degrade to record-only mode (catch-up "
                                   "verification at drain) when the checker "
                                   "queue holds this many records")
    serve_parser.add_argument("--timeout", type=float, default=120.0,
                              help="per-session ingest deadline (seconds)")
    serve_parser.add_argument("--verify-direct", action="store_true",
                              help="gate every session's canonical-order "
                                   "signature against a single-process "
                                   "rerun of the same seed (exit 1 on any "
                                   "mismatch)")
    _add_obs_arguments(serve_parser)
    serve_parser.add_argument("--json", action="store_true",
                              help="emit the campaign report as JSON")

    chain_parser = sub.add_parser(
        "verify-chain",
        help="verify the tamper-evident hash chain of saved shard logs; "
             "a session directory is audited against its MANIFEST.json "
             "head digests",
    )
    chain_parser.add_argument("paths", nargs="+", metavar="PATH",
                              help="chained log file(s), or session "
                                   "directories containing MANIFEST.json")
    chain_parser.add_argument("--expected-head", metavar="HEXDIGEST",
                              help="require this chain head (single file "
                                   "only; catches clean tail truncation)")
    chain_parser.add_argument("--require-chained", action="store_true",
                              help="treat unchained files (the read-only "
                                   "VYRDLOG1 format) as a failure instead "
                                   "of 'no integrity claim'")
    chain_parser.add_argument("--json", action="store_true",
                              help="emit the reports as JSON")

    return parser


def _cmd_programs(args) -> int:
    width = max(len(name) for name in PROGRAMS)
    for name in sorted(PROGRAMS):
        print(f"{name.ljust(width)}  seeded bug: {PROGRAMS[name].bug}")
    return 0


def _cmd_analyze(args) -> int:
    from ..lint.effects import analyze_program

    effects = analyze_program(args.program)
    if args.json:
        print(json.dumps(effects.to_dict(), indent=2))
        return 0
    print(f"{args.program}: class {effects.class_name} ({effects.file})")
    incomplete = effects.incomplete_operations()
    for op in effects.operations:
        summary = effects.summaries[op]
        print(f"  {op} ({summary.role})"
              + ("  [INCOMPLETE]" if op in incomplete else ""))
        rendered = summary.to_dict()
        footprint = [
            ("reads", rendered["reads"]),
            ("writes", rendered["writes"]),
            ("hidden writes", rendered["hidden_writes"]),
            ("locks", rendered["locks"]),
            ("commits", rendered["commit_kinds"]),
        ]
        for label, items in footprint:
            if items:
                print(f"    {label}: {', '.join(items)}")
        for line, reason in summary.reasons:
            print(f"    incomplete at line {line}: {reason}")
    if args.matrix:
        print("  independence matrix:")
        width = max((len(a) + len(b) for a, b in effects.matrix), default=0)
        for (a, b), verdict in sorted(effects.matrix.items()):
            pair = f"{a} x {b}".ljust(width + 3)
            print(f"    {pair}  {verdict.verdict}  ({verdict.reason})")
    return 0


def _cmd_lint(args) -> int:
    from ..lint import (
        ALL_RULE_IDS,
        audit_suppressions,
        lint_program,
        severity_at_least,
    )

    names = args.program if args.program else sorted(PROGRAMS)
    rules = None
    if args.rule:
        rules = {rule.strip().upper() for rule in args.rule}
        unknown = rules - set(ALL_RULE_IDS)
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(ALL_RULE_IDS)})",
                file=sys.stderr,
            )
            return 2
    reports = {name: lint_program(name) for name in names}
    if rules is not None:
        reports = {
            name: [f for f in findings if f.rule_id in rules]
            for name, findings in reports.items()
        }
    gating = [
        finding
        for findings in reports.values()
        for finding in findings
        if severity_at_least(finding.severity, args.fail_on)
    ]
    total = sum(len(findings) for findings in reports.values())
    # Audit the `# vyrd: ignore[...]` pragmas alongside the findings: a
    # suppression hides a diagnostic forever, so the report should say
    # where each one lives and whether it carries a justification.
    suppressions = {name: audit_suppressions(name) for name in names}
    suppressed = sum(len(entries) for entries in suppressions.values())
    unjustified = sum(
        1
        for entries in suppressions.values()
        for entry in entries
        if not entry["has_reason"]
    )
    if args.json:
        print(json.dumps({
            "ok": not gating,
            "fail_on": args.fail_on,
            "programs": {
                name: [f.to_dict() for f in findings]
                for name, findings in reports.items()
            },
            "findings": total,
            "gating_findings": len(gating),
            "suppressions": {
                "total": suppressed,
                "without_reason": unjustified,
                "programs": suppressions,
            },
        }, indent=2))
        return 2 if gating else 0
    for name in names:
        findings = reports[name]
        if not findings:
            print(f"{name}: clean")
            continue
        print(f"{name}: {len(findings)} finding(s)")
        for finding in findings:
            print(f"  {finding.render()}")
    if suppressed:
        print(
            f"suppressions: {suppressed} pragma(s) across "
            f"{sum(1 for e in suppressions.values() if e)} program(s), "
            f"{unjustified} without a reason"
        )
        for name, entries in sorted(suppressions.items()):
            for entry in entries:
                rules = ",".join(entry["rules"])
                reason = "" if entry["has_reason"] else "  (no reason)"
                print(f"  {name}: {entry['file']}:{entry['line']} "
                      f"ignore[{rules}]{reason}")
    if gating:
        print(
            f"lint failed: {len(gating)} finding(s) at or above "
            f"'{args.fail_on}'",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_run(args) -> int:
    recorder = _obs_recorder(args)
    try:
        result = run_program(
            args.program,
            buggy=args.buggy,
            num_threads=args.threads,
            calls_per_thread=args.calls,
            seed=args.seed,
            mode=args.mode,
            online=args.online,
            max_steps=args.max_steps,
            log_locks=args.atomicity,
            log_reads=args.atomicity,
            races=args.races,
            lint=args.lint,
            obs=recorder,
        )
    except SimulationError as exc:
        # The workload itself misbehaved (deadlock, runaway schedule, thread
        # crash, instrumentation misuse): report the problem as data, not a
        # stack trace.  Exit code 2 separates "the run could not complete"
        # from "the run completed and verification failed" (1).
        from ..core.instrument import InstrumentationError

        # A mid-operation InstrumentationError surfaces wrapped in the
        # SimThreadError of the thread it killed; unwrap so the report names
        # the offending method/thread/operation rather than the thread crash.
        cause = exc
        if isinstance(exc, SimThreadError) and isinstance(
            exc.__cause__, InstrumentationError
        ):
            cause = exc.__cause__
        fields = {"program": args.program, "seed": args.seed,
                  "problem": f"{type(cause).__name__}: {cause}"}
        if isinstance(cause, InstrumentationError):
            fields.update(method=cause.method, tid=cause.tid, op_id=cause.op_id)
        findings = getattr(cause, "findings", None)
        if findings is not None:
            fields["lint_findings"] = [f.to_dict() for f in findings]
        return _problem(args, cause, **fields)
    outcome = (
        result.online_outcome if args.online else result.vyrd.check_offline()
    )
    variant = "buggy" if args.buggy else "correct"
    races_ok = True
    if args.races:
        races_ok = result.race_outcome.ok
    if args.json:
        payload = {
            "ok": bool(outcome.ok and races_ok),
            "program": args.program,
            "variant": variant,
            "seed": args.seed,
            "threads": args.threads,
            "calls": args.calls,
            "mode": args.mode,
            "records": len(result.log),
            "refinement": outcome.to_dict(),
        }
        if args.races:
            payload["races"] = result.race_outcome.to_dict()
        if args.save:
            save_log(result.log, args.save)
            payload["saved"] = args.save
        _finish_obs(args, recorder, payload)
        _emit_json(payload, result.log)
        return 0 if payload["ok"] else 1
    print(
        f"ran {args.program} ({variant}), {args.threads} threads x "
        f"{args.calls} calls, seed {args.seed}: {len(result.log)} log records"
    )
    print(format_outcome(outcome, title=f"{args.mode} refinement"))
    if args.atomicity:
        from ..atomicity import check_atomicity

        atomicity = check_atomicity(result.log)
        print(f"atomicity baseline: {atomicity.summary()}")
    if args.races:
        from ..races import format_race_outcome, render_first_race

        races = result.race_outcome
        print(format_race_outcome(races, title=f"race detection ({args.races})"))
        excerpt = render_first_race(result.log, races)
        if excerpt is not None:
            print(excerpt)
    if args.save:
        save_log(result.log, args.save)
        print(f"log written to {args.save}")
    _finish_obs(args, recorder, title=f"{args.program} run profile")
    return 0 if outcome.ok and races_ok else 1


def _cmd_explore(args) -> int:
    if args.reduce is not None and args.mode != "exhaustive":
        print("error: --reduce static requires --mode exhaustive",
              file=sys.stderr)
        return 2
    recorder = _obs_recorder(args)
    start = time.perf_counter()
    # The campaign's per-run metrics are deterministic counter snapshots
    # merged across workers (ExplorationResult.metrics); the coordinator
    # recorder contributes one campaign-level span for the trace and then
    # folds the merged counters in so the report covers both.
    with (recorder.span("explore.campaign", cat="explore", mode=args.mode,
                        jobs=args.jobs)
          if recorder is not None else nullcontext()):
        result = explore_program(
            args.program,
            mode=args.mode,
            jobs=args.jobs,
            num_runs=args.seeds,
            base_seed=args.base_seed,
            max_runs=args.max_runs,
            stop_on_failure=args.stop_on_failure,
            buggy=args.buggy,
            num_threads=args.threads,
            calls_per_thread=args.calls,
            workload_seed=args.workload_seed,
            metrics=recorder is not None,
            reduce=args.reduce,
            daemons=not args.no_daemons,
            fingerprint=args.fingerprint,
        )
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.merge_counts(result.metrics)
    payload = result.to_dict()
    payload.update({
        "program": args.program,
        "mode": args.mode,
        "reduce": args.reduce,
        "jobs": args.jobs,
        "seconds": round(elapsed, 3),
        "runs_per_sec": (
            round(result.num_runs / elapsed, 2) if elapsed > 0 else None
        ),
    })
    if args.json:
        _finish_obs(args, recorder, payload)
        print(json.dumps(payload, indent=2))
    else:
        variant = "buggy" if args.buggy else "correct"
        coverage = ""
        if args.mode == "exhaustive":
            coverage = (
                " (schedule space exhausted)" if result.exhausted
                else " (budget reached)"
            )
        print(
            f"explored {args.program} ({variant}, {args.mode}, jobs={args.jobs}): "
            f"{result.num_runs} runs in {elapsed:.2f}s "
            f"[{payload['runs_per_sec']} runs/s]{coverage}"
        )
        if result.pruned:
            # pruned counts cut *branches*; each one roots a whole
            # unexplored subtree, so the true reduction factor (gated at
            # >= 5x by tests/concurrency/test_reduction.py) is much larger.
            print(
                f"static reduction cut {result.pruned} schedule branch(es) "
                f"({result.num_runs} of {result.requested} discovered "
                f"schedules run)"
            )
        elif result.skipped:
            print(
                f"campaign stopped early: {result.skipped} of "
                f"{result.requested} requested runs skipped"
            )
        print(f"distinct outcomes: {len(result.outcomes())}")
        failures = result.failures
        if failures:
            first = failures[0]
            print(f"{len(failures)} failing schedule(s); first: "
                  f"schedule={first.schedule!r}: {first.error}")
        else:
            print("no failing schedules")
        _finish_obs(args, recorder, title=f"{args.program} campaign profile")
    return 0 if not result.failures else 1


def _problem(args, exc, **fields) -> int:
    """Report an error that left no verdict (the check plan's
    :func:`~repro.core.plan.problem_of`, plus ``fields``): the typed problem
    under ``--json``, one line on stderr otherwise.  Exit code 2."""
    payload = {**problem_of(exc), **fields}
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        hint = ""
        if isinstance(exc, LogFormatError) and getattr(args, "recover", None) is False:
            hint = "; re-run with --recover to check the salvageable prefix"
        print(f"{args.command} failed: {payload['problem']}{hint}", file=sys.stderr)
    return 2


def _read_log(path: str, recover: bool):
    """Load ``path``; under ``--recover``, its longest valid prefix (and
    the salvage report).  A salvage of no record at all is an error: there
    is no prefix to check."""
    if not recover:
        return load_log(path), None
    recovered = recover_log(path)
    if not recovered.complete and not recovered.records:
        raise LogFormatError(
            recovered.cause, recovered.error_offset, recovered.error_record
        )
    return recovered.log, recovered


def _emit_json(payload, log) -> None:
    """Shared ``--json`` plumbing: attach well-formedness and print.

    The payload always carries ``well_formed`` plus the individual problem
    strings, so scripts never have to re-run validation."""
    problems = validate_well_formed(log)
    payload["well_formed"] = not problems
    payload["well_formedness_problems"] = problems
    print(json.dumps(payload, indent=2))


def _resumed_checker(plan, args):
    """The plan's checker, restored from ``--resume`` when given; a rejected
    checkpoint falls back to a fresh checker (record zero)."""
    checker = plan.checker()
    if not args.resume:
        return checker, None
    try:
        checkpoint = Checkpoint.load(args.resume)
        checker.restore(checkpoint)
    except CheckpointError as exc:
        if not args.json:
            print(f"warning: checkpoint rejected ({exc}); "
                  "replaying from record zero", file=sys.stderr)
        return plan.checker(), {
            "checkpoint": args.resume, "rejected": str(exc), "resume_seq": 0,
        }
    return checker, {"checkpoint": args.resume, "resume_seq": checkpoint.resume_seq}


def _cmd_check(args) -> int:
    mode = "view" if args.mode == "refinement" else args.mode
    plan = CheckPlan.for_program(
        args.program, mode, variant=args.variant, stop_at_first=not args.all,
        max_nodes=args.max_nodes,
    )
    try:
        log, recovered = _read_log(args.log, args.recover)
        checker, resume_info = _resumed_checker(plan, args)
        actions = list(log)[checker.fed:]
        meta = {"program": args.program, "mode": mode, "log": args.log}
        every = max(0, args.checkpoint_every)
        if every and args.checkpoint:
            for index in range(0, len(actions), every):
                chunk = actions[index:index + every]
                checker.feed(chunk)
                if len(chunk) == every:
                    checker.checkpoint(meta=meta).save(args.checkpoint)
        else:
            checker.feed(actions)
            if args.checkpoint:
                checker.checkpoint(meta=meta).save(args.checkpoint)
        outcome = checker.finish()
    except CHECK_ERRORS as exc:
        return _problem(args, exc)
    if recovered is not None and not recovered.complete and not args.json:
        print(
            f"warning: log damaged at byte {recovered.error_offset} "
            f"({recovered.cause}); checking the salvaged prefix of "
            f"{recovered.records} record(s)"
        )
    problems = validate_well_formed(log)
    if problems and not args.json:
        print(f"warning: log is not well-formed ({len(problems)} problem(s)):")
        for problem in problems[:5]:
            print(f"  {problem}")
    if mode == "linz":
        verdict = outcome.linz
        payload = {**verdict.to_dict(), "program": args.program,
                   "variant": args.variant}
        ok, failure = verdict.ok, 2
    elif mode == "both":
        agreement = plan.agreement(outcome)
        payload = {"ok": agreement["ok"], "mode": "both",
                   "program": args.program, "variant": args.variant,
                   "agree": agreement["agree"],
                   "expected_divergence": agreement["expected_divergence"],
                   "problem": agreement["problem"],
                   "refinement": outcome.refinement.to_dict(),
                   "linz": outcome.linz.to_dict()}
        ok, failure = agreement["ok"], 2
    else:
        payload = outcome.refinement.to_dict()
        ok, failure = outcome.refinement.ok, 1
    if args.json:
        if recovered is not None:
            payload["recovery"] = recovered.to_dict()
        if resume_info is not None:
            payload["resume"] = resume_info
        _emit_json(payload, log)
        return 0 if ok else failure
    if resume_info is not None and "rejected" not in resume_info:
        print(f"resumed from {args.resume} at seq {resume_info['resume_seq']}")
    if mode == "linz":
        print(f"linearizability of {args.log}: {outcome.linz.summary()}")
        if not ok:
            print(f"  problem: {outcome.linz.first_violation}")
    elif mode == "both":
        ref_text = "OK" if outcome.refinement.ok else "VIOLATION"
        linz_text = "OK" if outcome.linz.ok else "VIOLATION"
        print(f"cross-validation of {args.log}: refinement={ref_text}, "
              f"linearizability={linz_text}")
        if agreement["expected_divergence"] is not None:
            print(f"  expected divergence: {agreement['expected_divergence']}")
        elif agreement["problem"] is not None:
            print(f"  problem: {agreement['problem']}")
    else:
        print(format_outcome(outcome.refinement,
                             title=f"{mode} refinement of {args.log}"))
    return 0 if ok else failure


def _cmd_races(args) -> int:
    from ..races import format_race_outcome, render_first_race

    plan = CheckPlan(races=args.detector, atomic_locs=tuple(args.atomic_prefix))
    try:
        log = load_log(args.log)
    except CHECK_ERRORS as exc:
        return _problem(args, exc)
    outcome = plan.check(log).races
    if args.json:
        _emit_json(outcome.to_dict(), log)
    else:
        print(
            format_race_outcome(
                outcome, title=f"race detection ({args.detector}) of {args.log}"
            )
        )
        excerpt = render_first_race(log, outcome, context=args.context)
        if excerpt is not None:
            print(excerpt)
    return 0 if outcome.ok else 1


def _cmd_faults(args) -> int:
    from ..faults import Fault, FaultPlan, run_fault_campaign

    plan = None
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        plan = FaultPlan(
            seed=spec.get("seed", args.seed),
            faults=tuple(
                Fault(
                    kind=entry["kind"],
                    task=entry.get("task"),
                    frac=entry.get("frac", 0.0),
                    bit=entry.get("bit", 0),
                    seconds=entry.get("seconds", 0.0),
                    every=entry.get("every", 1),
                )
                for entry in spec["faults"]
            ),
        )
    recorder = _obs_recorder(args)
    start = time.perf_counter()
    report = run_fault_campaign(
        program=args.program,
        seed=args.seed,
        plan=plan,
        jobs=args.jobs,
        num_runs=args.seeds,
        num_threads=args.threads,
        calls_per_thread=args.calls,
        timeout=args.timeout,
        max_retries=args.retries,
        obs=recorder,
    )
    elapsed = time.perf_counter() - start
    if args.json:
        payload = report.to_dict()
        payload["seconds"] = round(elapsed, 3)
        _finish_obs(args, recorder, payload)
        print(json.dumps(payload, indent=2))
        return 0 if report.ok else 1
    verdict = "survived" if report.signatures_match else "DIVERGED"
    print(
        f"fault campaign on {args.program} (plan seed {report.seed}, "
        f"{report.num_runs} schedules, jobs={report.jobs}): {verdict} in "
        f"{elapsed:.2f}s"
    )
    counts = report.plan
    print(
        f"  injected: {counts['crashes']} crash(es), {counts['hangs']} "
        f"hang(s), {counts['torn_logs']} torn log(s), {counts['bitflips']} "
        f"bit flip(s), {counts['splices']} splice(s), {counts['slow_ios']} "
        f"slow-io"
    )
    incidents = report.incident_counts
    survived = ", ".join(f"{k}={v}" for k, v in sorted(incidents.items()))
    print(f"  incidents survived: {survived or 'none'}")
    print(
        f"  signature: baseline {report.baseline_signature[:16]}... "
        f"{'==' if report.signatures_match else '!='} faulted "
        f"{report.faulted_signature[:16]}..."
    )
    for entry in report.recoveries:
        fault = entry["fault"]
        state = "ok" if entry["ok"] else "FAILED"
        print(
            f"  recovery [{state}] {fault['kind']} @ byte "
            f"{fault.get('offset')}: salvaged {entry['salvaged_records']}/"
            f"{entry['total_records']} records"
            + (
                f", error reported at byte {entry['error_offset']} "
                f"({entry['cause']})"
                if entry["error_offset"] is not None else ""
            )
        )
    if report.tracer_log_identical is not None:
        state = "identical" if report.tracer_log_identical else "DIVERGED"
        print(f"  slow-io log: {state}")
    restarts = sum(e["restarts"] for e in report.producer_kill_checks)
    absorbed = sum(
        e["retries_absorbed"] for e in report.brownout_checks
    )
    caught_up = sum(
        e["catchup_records"] or 0 for e in report.catchup_checks
    )
    print(
        "  serve rounds: producer-kill "
        f"[{'ok' if report.producer_kill_ok else 'FAILED'}] "
        f"{restarts} restart(s), brownout "
        f"[{'ok' if report.brownout_ok else 'FAILED'}] "
        f"{absorbed} store retries absorbed, degraded catch-up "
        f"[{'ok' if report.catchup_ok else 'FAILED'}] "
        f"{caught_up} records re-verified offline"
    )
    print(f"  verdict: {'OK' if report.ok else 'FAILED'}")
    _finish_obs(args, recorder, title=f"{args.program} fault-campaign profile")
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    import tempfile

    from ..core import log_signature
    from ..serve import LocalDirectoryStore, serve_campaign

    recorder = _obs_recorder(args)
    root = args.root or tempfile.mkdtemp(prefix="vyrd-serve-")
    store = LocalDirectoryStore(root)
    run_kwargs = {
        "buggy": args.buggy,
        "num_threads": args.threads,
        "calls_per_thread": args.calls,
        "mode": args.mode,
    }
    start = time.perf_counter()
    report = serve_campaign(
        args.program,
        store,
        sessions=args.sessions,
        base_seed=args.base_seed,
        num_shards=args.shards,
        jobs=args.jobs,
        mode=args.mode,
        races=args.races,
        sync=args.sync,
        batch_records=args.batch_records,
        queue_records=args.queue_records,
        timeout=args.timeout,
        run_kwargs=run_kwargs,
        supervise=args.supervise,
        max_restarts=args.max_restarts,
        kill_producer_after=args.kill_producer_after,
        store_retries=args.store_retries,
        degrade_lag=args.degrade_lag,
        obs=recorder,
    )
    elapsed = time.perf_counter() - start
    mismatches = []
    if args.verify_direct:
        # The determinism gate: the daemon's merged canonical order must be
        # byte-identical (by signature) to a single-process run, shard
        # count and backpressure notwithstanding.
        flags = CheckPlan(races=args.races).log_flags
        direct_kwargs = dict(run_kwargs, log_locks=flags["log_locks"],
                             log_reads=flags["log_reads"])
        for result in report.sessions:
            seed = int(result.session.rsplit("-", 1)[1])
            solo = run_program(args.program, seed=seed, **direct_kwargs)
            expected = log_signature(solo.log)
            if result.signature != expected:
                mismatches.append({
                    "session": result.session,
                    "served": result.signature,
                    "direct": expected,
                })
    ok = report.ok and not mismatches
    if args.json:
        payload = report.to_dict()
        payload.update({
            "ok": ok,
            "program": args.program,
            "root": root,
            "shards": args.shards,
            "seconds": round(elapsed, 3),
            "records_per_sec": (
                round(report.records / elapsed, 1) if elapsed > 0 else None
            ),
            "restarts": sum(s.restarts for s in report.sessions),
            "degraded_sessions": sum(
                1 for s in report.sessions if s.degraded
            ),
            "gave_up_sessions": sum(
                1 for s in report.sessions if s.gave_up
            ),
        })
        if args.verify_direct:
            payload["direct_signature_match"] = not mismatches
            payload["mismatches"] = mismatches
        _finish_obs(args, recorder, payload)
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    print(
        f"served {args.program} ({'buggy' if args.buggy else 'correct'}): "
        f"{args.sessions} session(s) x {args.shards} shard(s), "
        f"{report.records} records in {elapsed:.2f}s -> {root}"
    )
    for result in report.sessions:
        state = "ok" if result.ok else "FAILED"
        verdict = (
            "no violation" if result.outcome and result.outcome.ok
            else "VIOLATION" if result.outcome else "unchecked"
        )
        chain = "chain ok" if result.chain_ok else "CHAIN BROKEN"
        line = (
            f"  [{state}] {result.session}: {result.records} records, "
            f"{verdict}, {chain}"
        )
        stats = result.stats
        if stats.get("pause_raises"):
            line += f", backpressure x{stats['pause_raises']}"
        if result.restarts:
            line += f", producer restarts x{result.restarts}"
        if result.gave_up:
            line += ", supervisor GAVE UP"
        if result.degraded:
            line += ", degraded (caught up offline)"
        if stats.get("store", {}).get("retries"):
            line += f", store retries x{stats['store']['retries']}"
        if result.error:
            line += f" ({result.error})"
        print(line)
    if args.verify_direct:
        if mismatches:
            for entry in mismatches:
                print(
                    f"  signature MISMATCH {entry['session']}: served "
                    f"{entry['served'][:16]}... != direct "
                    f"{entry['direct'][:16]}...",
                    file=sys.stderr,
                )
        else:
            print("  signatures identical to single-process reruns")
    if report.violations:
        print(f"  {report.violations} session(s) detected violations")
    _finish_obs(args, recorder, title=f"{args.program} serve profile")
    return 0 if ok else 1


def _collect_chain_targets(paths):
    """Expand CLI paths into ``(path, expected_head)`` pairs.

    A directory must hold a session ``MANIFEST.json``; its shard files are
    audited against the manifest's recorded head digests (names in the
    manifest are store-relative, so shards resolve against the session
    directory's parent).  A manifest that is not one raises ``ValueError``.
    """
    import os

    targets = []
    for target in paths:
        if os.path.isdir(target):
            manifest_path = os.path.join(target, "MANIFEST.json")
            if not os.path.exists(manifest_path):
                raise FileNotFoundError(
                    f"{target}: no MANIFEST.json (not a session directory)"
                )
            root = os.path.dirname(os.path.abspath(target))
            with open(manifest_path, "r", encoding="utf-8") as handle:
                try:
                    targets.extend(
                        (os.path.join(root, entry["name"]), entry["head_digest"])
                        for entry in json.load(handle)["shards"]
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(
                        f"{manifest_path}: malformed manifest ({exc!r})"
                    ) from exc
        else:
            targets.append((target, None))
    return targets


def _cmd_verify_chain(args) -> int:
    from ..core import verify_chain

    if args.expected_head and len(args.paths) > 1:
        print("--expected-head takes exactly one log file", file=sys.stderr)
        return 2
    try:
        targets = _collect_chain_targets(args.paths)
        if args.expected_head:
            targets = [(path, args.expected_head) for path, _ in targets]
        # A damaged file is a report, never an exception; a missing one is.
        reports = [verify_chain(path, expected_head=head)
                   for path, head in targets]
    except (*CHECK_ERRORS, ValueError) as exc:
        return _problem(args, exc)
    failed = [
        report for report in reports
        if report.tampered or (args.require_chained and not report.chained)
    ]
    if args.json:
        print(json.dumps({
            "ok": not failed,
            "files": len(reports),
            "tampered": sum(1 for r in reports if r.tampered),
            "reports": [r.to_dict() for r in reports],
        }, indent=2))
        return 1 if failed else 0
    for report in reports:
        # Damage first: a file that is not a log at all reads as unchained.
        if report.error_offset is not None:
            if report.bad_record:
                where = "bad record"
            elif report.chained:
                where = "chain breaks"
            else:
                where = "unreadable"
            print(
                f"[TAMPERED] {report.path}: {where} at byte "
                f"{report.error_offset} (record {report.error_record}): "
                f"{report.cause}; {report.records} records salvageable"
            )
        elif not report.chained:
            state = "UNCHAINED" if args.require_chained else "unchained"
            print(f"[{state}] {report.path}: {report.records} records "
                  f"(no integrity claim)")
        elif report.ok:
            anchored = (
                " (head matches manifest)" if report.head_match else ""
            )
            print(
                f"[ok] {report.path}: {report.records} records, head "
                f"{report.head_digest[:16]}...{anchored}"
            )
        else:
            print(
                f"[TAMPERED] {report.path}: chain valid but head "
                f"{report.head_digest[:16]}... does not match the "
                f"recorded digest (tail truncated at a frame boundary?)"
            )
    if failed:
        print(f"{len(failed)} of {len(reports)} file(s) failed "
              f"verification", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    try:
        log = load_log(args.log)
    except CHECK_ERRORS as exc:
        return _problem(args, exc)
    print(render_trace(log, include_writes=args.writes, max_rows=args.max_rows))
    return 0


def _cmd_witness(args) -> int:
    try:
        log = load_log(args.log)
    except CHECK_ERRORS as exc:
        return _problem(args, exc)
    print(render_witness(log))
    return 0


_COMMANDS = {
    "programs": _cmd_programs,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "run": _cmd_run,
    "explore": _cmd_explore,
    "check": _cmd_check,
    "faults": _cmd_faults,
    "races": _cmd_races,
    "trace": _cmd_trace,
    "witness": _cmd_witness,
    "serve": _cmd_serve,
    "verify-chain": _cmd_verify_chain,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
