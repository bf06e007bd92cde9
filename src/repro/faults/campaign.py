"""End-to-end fault campaigns: inject faults, recover, prove serial identity.

A campaign is the tentpole acceptance test of the fault-tolerance layer,
packaged as a library call (the CLI ``faults`` subcommand is a thin wrapper
over it, and ``tests/faults/test_campaign.py`` soaks it over several plan
seeds):

1. **Baseline** -- run a serial, fault-free swarm exploration of the target
   workload and digest its canonical :meth:`ExplorationResult.signature`.
2. **Faulted run** -- repeat the same campaign through the multi-process
   engine with a seeded :class:`~repro.faults.plan.FaultPlan` injecting
   worker crashes and hangs.  The run must *survive* (retries, pool
   rebuilds, watchdog kills) and its signature must be **bit-identical** to
   the baseline -- recovery is only correct if it is invisible in the
   result.
3. **Log corruption round** -- produce a pristine chained log, damage
   copies of it per the plan's torn, bit-flip and frame-splice faults, and
   check that :func:`~repro.core.log.recover_log` salvages exactly a prefix
   of the pristine records and reports the corruption offset, and that
   :func:`~repro.core.log.verify_chain` (anchored to the pristine head
   digest) detects **every** injected fault -- the streaming service's
   tamper-evidence gate.
4. **Latency round** (when the plan carries ``slow_io`` faults) -- re-run
   the workload under a :class:`~repro.faults.inject.LatencyTracer` and
   check the produced log is action-for-action identical: injected I/O
   latency must never perturb the deterministic schedule.
5. **Checkpoint round** -- for the clean *and* the seeded-bug variant of the
   workload, checkpoint the refinement checker mid-log ("kill" it), restore
   a fresh checker from the serialized bytes and feed the tail; the resumed
   verdict -- including every violation's sequence numbers -- must be
   byte-identical to the straight-through run.  A bit-flipped checkpoint
   must be rejected with :class:`~repro.core.CheckpointError` and the
   record-zero fallback replay must reproduce the same verdict.
6. **Producer-kill round** -- serve the workload with the producer
   subprocess dying abruptly (``os._exit``) mid-session under a
   :class:`~repro.serve.supervise.ProducerSupervisor`; the supervisor must
   salvage, restart within its bounded budget, and the final stream
   signature, chain audit and verdict must be byte-identical to an
   uninterrupted serve of the same seed (clean and seeded-bug variants).
7. **Store-brownout round** -- serve through a
   :class:`~repro.faults.inject.FlakyStore` (seeded transient errors,
   latency spikes, a blackout window) wrapped in a
   :class:`~repro.serve.retry.RetryingStore`; the retries must absorb every
   planned failure (``retries > 0`` proves the brownout actually hit) and
   the verdict/signature must match the pristine-store serve.
8. **Checker-crash catch-up round** -- serve with a checker that crashes
   mid-stream; the session must degrade to record-only mode (not fail),
   keep ingesting, and the offline catch-up verification at drain must
   reproduce the healthy verdict byte for byte.

:class:`FaultCampaignReport.ok` is the conjunction of all gates.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..concurrency.explore import _swarm_chunks, explore_swarm
from ..concurrency.resilient import RetryPolicy
from ..core.log import load_log, recover_log, save_log, verify_chain
from ..harness.runner import ProgramSpec, run_program
from .inject import apply_log_faults
from .plan import FaultPlan


def _digest(signature: dict) -> str:
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()


@dataclass
class FaultCampaignReport:
    """Everything a soak loop or CI gate needs to judge one campaign."""

    program: str
    seed: int
    jobs: int
    num_runs: int
    plan: dict = field(default_factory=dict)
    baseline_signature: str = ""
    faulted_signature: str = ""
    signatures_match: bool = False
    baseline_seconds: float = 0.0
    faulted_seconds: float = 0.0
    num_failures: int = 0
    interruptions: List[dict] = field(default_factory=list)
    recoveries: List[dict] = field(default_factory=list)
    recovery_ok: bool = True
    chain_checks: List[dict] = field(default_factory=list)
    chain_ok: bool = True  # every injected tamper case detected on chained logs
    tracer_log_identical: Optional[bool] = None  # None: no slow_io planned
    checkpoint_checks: List[dict] = field(default_factory=list)
    checkpoint_ok: bool = True  # kill->resume verdicts byte-identical
    producer_kill_checks: List[dict] = field(default_factory=list)
    producer_kill_ok: bool = True  # supervised restart => identical stream
    brownout_checks: List[dict] = field(default_factory=list)
    brownout_ok: bool = True  # retry layer absorbs planned store faults
    catchup_checks: List[dict] = field(default_factory=list)
    catchup_ok: bool = True  # degraded catch-up reproduces the verdict
    linz_checks: List[dict] = field(default_factory=list)
    linz_ok: bool = True  # linz verdict stable under log recovery

    @property
    def overhead(self) -> Optional[float]:
        """Faulted/baseline wall-clock ratio (None when baseline was ~0)."""
        if self.baseline_seconds <= 1e-9:
            return None
        return self.faulted_seconds / self.baseline_seconds

    @property
    def incident_counts(self) -> dict:
        counts: dict = {}
        for event in self.interruptions:
            kind = event.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return (
            self.signatures_match
            and self.recovery_ok
            and self.chain_ok
            and self.checkpoint_ok
            and self.producer_kill_ok
            and self.brownout_ok
            and self.catchup_ok
            and self.linz_ok
            and self.tracer_log_identical is not False
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "program": self.program,
            "seed": self.seed,
            "jobs": self.jobs,
            "num_runs": self.num_runs,
            "plan": self.plan,
            "baseline_signature": self.baseline_signature,
            "faulted_signature": self.faulted_signature,
            "signatures_match": self.signatures_match,
            "baseline_seconds": round(self.baseline_seconds, 4),
            "faulted_seconds": round(self.faulted_seconds, 4),
            "overhead": (
                round(self.overhead, 3) if self.overhead is not None else None
            ),
            "num_failures": self.num_failures,
            "incidents": self.incident_counts,
            "interruptions": list(self.interruptions),
            "recoveries": list(self.recoveries),
            "recovery_ok": self.recovery_ok,
            "chain_checks": list(self.chain_checks),
            "chain_ok": self.chain_ok,
            "tracer_log_identical": self.tracer_log_identical,
            "checkpoint_checks": list(self.checkpoint_checks),
            "checkpoint_ok": self.checkpoint_ok,
            "producer_kill_checks": list(self.producer_kill_checks),
            "producer_kill_ok": self.producer_kill_ok,
            "brownout_checks": list(self.brownout_checks),
            "brownout_ok": self.brownout_ok,
            "catchup_checks": list(self.catchup_checks),
            "catchup_ok": self.catchup_ok,
            "linz_checks": list(self.linz_checks),
            "linz_ok": self.linz_ok,
        }


def _corruption_round(
    program: str,
    plan: FaultPlan,
    workload_seed: int,
    num_threads: int,
    calls_per_thread: int,
) -> tuple:
    """Damage copies of one pristine chained log per log fault.

    Every fault -- tear, bit flip or record splice -- must be salvaged to
    an exact prefix of the pristine records, with the stop reported
    (``recoveries``), and caught by :func:`verify_chain` anchored to the
    pristine head digest (``chain_checks``).
    """
    recoveries: List[dict] = []
    chain_checks: List[dict] = []
    run = run_program(
        program,
        num_threads=num_threads,
        calls_per_thread=calls_per_thread,
        seed=workload_seed,
    )
    workdir = tempfile.mkdtemp(prefix="vyrd-faults-")
    try:
        pristine_path = os.path.join(workdir, "pristine.vlog")
        save_log(run.log, pristine_path)
        expected_head = verify_chain(pristine_path).head_digest
        pristine = [repr(action) for action in load_log(pristine_path)]
        for index, fault in enumerate(plan.log_faults):
            victim = os.path.join(workdir, f"victim-{index}.vlog")
            shutil.copyfile(pristine_path, victim)
            applied = apply_log_faults(
                victim, FaultPlan(seed=plan.seed, faults=(fault,))
            )
            report = verify_chain(victim, expected_head=expected_head)
            recovered = recover_log(victim)
            salvaged = [repr(action) for action in recovered.log]
            common = {
                "fault": applied[0] if applied else {"kind": fault.kind},
                "salvaged_records": len(salvaged),
                "total_records": len(pristine),
                "prefix_exact": salvaged == pristine[: len(salvaged)],
            }
            recovery = {
                **common,
                "complete": recovered.complete,
                "valid_bytes": recovered.valid_bytes,
                "total_bytes": recovered.total_bytes,
                "error_offset": recovered.error_offset,
                "cause": recovered.cause,
            }
            # A damaged file must either still be complete (a tear that
            # landed exactly on a frame boundary) or report where parsing
            # stopped.
            recovery["ok"] = common["prefix_exact"] and (
                recovered.complete or recovered.error_offset is not None
            )
            recoveries.append(recovery)
            check = {
                **common,
                "detected": report.tampered,
                "error_offset": report.error_offset,
                "error_record": report.error_record,
                "cause": report.cause,
                "head_match": report.head_match,
            }
            check["ok"] = report.tampered and common["prefix_exact"]
            chain_checks.append(check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return (
        recoveries, all(entry["ok"] for entry in recoveries),
        chain_checks, all(entry["ok"] for entry in chain_checks), run,
    )


def _checkpoint_round(
    program: str,
    workload_seed: int,
    num_threads: int,
    calls_per_thread: int,
) -> tuple:
    """Kill the checker mid-log, resume from checkpoint bytes, compare verdicts.

    Both the clean and the seeded-bug workload variants are exercised: the
    resumed run must reproduce the straight-through verdict *byte for byte*
    (the violation records carry their sequence numbers, so any replay drift
    shows up in the comparison).  A corrupted checkpoint must raise
    :class:`~repro.core.CheckpointError` and the record-zero fallback must
    again match.
    """
    from ..core import Checkpoint, CheckpointError, CheckPlan

    checks: List[dict] = []
    ok = True
    plan = CheckPlan.for_program(program)
    for buggy in (False, True):
        run = run_program(
            program,
            buggy=buggy,
            num_threads=num_threads,
            calls_per_thread=calls_per_thread,
            seed=workload_seed,
        )
        log = list(run.log)

        def verdict_of(checker) -> str:
            return json.dumps(
                checker.finish().refinement.to_dict(), sort_keys=True
            )

        straight = plan.checker()
        straight.feed(log)
        expected = verdict_of(straight)

        # "Kill" after half the log: checkpoint, serialize, restore into a
        # fresh checker from the bytes alone, feed the tail.
        cut = len(log) // 2
        killed = plan.checker()
        killed.feed(log[:cut])
        blob = killed.checkpoint(meta={"program": program}).to_bytes()
        checkpoint = Checkpoint.from_bytes(blob)
        resumed = plan.checker()
        resumed.restore(checkpoint)
        resumed.feed(log[checkpoint.resume_seq:])
        resumed_verdict = verdict_of(resumed)

        # Bit-flip the payload: the content hash must reject it...
        damaged = bytearray(blob)
        damaged[-1] ^= 0xFF
        rejection = None
        try:
            Checkpoint.from_bytes(bytes(damaged))
        except CheckpointError as exc:
            rejection = str(exc)
        # ...and the fallback is a full replay from record zero.
        fallback = plan.checker()
        fallback.feed(log)
        fallback_verdict = verdict_of(fallback)

        entry = {
            "buggy": buggy,
            "records": len(log),
            "cut": cut,
            "resume_seq": checkpoint.resume_seq,
            "checkpoint_bytes": len(blob),
            "resumed_identical": resumed_verdict == expected,
            "corrupt_rejected": rejection is not None,
            "rejection": rejection,
            "fallback_identical": fallback_verdict == expected,
            "verdict_ok": straight.finish().refinement.ok,
        }
        entry["ok"] = (
            entry["resumed_identical"]
            and entry["corrupt_rejected"]
            and entry["fallback_identical"]
        )
        ok = ok and entry["ok"]
        checks.append(entry)
    return checks, ok


def _serve_verdict(result) -> str:
    """Canonical JSON of a serve outcome, for byte-identity comparison."""
    outcome = result.outcome.to_dict() if result.outcome else None
    return json.dumps(outcome, sort_keys=True)


def _reference_serve(store, session, program, workload_seed, run_kwargs,
                     **session_kwargs):
    """Produce in-process and verify: the fault-free serve of one seed."""
    from ..serve.daemon import ServeSession, session_checkers
    from ..serve.producer import produce_session

    produce_session(
        store, session, program, seed=workload_seed, num_shards=2,
        run_kwargs=run_kwargs,
    )
    make_checker, _ = session_checkers(program)
    daemon = ServeSession(
        store, session, 2, checker_factory=make_checker,
        timeout=30.0, **session_kwargs,
    )
    return daemon.run()


def _producer_kill_round(
    program: str,
    plan: FaultPlan,
    workload_seed: int,
    num_threads: int,
    calls_per_thread: int,
) -> tuple:
    """Kill the producer mid-session; supervised restart must be invisible.

    The kill point comes from the plan's :data:`PRODUCER_KILL` fault (a
    fraction of the reference record count; 0.5 when none is planned).  The
    gate is total: the supervisor must restart within budget and the final
    signature, verdict and chain audit must be byte-identical to the
    uninterrupted serve -- for the clean and the seeded-bug workload.
    """
    from ..serve.daemon import ServeSession, session_checkers
    from ..serve.store import LocalDirectoryStore
    from ..serve.supervise import ProducerSupervisor

    checks: List[dict] = []
    ok = True
    kills = plan.producer_faults
    frac = kills[0].frac if kills else 0.5
    make_checker, _ = session_checkers(program)
    for buggy in (False, True):
        run_kwargs = dict(
            buggy=buggy, num_threads=num_threads,
            calls_per_thread=calls_per_thread,
        )
        workdir = tempfile.mkdtemp(prefix="vyrd-pkill-")
        try:
            ref_store = LocalDirectoryStore(os.path.join(workdir, "ref"))
            reference = _reference_serve(
                ref_store, "ref", program, workload_seed, run_kwargs
            )
            records = reference.records
            kill_after = max(1, min(records - 1, int(frac * records)))
            sup_store = LocalDirectoryStore(os.path.join(workdir, "sup"))
            supervisor = ProducerSupervisor(
                sup_store, "sup", program, workload_seed, 2,
                run_kwargs=run_kwargs,
                policy=RetryPolicy(
                    max_retries=2, seed=plan.seed, backoff_base=0.01,
                ),
                kill_after=kill_after,
            )
            daemon = ServeSession(
                sup_store, "sup", 2, checker_factory=make_checker,
                timeout=30.0,
            )
            supervisor.start()
            try:
                result = daemon.run(supervisor)
            finally:
                state = supervisor.finish()
            entry = {
                "buggy": buggy,
                "records": records,
                "kill_after": kill_after,
                "restarts": state.restarts,
                "gave_up": state.gave_up,
                "stream_ok": result.ok,
                "signature_identical": result.signature == reference.signature,
                "verdict_identical": (
                    _serve_verdict(result) == _serve_verdict(reference)
                ),
                "chain_ok": result.chain_ok,
                "verdict_ok": (
                    result.outcome.ok if result.outcome else None
                ),
            }
            entry["ok"] = (
                result.ok
                and not state.gave_up
                and 1 <= state.restarts <= 2
                and entry["signature_identical"]
                and entry["verdict_identical"]
            )
            ok = ok and entry["ok"]
            checks.append(entry)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return checks, ok


def _store_brownout_round(
    program: str,
    plan: FaultPlan,
    workload_seed: int,
    num_threads: int,
    calls_per_thread: int,
) -> tuple:
    """Serve through a browning-out store; the retry layer must absorb it.

    The same produced shards are verified twice: once against the pristine
    in-memory store, once through ``RetryingStore(FlakyStore(store))`` with
    the plan's store faults live.  Identical signature and verdict, plus a
    non-zero retry count (proof the brownout actually bit), pass the gate.
    """
    from ..serve.daemon import ServeSession, session_checkers
    from ..serve.retry import RetryingStore
    from ..serve.store import ObjectStoreStub
    from .inject import FlakyStore
    from .plan import FLAKY_STORE, STORE_OUTAGE, Fault

    store_faults = plan.store_faults
    if not store_faults:
        # the blackout starts inside the session's 13-20 store ops
        store_faults = (
            Fault(FLAKY_STORE, frac=0.25, seconds=0.0005, every=32),
            Fault(STORE_OUTAGE, task=4, seconds=0.03),
        )
    brown_plan = FaultPlan(seed=plan.seed, faults=store_faults)
    checks: List[dict] = []
    ok = True
    make_checker, _ = session_checkers(program)
    for buggy in (False, True):
        run_kwargs = dict(
            buggy=buggy, num_threads=num_threads,
            calls_per_thread=calls_per_thread,
        )
        store = ObjectStoreStub()
        reference = _reference_serve(
            store, "ref", program, workload_seed, run_kwargs
        )
        flaky = FlakyStore(store, brown_plan)
        # A 0.05 s blackout fails up to four attempts of one op, and the
        # flaky store up to two more in a row: eight retries ride out both.
        retrying = RetryingStore(
            flaky, retries=8, seed=plan.seed,
            backoff_base=0.005, backoff_max=0.05,
        )
        daemon = ServeSession(
            retrying, "ref", 2, checker_factory=make_checker, timeout=30.0,
        )
        result = daemon.run()
        entry = {
            "buggy": buggy,
            "records": result.records,
            "store_ops": flaky.ops,
            "injected_failures": flaky.failures,
            "latency_stalls": flaky.stalls,
            "retries_absorbed": retrying.stats["retries"],
            "giveups": retrying.stats["giveups"],
            "stream_ok": result.ok,
            "signature_identical": result.signature == reference.signature,
            "verdict_identical": (
                _serve_verdict(result) == _serve_verdict(reference)
            ),
        }
        entry["ok"] = (
            result.ok
            and entry["retries_absorbed"] > 0
            and entry["giveups"] == 0
            and entry["signature_identical"]
            and entry["verdict_identical"]
        )
        ok = ok and entry["ok"]
        checks.append(entry)
    return checks, ok


class _CrashingChecker:
    """Delegating checker wrapper that dies after ``crash_at`` records."""

    def __init__(self, inner, crash_at: int):
        self.inner = inner
        self.crash_at = crash_at
        self.fed = 0

    def feed(self, records):
        self.fed += len(records)
        if self.fed >= self.crash_at:
            raise RuntimeError(
                f"injected checker crash at record {self.fed}"
            )
        return self.inner.feed(records)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def _catchup_round(
    program: str,
    workload_seed: int,
    num_threads: int,
    calls_per_thread: int,
) -> tuple:
    """Crash the online checker; degraded catch-up must match the verdict.

    The first checker instance a session builds crashes partway through the
    stream (transient-fault model: the rebuilt catch-up instance runs
    clean).  The session must degrade -- not fail -- with ingest completing
    normally, and the offline catch-up verdict must be byte-identical to
    the healthy serve's.
    """
    from ..serve.daemon import ServeSession, session_checkers
    from ..serve.store import ObjectStoreStub

    checks: List[dict] = []
    ok = True
    make_checker, _ = session_checkers(program)
    for buggy in (False, True):
        run_kwargs = dict(
            buggy=buggy, num_threads=num_threads,
            calls_per_thread=calls_per_thread,
        )
        store = ObjectStoreStub()
        reference = _reference_serve(
            store, "ref", program, workload_seed, run_kwargs
        )
        crash_at = max(1, reference.records // 3)
        armed = {"live": True}

        def crashing_factory():
            checker = make_checker()
            if not armed["live"]:
                return checker
            armed["live"] = False
            return _CrashingChecker(checker, crash_at)

        daemon = ServeSession(
            store, "ref", 2, checker_factory=crashing_factory,
            timeout=30.0, checkpoint_every=max(1, crash_at // 2),
        )
        result = daemon.run()
        entry = {
            "buggy": buggy,
            "records": result.records,
            "crash_at": crash_at,
            "degraded": result.degraded,
            "degraded_reason": result.stats.get("degraded_reason"),
            "catchup_from_seq": result.stats.get("catchup_from_seq"),
            "catchup_records": result.stats.get("catchup_records"),
            "stream_ok": result.ok,
            "signature_identical": result.signature == reference.signature,
            "verdict_identical": (
                _serve_verdict(result) == _serve_verdict(reference)
            ),
        }
        entry["ok"] = (
            result.ok
            and result.degraded
            and (entry["catchup_records"] or 0) > 0
            and entry["signature_identical"]
            and entry["verdict_identical"]
        )
        ok = ok and entry["ok"]
        checks.append(entry)
    return checks, ok


def _linz_recovery_round(program: str, plan: FaultPlan, pristine_run) -> tuple:
    """Linearizability verdict stability under log recovery.

    The annotation-free verdict (:mod:`repro.linz`) on a salvaged log
    prefix must equal the verdict on the same pristine prefix: recovery
    truncation may turn complete operations into incomplete ones, but it
    must never fabricate or lose a linearizability violation relative to
    checking the undamaged records up to the same point.
    """
    from ..core import CheckPlan

    checks: List[dict] = []
    ok = True
    linz = CheckPlan.for_program(program, "linz")
    workdir = tempfile.mkdtemp(prefix="vyrd-linz-")
    try:
        pristine_path = os.path.join(workdir, "pristine.vlog")
        save_log(pristine_run.log, pristine_path)
        pristine = list(load_log(pristine_path))
        for index, fault in enumerate(plan.log_faults):
            victim = os.path.join(workdir, f"victim-{index}.vlog")
            shutil.copyfile(pristine_path, victim)
            applied = apply_log_faults(
                victim, FaultPlan(seed=plan.seed, faults=(fault,))
            )
            recovered = recover_log(victim)
            salvaged = list(recovered.log)
            salvaged_verdict = linz.check(salvaged).linz.to_dict()
            prefix_verdict = linz.check(pristine[: len(salvaged)]).linz.to_dict()
            entry = {
                "fault": applied[0] if applied else {"kind": fault.kind},
                "salvaged_records": len(salvaged),
                "operations": salvaged_verdict["operations"],
                "incomplete": salvaged_verdict["incomplete"],
                "ok_verdict": salvaged_verdict["ok"],
                "verdict_stable": (
                    json.dumps(salvaged_verdict, sort_keys=True)
                    == json.dumps(prefix_verdict, sort_keys=True)
                ),
            }
            entry["ok"] = entry["verdict_stable"]
            ok = ok and entry["ok"]
            checks.append(entry)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return checks, ok


def _latency_round(
    program: str,
    plan: FaultPlan,
    workload_seed: int,
    num_threads: int,
    calls_per_thread: int,
    pristine_run,
) -> Optional[bool]:
    """Re-run under LatencyTracer; the log must be action-identical."""
    if not plan.tracer_faults:
        return None
    slowed = run_program(
        program,
        num_threads=num_threads,
        calls_per_thread=calls_per_thread,
        seed=workload_seed,
        faults=plan,
    )
    before = [repr(action) for action in pristine_run.log]
    after = [repr(action) for action in slowed.log]
    return before == after


def run_fault_campaign(
    program: str = "multiset-vector",
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    jobs: int = 2,
    num_runs: int = 12,
    num_threads: int = 2,
    calls_per_thread: int = 3,
    workload_seed: int = 0,
    timeout: float = 5.0,
    max_retries: int = 2,
    backoff_base: float = 0.02,
    buggy: bool = False,
    slow_ios: int = 1,
    obs=None,
) -> FaultCampaignReport:
    """Run one complete fault campaign (see the module docstring).

    ``plan=None`` generates a default mix from ``seed``: one worker crash,
    one worker hang (longer than ``timeout``, so the watchdog -- not the
    sleep -- ends it), one torn log, one bit-flipped log and ``slow_ios``
    latency faults, targeted at the chunk serials the swarm will actually
    dispatch.  Pass an explicit plan to replay a specific failure.

    ``obs`` (a :class:`repro.obs.Recorder`) records one span per campaign
    phase plus counters for incidents survived and records recovered --
    campaign-level cost attribution; the per-run pipeline metrics stay in
    the worker processes and are not collected here.
    """
    from ..obs import NULL_RECORDER

    obs = obs if obs is not None else NULL_RECORDER
    if plan is None:
        plan = FaultPlan.generate(
            seed,
            tasks=len(_swarm_chunks(range(num_runs), jobs)),
            hang_seconds=max(timeout * 6, 30.0),
            slow_ios=slow_ios,
            producer_kills=1,
            flaky_stores=1,
            outages=1,
        )
    report = FaultCampaignReport(
        program=program, seed=seed, jobs=jobs, num_runs=num_runs,
        plan=plan.describe(),
    )
    spec = ProgramSpec(
        program,
        buggy=buggy,
        num_threads=num_threads,
        calls_per_thread=calls_per_thread,
        workload_seed=workload_seed,
    )
    start = time.monotonic()
    with obs.span("campaign.baseline", cat="faults"):
        baseline = explore_swarm(spec, num_runs=num_runs, jobs=1)
    report.baseline_seconds = time.monotonic() - start
    start = time.monotonic()
    with obs.span("campaign.faulted", cat="faults"):
        faulted = explore_swarm(
            spec,
            num_runs=num_runs,
            jobs=jobs,
            faults=plan,
            timeout=timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
        )
    report.faulted_seconds = time.monotonic() - start
    report.baseline_signature = _digest(baseline.signature())
    report.faulted_signature = _digest(faulted.signature())
    report.signatures_match = (
        report.baseline_signature == report.faulted_signature
    )
    report.num_failures = len(faulted.failures)
    report.interruptions = list(faulted.interruptions)
    with obs.span("campaign.corruption", cat="faults"):
        (report.recoveries, report.recovery_ok, report.chain_checks,
         report.chain_ok, pristine_run) = _corruption_round(
            program, plan, workload_seed, num_threads, calls_per_thread
        )
    with obs.span("campaign.linz", cat="faults"):
        report.linz_checks, report.linz_ok = _linz_recovery_round(
            plan=plan, program=program, pristine_run=pristine_run
        )
    with obs.span("campaign.latency", cat="faults"):
        report.tracer_log_identical = _latency_round(
            program, plan, workload_seed, num_threads, calls_per_thread,
            pristine_run,
        )
    with obs.span("campaign.checkpoint", cat="faults"):
        report.checkpoint_checks, report.checkpoint_ok = _checkpoint_round(
            program, workload_seed, num_threads, calls_per_thread
        )
    with obs.span("campaign.producer_kill", cat="faults"):
        report.producer_kill_checks, report.producer_kill_ok = (
            _producer_kill_round(
                program, plan, workload_seed, num_threads, calls_per_thread
            )
        )
    with obs.span("campaign.brownout", cat="faults"):
        report.brownout_checks, report.brownout_ok = _store_brownout_round(
            program, plan, workload_seed, num_threads, calls_per_thread
        )
    with obs.span("campaign.catchup", cat="faults"):
        report.catchup_checks, report.catchup_ok = _catchup_round(
            program, workload_seed, num_threads, calls_per_thread
        )
    if obs.enabled:
        for kind, count in report.incident_counts.items():
            obs.count(f"pool.events.{kind}", count)
        obs.count(
            "recovery.salvaged_records",
            sum(entry["salvaged_records"] for entry in report.recoveries),
        )
        obs.count(
            "supervisor.restarts",
            sum(e["restarts"] for e in report.producer_kill_checks),
        )
        obs.count(
            "store.retries_absorbed",
            sum(e["retries_absorbed"] for e in report.brownout_checks),
        )
    return report
