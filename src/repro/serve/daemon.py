"""The `vyrd serve` daemon: continuous verification of streamed shards.

One :class:`ServeSession` verifies one producing run.  Two daemon threads
cooperate per session:

* the **ingest** thread tails every shard blob (chain-verifying each frame
  as it arrives), merges decoded frames back into canonical order by
  sequence number (:class:`~repro.serve.merge.StreamMerger`), and hands
  record batches to a bounded queue;
* the **checker** thread drains the queue, appends to the canonical
  in-memory history, and feeds the incremental refinement (and optional
  race) checkers -- the paper's online verifier, decoupled from the
  producing process entirely.

Backpressure runs end to end: when the checker lags, the bounded queue
fills and the ingest thread blocks on ``put``; crossing the high watermark
additionally raises the session's PAUSE flag in the store, which the
producer's :class:`~repro.serve.shard.TeeLog` polls and honors.  Clearing
happens at the low watermark.  None of this can change the verdict or the
history -- order is carried by the frames themselves -- it only changes
*when* work happens, which is what the determinism gate checks.

The session is *self-healing* along three axes (ARCHITECTURE §14):

* **producer death** -- hand :meth:`ServeSession.run` a
  :class:`~repro.serve.supervise.ProducerSupervisor` and a dead producer is
  salvaged and restarted transparently; the daemon just keeps tailing.
* **store brownouts** -- wrap the store in a
  :class:`~repro.serve.retry.RetryingStore` and every ranged read, flag
  poll and checkpoint write retries transient failures with backoff,
  surfacing a typed :class:`~repro.serve.retry.StoreUnavailable` only after
  the budget is spent.
* **checker failure** -- a crashed (or, opt-in, hopelessly lagging) checker
  *degrades* the session to record-only mode instead of killing it: ingest
  keeps appending to the canonical history (PAUSE semantics intact, so
  producers are never wedged), a health heartbeat reports the degradation
  (``<session>/HEALTH.json`` + ``obs`` counters), and once the stream
  drains the daemon runs **offline catch-up verification** from the last
  checkpoint -- the final verdict is byte-identical to the never-degraded
  run because it is computed over the same canonical history.

:func:`serve_campaign` is the long-lived service shape: producer
subprocesses are forked per session and any number of sessions are verified
concurrently, each with its own shard set under one store.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core import (
    CheckOutcome,
    Checkpoint,
    CheckpointError,
    CheckPlan,
    RefinementChecker,
    checkpoint_blob_name,
)
from ..core.plan import PlanChecker
from ..core.actions import Action
from ..core.log import ChainReport, log_signature, verify_chain
from ..obs import NULL_RECORDER, Recorder
from .merge import MergeError, StreamMerger
from .shard import ShardTail, health_name, manifest_name, pause_name
from .store import LogStore

#: Checker-thread exceptions that must NOT be absorbed into degraded-mode
#: retries.  A ``MergeError`` means the canonical history itself is
#: inconsistent -- re-feeding the same records to a fresh checker at
#: catch-up would only fail again against corrupt input, so the session
#: surfaces it as a checker error instead of degrading.  ``MemoryError``
#: means the process is dying; retrying accelerates that.
#: (``KeyboardInterrupt``/``SystemExit`` derive from ``BaseException`` and
#: already escape every ``except Exception`` below -- pinned by
#: ``tests/serve/test_exception_disposition.py``.)
FATAL_CHECKER_EXCEPTIONS = (MergeError, MemoryError)


class QueueClosed(RuntimeError):
    """``put`` on a closed :class:`BoundedQueue`: its consumer is gone."""


class BoundedQueue:
    """A bounded record-batch queue; blocking ``put`` is the backpressure.

    Capacity is measured in *records* (not batches) so the memory bound is
    independent of batch size.  ``put_waits`` counts puts that blocked and
    ``max_depth`` the high-water record count -- the evidence that
    backpressure actually engaged in a lag test.
    """

    def __init__(self, max_records: int):
        self._max = max(1, max_records)
        self._batches: List[List[Action]] = []
        self._records = 0
        self._closed = False
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self.put_waits = 0
        self.max_depth = 0

    @property
    def depth(self) -> int:
        return self._records

    @property
    def max_records(self) -> int:
        return self._max

    def put(self, batch: List[Action]) -> None:
        """Block until ``batch`` fits (the backpressure).

        A batch larger than the whole bound is admitted once the queue is
        empty -- waiting for it to *fit* would wait forever, and refusing
        it would deadlock a misconfigured session rather than merely
        overshooting the memory bound by one batch.
        """
        with self._not_full:
            if self._records + len(batch) > self._max:
                self.put_waits += 1
                while (
                    self._records + len(batch) > self._max
                    and not (self._records == 0 and len(batch) > self._max)
                    and not self._closed
                ):
                    # Event-driven: every get() and close() notifies, so an
                    # untimed wait wakes exactly when space appears instead
                    # of burning a 50ms poll per round trip under pressure.
                    self._not_full.wait()
            if self._closed:
                raise QueueClosed("queue closed")
            self._batches.append(batch)
            self._records += len(batch)
            self.max_depth = max(self.max_depth, self._records)
            self._not_empty.notify()

    def get(self, timeout: float = 0.1) -> Optional[List[Action]]:
        """Next batch, or None once the queue is closed and drained."""
        with self._not_empty:
            while not self._batches:
                if self._closed:
                    return None
                self._not_empty.wait(timeout)
            batch = self._batches.pop(0)
            self._records -= len(batch)
            self._not_full.notify()
            return batch

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()


def session_checkers(
    program: str,
    mode: str = "view",
    races=None,
    stop_at_first: bool = True,
):
    """Build (refinement, race) checker factories from the workload registry.

    The daemon never executes the program; it only needs the program's
    *specification* side -- spec factory, view factory, invariants, replay
    registry, atomic locations -- which the registry rebuilds from the name
    alone, exactly as the offline CLI checkers do
    (:meth:`~repro.core.CheckPlan.for_program`).
    """
    plan = CheckPlan.for_program(
        program, mode, races=races, stop_at_first=stop_at_first
    )
    return plan.refinement_checker, plan.race_checker if plan.races else None


@dataclass
class ServeResult:
    """Everything the daemon concluded about one streamed session."""

    session: str
    records: int = 0
    signature: Optional[str] = None
    outcome: Optional[CheckOutcome] = None
    race_outcome: Optional[object] = None
    complete: bool = False
    error: Optional[str] = None
    manifest: Optional[dict] = None
    chain: List[ChainReport] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    degraded: bool = False
    restarts: int = 0
    gave_up: bool = False
    health: Optional[dict] = None

    @property
    def chain_ok(self) -> bool:
        return bool(self.chain) and all(report.ok for report in self.chain)

    @property
    def ok(self) -> bool:
        """Stream-level health: complete, chain-clean, no daemon error.

        The refinement *verdict* is deliberately separate -- a buggy program
        detected by the checkers is the service working, not failing."""
        return self.complete and self.error is None and self.chain_ok

    def to_dict(self) -> dict:
        return {
            "session": self.session,
            "ok": self.ok,
            "records": self.records,
            "signature": self.signature,
            "verdict_ok": self.outcome.ok if self.outcome else None,
            "races": (
                len(self.race_outcome.races) if self.race_outcome else None
            ),
            "complete": self.complete,
            "error": self.error,
            "degraded": self.degraded,
            "restarts": self.restarts,
            "gave_up": self.gave_up,
            "health": self.health,
            "chain": [report.to_dict() for report in self.chain],
            "stats": dict(self.stats),
        }


class ServeSession:
    """Ingest, merge and verify one session's shard streams online.

    Parameters
    ----------
    checker_factory / race_checker_factory:
        Zero-arg builders of the incremental checkers (see
        :func:`session_checkers`); either may be None to skip that check.
        The session feeds, sheds, checkpoints and catches up what they
        build as one :class:`~repro.core.PlanChecker`.
    queue_records:
        Bound of the ingest->checker queue; the memory cap and the
        backpressure trigger.
    pause_high / pause_low:
        Queue depths (records) at which the store PAUSE flag is raised and
        cleared; default 3/4 and 1/4 of ``queue_records``.
    checker_delay:
        Artificial per-batch checker stall (seconds) -- the test hook that
        forces checker lag so backpressure determinism can be exercised.
    timeout:
        Wall-clock bound on the whole session; exceeded => incomplete.
    checkpoint_every:
        When > 0, the checker thread writes a checkpoint blob of every
        checker (``<session>/CHECKPOINT.vyrdckpt``) into the store every
        that many checked records, so a killed daemon can resume mid-log.
    resume:
        Try to restore the checkers from the session's checkpoint blob
        before verifying.  The canonical history still re-ingests every
        record (the stream signature must not depend on where verification
        restarted); only the checker skips records below the checkpoint's
        ``resume_seq``.  A missing blob starts from record zero silently; a
        corrupt or mismatched blob is reported in ``stats`` and likewise
        falls back to record zero.
    degrade_lag / degrade_after:
        Opt-in lag shedding: when the queue holds ``degrade_lag`` or more
        records continuously for ``degrade_after`` seconds, the session
        degrades to record-only mode (the live checkers stop being fed;
        ingest and the canonical history continue; catch-up verification
        runs at drain).  ``degrade_lag`` should sit below ``queue_records``
        or backpressure caps the depth before the threshold can trip.
    heartbeat_interval:
        Seconds between health-blob writes (``<session>/HEALTH.json``);
        ``0`` disables the periodic heartbeat (the final health snapshot is
        always written and attached to the result).
    """

    def __init__(
        self,
        store: LogStore,
        session: str,
        num_shards: int,
        *,
        checker_factory: Optional[Callable[[], RefinementChecker]] = None,
        race_checker_factory: Optional[Callable] = None,
        queue_records: int = 4096,
        batch_records: int = 256,
        poll_interval: float = 0.002,
        pause_high: Optional[int] = None,
        pause_low: Optional[int] = None,
        checker_delay: float = 0.0,
        timeout: float = 120.0,
        checkpoint_every: int = 0,
        resume: bool = False,
        degrade_lag: Optional[int] = None,
        degrade_after: float = 0.25,
        heartbeat_interval: float = 0.25,
        obs: Optional[Recorder] = None,
    ):
        self.store = store
        self.session = session
        self.num_shards = num_shards
        self.checker_factory = checker_factory
        self.race_checker_factory = race_checker_factory
        self.queue = BoundedQueue(queue_records)
        # An enqueue chunk larger than the queue bound could never fit and
        # would wedge ingest until the session timeout; clamp, don't trust
        # the caller to keep the two knobs consistent.
        self.batch_records = max(1, min(batch_records, self.queue.max_records))
        self.poll_interval = poll_interval
        self.pause_high = (
            pause_high if pause_high is not None else (queue_records * 3) // 4
        )
        self.pause_low = (
            pause_low if pause_low is not None else queue_records // 4
        )
        self.checker_delay = checker_delay
        self.timeout = timeout
        self.checkpoint_every = max(0, checkpoint_every)
        self.resume = resume
        self.degrade_lag = degrade_lag
        self.degrade_after = max(0.0, degrade_after)
        self.heartbeat_interval = max(0.0, heartbeat_interval)
        self.obs = obs if obs is not None else NULL_RECORDER
        # shared between the two daemon threads
        self._canonical: List[Action] = []
        self._tails: List[ShardTail] = []
        self._merger: Optional[StreamMerger] = None
        self._ingested = 0
        self._checked = 0
        self._manifest: Optional[dict] = None
        self._ingest_error: Optional[str] = None
        self._checker_error: Optional[str] = None
        self._paused = False
        self._pauses = 0
        self._resume_seq = 0
        self._resume_rejected: Optional[str] = None
        self._checkpoints_saved = 0
        self._checkpoint_failures = 0
        # degradation / health state
        self._checker_shed = False
        self._checker_crashed = False
        self._shed_seq = 0  # records the live checker had fully verified
        self._degraded_reason: Optional[str] = None
        self._catchup_from = 0
        self._catchup_records = 0
        self._heartbeats = 0
        self._health_errors = 0
        self._last_health_error: Optional[str] = None

    # -- ingest side ---------------------------------------------------------

    def _set_pause(self, up: bool) -> None:
        if up and not self._paused:
            self.store.set_flag(pause_name(self.session))
            self._paused = True
            self._pauses += 1
        elif not up and self._paused:
            self.store.clear_flag(pause_name(self.session))
            self._paused = False

    def _enqueue(self, records: List[Action]) -> None:
        for start in range(0, len(records), self.batch_records):
            batch = records[start : start + self.batch_records]
            # Raise the pause flag *before* a put that would cross the high
            # watermark, so the producer throttles while the daemon blocks.
            if self.queue.depth + len(batch) >= self.pause_high:
                self._set_pause(True)
            self.queue.put(batch)
            self._ingested += len(batch)

    def _ingest(self, process=None) -> None:
        self._tails = tails = [
            ShardTail(self.store, self.session, index)
            for index in range(self.num_shards)
        ]
        self._merger = merger = StreamMerger(self.num_shards)
        # Idle deadline, not a wall-clock one: ``timeout`` bounds how long
        # the session tolerates *no progress*.  A slow producer dribbling
        # records for longer than the timeout is healthy as long as each
        # gap between batches stays under it; the deadline resets on every
        # decoded frame.  (A wedged stream still times out identically.)
        deadline = time.monotonic() + self.timeout
        grace_polls = 0
        try:
            while True:
                progressed = 0
                for tail in tails:
                    items = tail.poll()
                    if items:
                        merger.push(tail.index, items)
                        progressed += len(items)
                    if tail.error is not None:
                        self._ingest_error = (
                            f"shard {tail.index}: {tail.error}"
                        )
                        return
                ready = merger.pop_ready()
                if ready:
                    self._enqueue(ready)
                # Clearing must not depend on new records arriving: a paused
                # producer sends nothing, so the flag would wedge up forever
                # if only _enqueue could lower it.
                if self._paused and self.queue.depth <= self.pause_low:
                    self._set_pause(False)
                if self._manifest is None:
                    self._manifest = self.store.get_json(
                        manifest_name(self.session)
                    )
                if (
                    self._manifest is not None
                    and merger.next_seq >= int(self._manifest["records"])
                ):
                    return  # every produced record ingested
                if progressed:
                    deadline = time.monotonic() + self.timeout
                    grace_polls = 0
                    continue
                if time.monotonic() > deadline:
                    self._ingest_error = (
                        f"session idle timeout after {self.timeout}s "
                        f"without progress (merged {merger.next_seq}, "
                        f"buffered {merger.buffered}, "
                        f"waiting for seq {merger.gap()})"
                    )
                    return
                if process is not None and not process.is_alive():
                    # Producer is gone (a supervised producer stays
                    # "alive" across restarts -- see ProducerSupervisor).
                    # Give the store a few more polls to surface
                    # already-written bytes, then conclude.
                    grace_polls += 1
                    if grace_polls > 5:
                        if self._manifest is None:
                            detail = ""
                            sup = getattr(process, "state", None)
                            if sup is not None and getattr(
                                sup, "gave_up", False
                            ):
                                detail = (
                                    "; supervisor gave up after "
                                    f"{sup.restarts} restart(s)"
                                )
                            self._ingest_error = (
                                "producer exited without a manifest "
                                f"(merged {merger.next_seq} records"
                                f"{detail})"
                            )
                        return
                time.sleep(self.poll_interval)
        except MergeError as exc:
            self._ingest_error = f"merge: {exc}"
        except QueueClosed:
            pass  # the checker thread stopped on an error it recorded
        finally:
            self._set_pause(False)
            self.queue.close()

    # -- checker side --------------------------------------------------------

    def _new_checker(self) -> PlanChecker:
        """The session's one checker over whatever the factories build."""
        return PlanChecker(
            refinement=self.checker_factory() if self.checker_factory else None,
            races=(
                self.race_checker_factory() if self.race_checker_factory
                else None
            ),
        )

    def _restore_from_blob(self, checker) -> int:
        """Restore ``checker`` from the checkpoint blob; returns resume seq.

        Failures never abort the session: a checkpoint is an optimization,
        so a bad one just means verifying from record zero again."""
        try:
            blob = self.store.get_bytes(checkpoint_blob_name(self.session))
        except (KeyError, OSError):  # no checkpoint published yet
            return 0
        try:
            checkpoint = Checkpoint.from_bytes(blob)
            checker.restore(checkpoint)
        except CheckpointError as exc:
            self._resume_rejected = str(exc)
            return 0
        return checkpoint.resume_seq

    def _save_checkpoint(self, checker) -> None:
        checkpoint = checker.checkpoint(
            meta={"session": self.session, "shards": self.num_shards}
        )
        self.store.put_bytes(
            checkpoint_blob_name(self.session), checkpoint.to_bytes()
        )
        self._checkpoints_saved += 1

    # -- degradation ---------------------------------------------------------

    def _shed(self, reason: str, *, crashed: bool = False) -> None:
        """Degrade to record-only mode: stop feeding the checker.

        Ingest, the canonical history and PAUSE semantics all continue --
        durability is never sacrificed to a sick checker.  Catch-up
        verification at drain recomputes the authoritative verdict over the
        same canonical history, so the final outcome is identical to a
        never-degraded session."""
        self._checker_shed = True
        self._checker_crashed = crashed
        self._degraded_reason = reason
        if self.obs.enabled:
            self.obs.count("serve.degraded", 1)

    def _check(self, checker) -> None:
        # Canonical position of the next record this thread will see; the
        # merger emits records in sequence order, so a running counter is the
        # global sequence number.
        position = 0
        since_checkpoint = 0
        lag_since: Optional[float] = None
        try:
            while True:
                batch = self.queue.get()
                if batch is None:
                    return
                self._canonical.extend(batch)
                fresh = batch
                if position < self._resume_seq:
                    # Already verified before the checkpoint was taken: the
                    # canonical history keeps them (signature identity), the
                    # checker must not see them twice.
                    skip = min(len(batch), self._resume_seq - position)
                    fresh = batch[skip:]
                position += len(batch)
                if not self._checker_shed:
                    try:
                        if fresh:
                            checker.feed(fresh)
                    except FATAL_CHECKER_EXCEPTIONS:
                        # Not retryable: degrading would re-feed the same
                        # records at catch-up.  Surface on the result via
                        # the outer handler.
                        raise
                    except Exception as exc:
                        self._shed(f"checker crashed: {exc!r}", crashed=True)
                    else:
                        # Everything up to here is verified (records below
                        # the resume seq count: the checkpoint covers them)
                        # -- the point a lag-shed checker resumes from.
                        self._shed_seq = position
                        since_checkpoint += len(fresh)
                        if (
                            self.checkpoint_every
                            and since_checkpoint >= self.checkpoint_every
                        ):
                            try:
                                self._save_checkpoint(checker)
                            except FATAL_CHECKER_EXCEPTIONS:
                                raise
                            except Exception:
                                # A checkpoint is an optimization; a store
                                # refusing one must not degrade (let alone
                                # kill) the session.
                                self._checkpoint_failures += 1
                            since_checkpoint = 0
                self._checked += len(batch)
                if self.degrade_lag is not None and not self._checker_shed:
                    if self.queue.depth >= self.degrade_lag:
                        now = time.monotonic()
                        if lag_since is None:
                            lag_since = now
                        elif now - lag_since >= self.degrade_after:
                            self._shed(
                                f"checker lag: queue depth "
                                f"{self.queue.depth} >= {self.degrade_lag} "
                                f"for {self.degrade_after}s"
                            )
                    else:
                        lag_since = None
                if self.checker_delay and not self._checker_shed:
                    time.sleep(self.checker_delay)
        except Exception as exc:  # surfaced on the result, not swallowed
            self._checker_error = f"checker: {exc!r}"
        finally:
            # Nobody drains the queue after this thread: a full one would
            # block ingest's put forever.  Closing it stops ingest instead.
            self.queue.close()

    def _catch_up(self, live_checker):
        """Offline catch-up verification after a degraded session.

        Runs once the stream has drained, over the canonical in-memory
        history -- the exact record sequence a healthy online checker saw.
        A *lag-shed* checker is still correct, so it simply resumes from
        where it stopped; a *crashed* checker is replaced by a fresh one
        restored from the last durable checkpoint (or record zero).
        Returns the authoritative checker, or None if catch-up failed."""
        checker = live_checker
        if self._checker_crashed:
            checker = self._new_checker()
            start = self._restore_from_blob(checker)
            if self._resume_rejected is not None and start == 0:
                # A rejected restore may have touched nothing, but a
                # fresh build is the only state worth trusting here.
                checker = self._new_checker()
        else:
            start = self._shed_seq
        self._catchup_from = start
        records = self._canonical[start:]
        self._catchup_records = len(records)
        try:
            if records:
                checker.feed(records)
        except Exception as exc:
            # The fault was not transient: this history cannot be
            # verified by this checker at all.  Surface it.
            self._checker_error = f"catch-up checker: {exc!r}"
            checker = None
        if self.obs.enabled and self._catchup_records:
            self.obs.count("serve.catchup_records", self._catchup_records)
        return checker

    # -- health --------------------------------------------------------------

    def _health_snapshot(self, state: str) -> dict:
        return {
            "session": self.session,
            "state": state,
            "degraded": self._checker_shed,
            "degraded_reason": self._degraded_reason,
            "ingested": self._ingested,
            "checked": self._checked,
            "queue_depth": self.queue.depth,
            "paused": self._paused,
            "checkpoints_saved": self._checkpoints_saved,
            "heartbeats": self._heartbeats,
            "health_errors": self._health_errors,
            "last_health_error": self._last_health_error,
            "time": time.time(),
        }

    def _write_health(self, state: str) -> dict:
        payload = self._health_snapshot(state)
        try:
            self.store.put_json(health_name(self.session), payload)
        except Exception as exc:
            # Health is best-effort -- a refusing store never kills a
            # session -- but a swallowed failure must stay observable:
            # degraded health reporting would otherwise look exactly like
            # healthy silence.  The error count and last error ride on the
            # next snapshot that does land, and on the obs counters.
            self._health_errors += 1
            self._last_health_error = repr(exc)
            # The returned snapshot must carry the failure it just suffered
            # -- callers (and the final ServeResult.health) would otherwise
            # see pre-failure counts.
            payload["health_errors"] = self._health_errors
            payload["last_health_error"] = self._last_health_error
            if self.obs.enabled:
                self.obs.count("serve.health_errors", 1)
        return payload

    def _heartbeat(self, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            self._heartbeats += 1
            self._write_health(
                "degraded" if self._checker_shed else "serving"
            )

    # -- the session -----------------------------------------------------------

    def run(self, process=None) -> ServeResult:
        """Drive ingest + checking to completion; ``process`` (optional) is
        the producer handle used to detect an abandoned session."""
        checker = self._new_checker()
        if self.resume:
            self._resume_seq = self._restore_from_blob(checker)
        obs = self.obs
        heartbeat_stop = threading.Event()
        heartbeat = None
        with obs.span("serve.session", cat="serve", session=self.session):
            ingest = threading.Thread(
                target=self._ingest, args=(process,),
                name=f"serve-ingest-{self.session}", daemon=True,
            )
            check = threading.Thread(
                target=self._check, args=(checker,),
                name=f"serve-check-{self.session}", daemon=True,
            )
            if self.heartbeat_interval > 0:
                heartbeat = threading.Thread(
                    target=self._heartbeat, args=(heartbeat_stop,),
                    name=f"serve-health-{self.session}", daemon=True,
                )
                heartbeat.start()
            ingest.start()
            check.start()
            ingest.join()
            check.join()
            if heartbeat is not None:
                heartbeat_stop.set()
                heartbeat.join(timeout=5.0)
            if self._checker_shed:
                with obs.span(
                    "serve.catchup", cat="serve", session=self.session
                ):
                    checker = self._catch_up(checker)
        result = ServeResult(session=self.session)
        result.manifest = self._manifest
        result.records = len(self._canonical)
        result.signature = self._signature()
        result.degraded = self._checker_shed
        if checker is not None:
            final = checker.finish()
            result.outcome = final.refinement
            result.race_outcome = final.races
        result.error = self._ingest_error or self._checker_error
        result.complete = (
            self._manifest is not None
            and result.error is None
            and result.records == int(self._manifest["records"])
        )
        if self._manifest is not None:
            result.chain = self._audit_chains(self._manifest)
        # Write the terminal health document *before* snapshotting stats so
        # a failure of this very write is visible on the returned counters.
        state = "complete" if result.complete else "failed"
        result.health = self._write_health(state)
        result.stats = {
            "ingested": self._ingested,
            "checked": self._checked,
            "queue_put_waits": self.queue.put_waits,
            "queue_max_depth": self.queue.max_depth,
            "pause_raises": self._pauses,
            "producer_throttle_waits": (
                self._manifest.get("throttle_waits")
                if self._manifest else None
            ),
            "checkpoints_saved": self._checkpoints_saved,
            "checkpoint_failures": self._checkpoint_failures,
            "resumed_from_seq": self._resume_seq,
            "checkpoint_rejected": self._resume_rejected,
            "degraded_reason": self._degraded_reason,
            "catchup_from_seq": self._catchup_from,
            "catchup_records": self._catchup_records,
            "heartbeats": self._heartbeats,
            "health_errors": self._health_errors,
            "last_health_error": self._last_health_error,
        }
        store_stats = getattr(self.store, "stats", None)
        if isinstance(store_stats, dict) and "retries" in store_stats:
            result.stats["store"] = dict(store_stats)
        sup = getattr(process, "state", None)
        if sup is not None and hasattr(sup, "restarts"):
            result.restarts = sup.restarts
            result.gave_up = sup.gave_up
            result.stats["supervisor"] = {
                "restarts": sup.restarts,
                "gave_up": sup.gave_up,
                "succeeded": sup.succeeded,
                "events": list(sup.ledger),
            }
        if obs.enabled:
            obs.count("serve.records", result.records)
            obs.count("serve.sessions", 1)
            obs.count("serve.queue_put_waits", self.queue.put_waits)
            obs.count("serve.pause_raises", self._pauses)
            obs.observe("serve.queue_max_depth", self.queue.max_depth)
            if result.restarts:
                obs.count("serve.producer_restarts", result.restarts)
        return result

    def _signature(self) -> str:
        """``log_signature`` of the canonical history.

        The merge hashed every record's frame payload as it emitted it;
        that is the signature whenever the history holds everything merged.
        A history that ends short of the merge (a checker thread that
        stopped on an error) is hashed again, record by record."""
        merger = self._merger
        if merger is not None and merger.next_seq == len(self._canonical):
            signature = merger.signature()
            if signature is not None:
                return signature
        return log_signature(self._canonical)

    def _audit_chains(self, manifest: dict) -> List[ChainReport]:
        """Post-completion audit of every shard against the manifest's
        acknowledged head digests.

        A shard whose tail saw no error, ended on the manifest's head and
        accepted exactly the bytes at rest (same length, same SHA-256) gets
        its report from the tail.  Any other shard is diagnosed by
        :func:`verify_chain`, which walks the whole file."""
        tails = {tail.name: tail for tail in self._tails}
        reports = []
        for entry in manifest.get("shards", ()):
            name = entry["name"]
            head = entry.get("head_digest")
            tail = tails.get(name)
            report = None
            if tail is not None and tail.started:
                with self.store.open_read(name) as at_rest:  # the one read
                    report = tail.audit(at_rest, head)
            if report is None:
                report = self._verify_chain(name, head)
            reports.append(report)
        return reports

    def _verify_chain(self, name: str, head: Optional[str]) -> ChainReport:
        """:func:`verify_chain` over one shard at rest.  A store without
        paths is read through a handle closed here, and its report names
        the blob rather than the handle."""
        path = self.store.path(name)
        if path is not None:
            return verify_chain(path, expected_head=head)
        with self.store.open_read(name) as handle:
            report = verify_chain(handle, expected_head=head)
        report.path = name
        return report


# ---------------------------------------------------------------------------
# The service: many sessions, forked producers
# ---------------------------------------------------------------------------


@dataclass
class ServeReport:
    """One `vyrd serve` campaign: every session's result."""

    sessions: List[ServeResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.sessions) and all(s.ok for s in self.sessions)

    @property
    def records(self) -> int:
        return sum(s.records for s in self.sessions)

    @property
    def violations(self) -> int:
        return sum(
            1 for s in self.sessions if s.outcome and not s.outcome.ok
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "records": self.records,
            "violations": self.violations,
            "sessions": [s.to_dict() for s in self.sessions],
        }


def serve_campaign(
    program: str,
    store,
    *,
    sessions: int = 1,
    base_seed: int = 0,
    num_shards: int = 2,
    jobs: int = 2,
    mode: str = "view",
    races=None,
    sync: bool = False,
    batch_records: int = 64,
    queue_records: int = 4096,
    checker_delay: float = 0.0,
    timeout: float = 120.0,
    run_kwargs: Optional[dict] = None,
    supervise: bool = False,
    max_restarts: int = 2,
    kill_producer_after: Optional[int] = None,
    store_retries: int = 0,
    degrade_lag: Optional[int] = None,
    obs: Optional[Recorder] = None,
) -> ServeReport:
    """Serve ``sessions`` runs of one program, producers forked per session.

    Each session gets seed ``base_seed + i`` (schedule diversity, the swarm
    idiom) and a private shard namespace ``run-<seed>`` under ``store``;
    ``jobs`` sessions are verified concurrently.  Requires a
    :class:`~repro.serve.store.LocalDirectoryStore` (producers are separate
    processes); use :class:`ServeSession` + :func:`produce_session` directly
    for in-process serving against other stores.

    ``supervise=True`` runs each producer under a
    :class:`~repro.serve.supervise.ProducerSupervisor` (up to
    ``max_restarts`` salvage-and-restart cycles per session);
    ``kill_producer_after`` is the fault hook that makes the first attempt
    die after that many records.  ``store_retries > 0`` wraps the daemon's
    store access in a :class:`~repro.serve.retry.RetryingStore`;
    ``degrade_lag`` opts into record-only degradation (see
    :class:`ServeSession`).
    """
    import multiprocessing
    from concurrent.futures import ThreadPoolExecutor

    from .store import LocalDirectoryStore

    if not isinstance(store, LocalDirectoryStore):
        raise TypeError(
            "serve_campaign forks producer subprocesses and needs a "
            "LocalDirectoryStore; drive ServeSession directly for "
            "in-process stores"
        )
    from .producer import _producer_main
    from .retry import RetryingStore
    from .supervise import ProducerSupervisor, SupervisionPolicy

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    plan = CheckPlan.for_program(program, mode, races=races)
    kwargs = dict(run_kwargs or {})
    kwargs.setdefault("mode", mode)
    # The producer only needs to *log* the sync/read events the race
    # detectors consume; the detectors themselves run in the daemon.
    for flag in ("log_locks", "log_reads"):
        kwargs.setdefault(flag, plan.log_flags[flag])

    def one(seed: int) -> ServeResult:
        name = f"run-{seed:05d}"
        session_store = (
            RetryingStore(store, retries=store_retries, seed=seed)
            if store_retries else store
        )
        session = ServeSession(
            session_store, name, num_shards,
            checker_factory=plan.refinement_checker,
            race_checker_factory=plan.race_checker if plan.races else None,
            queue_records=queue_records,
            checker_delay=checker_delay,
            timeout=timeout,
            degrade_lag=degrade_lag,
            obs=obs,
        )
        if supervise:
            supervisor = ProducerSupervisor(
                store, name, program, seed, num_shards,
                sync=sync, batch_records=batch_records, run_kwargs=kwargs,
                policy=SupervisionPolicy(max_restarts=max_restarts, seed=seed),
                kill_after=kill_producer_after, ctx=ctx,
            )
            supervisor.start()
            try:
                result = session.run(supervisor)
            finally:
                state = supervisor.finish()
            result.restarts = state.restarts
            result.gave_up = state.gave_up
            result.stats["supervisor"] = {
                "restarts": state.restarts,
                "gave_up": state.gave_up,
                "succeeded": state.succeeded,
                "events": list(state.ledger),
            }
            return result
        process = ctx.Process(
            target=_producer_main,
            args=(store.root, name, program, seed, num_shards, sync,
                  batch_records, kwargs),
            name=f"producer-{name}",
        )
        process.start()
        try:
            result = session.run(process)
        finally:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - wedged producer
                process.terminate()
                process.join()
        return result

    report = ServeReport()
    seeds = [base_seed + index for index in range(sessions)]
    if jobs <= 1:
        for seed in seeds:
            report.sessions.append(one(seed))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            report.sessions.extend(pool.map(one, seeds))
    return report
