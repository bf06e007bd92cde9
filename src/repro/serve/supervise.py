"""Producer supervision: salvage, restart, and give up -- deterministically.

A producer is a subprocess re-executing one deterministic workload; its
only durable output is the chained shard files.  When it dies mid-session
(OOM kill, node preemption, a crash bug) everything needed to recover is
already in the store:

* each shard's **longest chain-valid prefix** is exactly the set of records
  the producer acknowledged before dying (a torn half-frame at the tail is
  not chain-valid and is discarded);
* the prefix's **chain head digest** is the resume point: a restarted
  producer re-executes the whole run (determinism is the recovery
  mechanism -- same program, same seed, same log), *skips* the appends that
  are already durable, and extends each shard's hash chain from its
  salvaged head.

The result is byte-identical shards -- and therefore a byte-identical
merged history, signature and verdict -- to an uninterrupted run.  The
chain's per-frame sequence stamps are what make the replay dedup exact
rather than heuristic: a restarted producer can never double-append or
skip a record without breaking the chain it is extending.

:class:`ProducerSupervisor` wraps the fork/monitor/salvage/restart loop
with bounded seeded-jitter exponential backoff between attempts and a
**give-up ledger**: every death, restart and terminal surrender is recorded
(and published to ``<session>/RESTARTS.json``) so an operator can see what
the supervisor absorbed.  The daemon's :class:`~repro.serve.daemon.ServeSession`
treats the supervisor as its producer handle -- ``is_alive()`` stays true
across restarts, so a session only concludes "producer abandoned" once the
supervisor has truly given up.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.log import PROLOGUE_SIZE, ChainDecoder, LogFormatError, read_prologue
from .shard import manifest_name, restarts_name, shard_name
from .store import LogStore


@dataclass
class ShardSalvage:
    """One shard's chain-valid prefix after a producer death."""

    index: int
    records: int
    head_digest: Optional[str]
    valid_bytes: int
    dropped_bytes: int

    def resume_entry(self) -> Optional[dict]:
        if self.records == 0:
            return None
        return {"records": self.records, "head_digest": self.head_digest}

    def to_dict(self) -> dict:
        return {
            "shard": self.index,
            "records": self.records,
            "head_digest": self.head_digest,
            "valid_bytes": self.valid_bytes,
            "dropped_bytes": self.dropped_bytes,
        }


def salvage_shard(store: LogStore, session: str, index: int) -> ShardSalvage:
    """Truncate one shard to its longest chain-valid prefix.

    Walks the stored bytes with :class:`ChainDecoder`; anything past the
    last chain-valid frame (a torn half-frame from a mid-flush death, or
    corrupt tail bytes) is cut off so a restarted producer can extend the
    chain from a clean boundary.  A missing or prologue-less shard counts
    as empty: the restarted producer rewrites it from genesis.

    Truncation is published atomically (``put_bytes`` is tmp+rename /
    whole-object put in both shipped stores), and only ever removes bytes a
    chain-verifying reader has not accepted -- a live
    :class:`~repro.serve.shard.ShardTail` never holds partial frames across
    polls, so its offset is always at or before the salvage boundary.
    """
    name = shard_name(session, index)
    if store.size(name) is None:
        return ShardSalvage(index, 0, None, 0, 0)
    data = store.get_bytes(name)
    try:
        read_prologue(data, shard_id=index)
    except LogFormatError:
        store.delete(name)  # a prologue fragment or a foreign file: useless
        return ShardSalvage(index, 0, None, 0, len(data))
    decoder = ChainDecoder(shard_id=index, base_offset=PROLOGUE_SIZE)
    decoder.feed(data[PROLOGUE_SIZE:])
    valid_end = decoder.consumed  # absolute offset of the last valid frame
    if decoder.index == 0:
        # Prologue but no complete record: delete rather than truncate, so
        # the restarted producer (which has no resume entry for this shard)
        # rewrites the prologue instead of appending a duplicate one.
        store.delete(name)
        return ShardSalvage(index, 0, None, 0, len(data))
    dropped = len(data) - valid_end
    if dropped:
        store.put_bytes(name, data[:valid_end])
    return ShardSalvage(
        index,
        decoder.index,
        decoder.head_digest if decoder.index else None,
        valid_end,
        dropped,
    )


def salvage_session(
    store: LogStore, session: str, num_shards: int
) -> List[ShardSalvage]:
    """Salvage every shard of one session; returns per-shard reports."""
    return [
        salvage_shard(store, session, index) for index in range(num_shards)
    ]


@dataclass
class SupervisionPolicy:
    """Restart pacing: bounded retries, exponential backoff, seeded jitter.

    Attempt ``n >= 1`` waits ``min(backoff_max, backoff_base *
    backoff_factor**(n-1))`` stretched by up to ``jitter`` (relative),
    drawn deterministically from ``seed`` and the attempt number -- the
    same replayable policy shape as the resilient pool's
    :class:`~repro.concurrency.resilient.RetryPolicy`.
    """

    max_restarts: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def backoff(self, attempt: int) -> float:
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        rng = random.Random(f"{self.seed}:restart:{attempt}")
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class SupervisorState:
    """What the supervisor did, for the ledger and the session stats."""

    restarts: int = 0
    gave_up: bool = False
    succeeded: bool = False
    ledger: List[dict] = field(default_factory=list)


class ProducerSupervisor:
    """Fork, monitor, salvage and restart one session's producer.

    Duck-types the ``process`` handle :meth:`ServeSession.run` polls:
    ``is_alive()`` is true while a producer attempt is running *or* a
    restart is pending, so the daemon keeps tailing across the gap.  Once
    the producer publishes its manifest the supervisor is done; once the
    restart budget is spent it gives up, records why, and ``is_alive()``
    goes false -- the daemon then concludes the session through its normal
    dead-producer path.

    ``kill_after`` is the fault hook: the *first* attempt's producer dies
    (``os._exit``) after that many appended-and-flushed records; restarts
    run clean, mirroring the transient-fault model everywhere else in
    :mod:`repro.faults`.
    """

    def __init__(
        self,
        store,  # LocalDirectoryStore: producers are forked subprocesses
        session: str,
        program: str,
        seed: int,
        num_shards: int,
        *,
        sync: bool = False,
        batch_records: int = 64,
        run_kwargs: Optional[dict] = None,
        policy: Optional[SupervisionPolicy] = None,
        kill_after: Optional[int] = None,
        ctx=None,
    ):
        from .store import LocalDirectoryStore

        if not isinstance(getattr(store, "inner", store), LocalDirectoryStore):
            raise TypeError(
                "ProducerSupervisor forks producer subprocesses and needs a "
                "LocalDirectoryStore (optionally wrapped in a RetryingStore)"
            )
        self.store = store
        self.session = session
        self.program = program
        self.seed = seed
        self.num_shards = num_shards
        self.sync = sync
        self.batch_records = batch_records
        self.run_kwargs = dict(run_kwargs or {})
        self.policy = policy or SupervisionPolicy(seed=seed)
        self.kill_after = kill_after
        if ctx is None:
            import multiprocessing

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = multiprocessing.get_context()
        self._ctx = ctx
        self.state = SupervisorState()
        self._process = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._done = threading.Event()

    # -- the process handle the daemon polls --------------------------------

    def is_alive(self) -> bool:
        """True while the session still has a producer or a pending restart."""
        return not self._done.is_set()

    @property
    def restarts(self) -> int:
        return self.state.restarts

    @property
    def gave_up(self) -> bool:
        return self.state.gave_up

    @property
    def ledger(self) -> List[dict]:
        return list(self.state.ledger)

    # -- lifecycle -----------------------------------------------------------

    def _local_root(self) -> str:
        store = self.store
        inner = getattr(store, "inner", None)
        return store.root if hasattr(store, "root") else inner.root

    def _spawn(self, attempt: int, resume: Optional[Dict[int, dict]]):
        from .producer import _producer_main

        process = self._ctx.Process(
            target=_producer_main,
            args=(
                self._local_root(), self.session, self.program, self.seed,
                self.num_shards, self.sync, self.batch_records,
                self.run_kwargs,
            ),
            kwargs={
                "resume": resume,
                "die_after": self.kill_after if attempt == 0 else None,
            },
            name=f"producer-{self.session}-a{attempt}",
        )
        process.start()
        return process

    def start(self) -> None:
        self._process = self._spawn(0, None)
        self._thread = threading.Thread(
            target=self._monitor, name=f"supervise-{self.session}",
            daemon=True,
        )
        self._thread.start()

    def _publish_ledger(self) -> None:
        try:
            self.store.put_json(restarts_name(self.session), {
                "session": self.session,
                "restarts": self.state.restarts,
                "gave_up": self.state.gave_up,
                "succeeded": self.state.succeeded,
                "events": self.state.ledger,
            })
        except Exception:  # pragma: no cover - ledger is best-effort
            pass

    def _monitor(self) -> None:
        attempt = 0
        try:
            while not self._stop.is_set():
                self._process.join()
                if self.store.exists(manifest_name(self.session)):
                    self.state.succeeded = True
                    return
                exitcode = self._process.exitcode
                if attempt >= self.policy.max_restarts:
                    self.state.gave_up = True
                    self.state.ledger.append({
                        "event": "gave_up",
                        "attempt": attempt,
                        "exitcode": exitcode,
                        "max_restarts": self.policy.max_restarts,
                    })
                    return
                delay = self.policy.backoff(attempt + 1)
                if self._stop.wait(delay):
                    return
                salvages = salvage_session(
                    self.store, self.session, self.num_shards
                )
                resume = {
                    s.index: s.resume_entry()
                    for s in salvages if s.resume_entry() is not None
                }
                attempt += 1
                self.state.restarts += 1
                self.state.ledger.append({
                    "event": "restart",
                    "attempt": attempt,
                    "exitcode": exitcode,
                    "backoff_seconds": round(delay, 4),
                    "salvaged_records": sum(s.records for s in salvages),
                    "dropped_bytes": sum(s.dropped_bytes for s in salvages),
                    "shards": [s.to_dict() for s in salvages],
                })
                self._publish_ledger()
                self._process = self._spawn(attempt, resume)
        finally:
            self._publish_ledger()
            self._done.set()

    def finish(self, timeout: float = 30.0) -> SupervisorState:
        """Join the monitor (and any straggling producer); returns state."""
        if self._thread is not None:
            self._thread.join(timeout)
        process = self._process
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged producer
                process.terminate()
                process.join()
        return self.state

    def stop(self) -> None:
        """Abort supervision (session torn down externally)."""
        self._stop.set()
        process = self._process
        if process is not None and process.is_alive():
            process.terminate()
        self.finish(timeout=5.0)
