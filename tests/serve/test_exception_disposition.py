"""Exception dispositions in the serve daemon's ingest/checker loops.

Pins the triage the handlers implement:

* a *transient* checker fault (any plain ``Exception``) degrades to
  record-only mode and is healed by catch-up verification at drain;
* a **fatal** fault (:data:`repro.serve.daemon.FATAL_CHECKER_EXCEPTIONS`:
  ``MergeError`` -- the canonical history itself is corrupt, re-feeding it
  cannot help -- and ``MemoryError``) is *never* retried: no degradation,
  no catch-up, the error surfaces on the result;
* ``KeyboardInterrupt`` / ``SystemExit`` are ``BaseException`` and must
  escape every handler -- a Ctrl-C cannot be absorbed into a "degraded"
  session;
* a failing health write never kills a session, but is counted and carries
  its last error on every later snapshot (no silent swallow);
* a store that gives up during ingest (``StoreUnavailable`` from a
  ``RetryingStore``) is the session's error, never a dead ingest thread.
"""

import threading

import pytest

from repro.core.log import log_signature
from repro.faults import STORE_OUTAGE, Fault, FaultPlan, FlakyStore
from repro.serve import (
    MergeError,
    ObjectStoreStub,
    RetryingStore,
    ServeSession,
    health_name,
    produce_session,
    session_checkers,
)
from repro.serve.daemon import FATAL_CHECKER_EXCEPTIONS

from test_daemon import slow_checkers

PROG = "multiset-vector"
WORKLOAD = dict(num_threads=2, calls_per_thread=6)


class _FeedRaises:
    """Checker stand-in whose first ``feed`` (after ``after`` healthy ones)
    raises ``exc`` and which otherwise delegates to a real checker."""

    def __init__(self, inner, exc, fail_times=1, after=0):
        self._inner = inner
        self._exc = exc
        self._fail_times = fail_times
        self._after = after
        self.feeds = 0

    def feed(self, records):
        self.feeds += 1
        if self._after < self.feeds <= self._after + self._fail_times:
            raise self._exc
        self._inner.feed(records)

    def finish(self):
        return self._inner.finish()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _session(store, exc, calls, **session_kw):
    """A produced session whose *first* checker instance raises ``exc`` on
    its first feed; rebuilt instances (catch-up) are healthy."""
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    real_factory, _ = session_checkers(PROG)

    def factory():
        calls.append(1)
        checker = real_factory()
        if len(calls) == 1:
            return _FeedRaises(checker, exc)
        return checker

    return ServeSession(store, "s", 2, checker_factory=factory, **session_kw)


_SMALL_QUEUE = {"queue_records": 16, "batch_records": 4}


def _run_bounded(session, seconds=30.0):
    """``session.run()`` under a join timeout: a hang fails, not wedges."""
    out = {}
    thread = threading.Thread(
        target=lambda: out.setdefault("result", session.run()), daemon=True
    )
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"session still running after {seconds}s"
    return out["result"]


def test_fatal_exception_list_is_exactly_merge_and_memory():
    assert FATAL_CHECKER_EXCEPTIONS == (MergeError, MemoryError)


def test_transient_checker_fault_degrades_and_catch_up_heals():
    calls = []
    result = _session(
        ObjectStoreStub(), RuntimeError("transient checker fault"), calls
    ).run()
    assert result.ok, result.error
    assert result.degraded
    assert "checker crashed" in result.stats["degraded_reason"]
    assert len(calls) == 2                     # live + catch-up rebuild
    assert result.outcome is not None and result.outcome.ok
    assert result.error is None


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)
@pytest.mark.parametrize("exc, session_kw", [
    pytest.param(MergeError("canonical history corrupt"), {}, id="exc0"),
    pytest.param(MemoryError("checker OOM"), {}, id="exc1"),
    # a queue smaller than the 80-record session: ingest must not block in
    # put once the dead checker stops draining it
    pytest.param(MergeError("canonical history corrupt"), _SMALL_QUEUE,
                 id="exc0-small-queue"),
    pytest.param(MemoryError("checker OOM"), _SMALL_QUEUE,
                 id="exc1-small-queue"),
])
def test_fatal_checker_fault_is_not_retried(exc, session_kw):
    calls = []
    session = _session(ObjectStoreStub(), exc, calls, **session_kw)
    result = _run_bounded(session)
    assert not result.ok
    assert not result.degraded                 # no shed, no catch-up ...
    assert result.stats["degraded_reason"] is None
    assert len(calls) == 1                     # ... and no rebuilt checker
    assert result.error is not None
    assert type(exc).__name__ in result.error
    # what is signed is the history the checker got, which a small queue
    # cuts short of the merge
    assert result.signature == log_signature(session._canonical)


def test_race_member_crash_sheds_the_one_checker_and_catches_up():
    """A crash in the race member sheds the whole checker; catch-up restores
    both members from the last checkpoint, not from record zero, and the
    verdicts equal an undisturbed session's."""
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2,
        run_kwargs={**WORKLOAD, "log_locks": True, "log_reads": True},
        throttle=False,
    )
    checker_factory, race_factory = session_checkers(PROG, races="both")
    built = []

    def crashing_races():
        member = race_factory()
        built.append(member)
        if len(built) == 1:  # the live member dies on its fourth batch
            return _FeedRaises(member, RuntimeError("race member fault"),
                               after=3)
        return member

    def serve(races, **kw):
        return ServeSession(
            store, "s", 2, checker_factory=checker_factory,
            race_checker_factory=races, batch_records=8, **kw,
        ).run()

    reference = serve(race_factory)
    result = serve(crashing_races, checkpoint_every=8)
    assert result.ok, result.error
    assert result.degraded
    assert "race member fault" in result.stats["degraded_reason"]
    assert result.stats["catchup_from_seq"] > 0
    assert len(built) == 2                     # live + catch-up rebuild
    assert result.outcome.to_dict() == reference.outcome.to_dict()
    assert result.race_outcome.to_dict() == reference.race_outcome.to_dict()


def test_keyboard_interrupt_escapes_the_checker_loop():
    """`except Exception` in ``_check`` must not absorb a Ctrl-C: driven
    synchronously, the interrupt propagates and nothing records it as a
    mere checker error or degradation."""
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=1, run_kwargs=WORKLOAD,
        throttle=False,
    )
    real_factory, _ = session_checkers(PROG)
    session = ServeSession(store, "s", 1, checker_factory=real_factory)
    checker = _FeedRaises(real_factory(), KeyboardInterrupt())
    session.queue.put([object()])              # one batch to trip feed()
    with pytest.raises(KeyboardInterrupt):
        session._check(checker)
    assert session._checker_error is None
    assert not session._checker_shed


def test_system_exit_escapes_the_checker_loop():
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=1, run_kwargs=WORKLOAD,
        throttle=False,
    )
    real_factory, _ = session_checkers(PROG)
    session = ServeSession(store, "s", 1, checker_factory=real_factory)
    checker = _FeedRaises(real_factory(), SystemExit(3))
    session.queue.put([object()])
    with pytest.raises(SystemExit):
        session._check(checker)
    assert session._checker_error is None


class _HealthRefusingStore(ObjectStoreStub):
    """Accepts everything except health documents."""

    def __init__(self):
        super().__init__()
        self.refused = 0

    def put_json(self, name, payload):
        if name.endswith("HEALTH.json"):
            self.refused += 1
            raise OSError("health volume full")
        super().put_json(name, payload)


def test_health_write_failure_is_counted_not_swallowed():
    store = _HealthRefusingStore()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    checker_factory, _ = session_checkers(PROG)
    result = ServeSession(store, "s", 2, checker_factory=checker_factory).run()
    assert result.ok, result.error             # best-effort: never fatal
    assert store.refused >= 1
    assert result.stats["health_errors"] == store.refused
    assert "health volume full" in result.stats["last_health_error"]
    # the returned (unwritten) snapshot itself carries the evidence
    assert result.health["health_errors"] >= 1
    assert "health volume full" in result.health["last_health_error"]
    assert store.get_json(health_name("s")) is None


@pytest.mark.parametrize("task, session_kw", [
    pytest.param(3, {}, id="reading"),
    # a slow checker keeps the producer paused when the store gives up, so
    # clearing the pause flag fails too
    pytest.param(
        10, {**_SMALL_QUEUE, "checker_factory": slow_checkers(0.01)},
        id="paused",
    ),
    pytest.param(11, {}, id="auditing"),
])
def test_store_give_up_during_ingest_is_the_session_error(
    task, session_kw, monkeypatch
):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    blackout = FaultPlan(faults=(Fault(STORE_OUTAGE, task=task, seconds=0.5),))
    session = ServeSession(
        RetryingStore(FlakyStore(store, blackout), retries=2), "s", 2,
        **{"checker_factory": session_checkers(PROG)[0], **session_kw},
    )
    result = _run_bounded(session)
    assert escaped == []
    assert not result.ok and not result.complete
    assert "StoreUnavailable" in result.error
