"""Producer supervision: salvage, deterministic restart, bounded give-up.

The load-bearing property: a producer killed abruptly mid-session
(``os._exit`` after N acknowledged records) and restarted by the
supervisor yields byte-identical shards -- and therefore signature, chain
audit and verdict -- to an uninterrupted run of the same seed.
"""

import threading

import pytest

from repro.concurrency import RetryPolicy
from repro.core import verify_chain
from repro.serve import (
    LocalDirectoryStore,
    ProducerSupervisor,
    ServeSession,
    produce_session,
    restarts_name,
    salvage_shard,
    session_checkers,
    shard_name,
)

PROG = "multiset-vector"
WORKLOAD = dict(num_threads=3, calls_per_thread=10)


def reference_serve(root, seed, **workload):
    store = LocalDirectoryStore(root)
    produce_session(
        store, "ref", PROG, seed=seed, num_shards=2,
        run_kwargs={**WORKLOAD, **workload}, throttle=False,
    )
    checker_factory, _ = session_checkers(PROG)
    return ServeSession(
        store, "ref", 2, checker_factory=checker_factory, timeout=30.0
    ).run()


def supervised_serve(root, seed, kill_after, *, max_restarts=2,
                     store_class=LocalDirectoryStore, **workload):
    store = store_class(root)
    supervisor = ProducerSupervisor(
        store, "sup", PROG, seed, 2,
        run_kwargs={**WORKLOAD, **workload},
        policy=RetryPolicy(
            max_retries=max_restarts, seed=seed, backoff_base=0.01,
        ),
        kill_after=kill_after,
    )
    checker_factory, _ = session_checkers(PROG)
    session = ServeSession(
        store, "sup", 2, checker_factory=checker_factory, timeout=30.0
    )
    supervisor.start()
    try:
        result = session.run(supervisor)
    finally:
        state = supervisor.finish()
    return result, state, store


def test_salvage_truncates_to_chain_valid_prefix(tmp_path):
    store = LocalDirectoryStore(str(tmp_path))
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    name = shard_name("s", 0)
    intact = store.get_bytes(name)
    full = salvage_shard(store, "s", 0)
    assert full.dropped_bytes == 0 and full.records > 0
    # A torn half-frame at the tail (mid-flush death): salvage drops it.
    store.put_bytes(name, intact + intact[-7:])
    torn = salvage_shard(store, "s", 0)
    assert torn.records == full.records
    assert torn.dropped_bytes == 7
    assert store.get_bytes(name) == intact
    with store.open_read(name) as handle:
        assert verify_chain(handle).ok
    assert torn.head_digest == full.head_digest


def test_salvage_of_missing_or_garbage_shard_is_empty(tmp_path):
    store = LocalDirectoryStore(str(tmp_path))
    assert salvage_shard(store, "s", 0).records == 0
    store.put_bytes(shard_name("s", 1), b"not a shard at all")
    report = salvage_shard(store, "s", 1)
    assert report.records == 0 and report.resume_entry() is None
    assert store.size(shard_name("s", 1)) is None  # deleted


@pytest.mark.parametrize("buggy", [False, True])
def test_mid_session_kill_restart_is_byte_invisible(tmp_path, buggy):
    reference = reference_serve(
        str(tmp_path / "ref"), seed=3, buggy=buggy
    )
    assert reference.ok
    kill_after = reference.records // 2
    result, state, store = supervised_serve(
        str(tmp_path / "sup"), 3, kill_after, buggy=buggy
    )
    assert result.ok, result.error
    assert state.restarts == 1 and not state.gave_up and state.succeeded
    assert result.restarts == 1
    assert result.signature == reference.signature
    assert result.outcome.to_dict() == reference.outcome.to_dict()
    assert result.chain_ok
    # The restart ledger is published and carries the salvage evidence.
    ledger = store.get_json(restarts_name("sup"))
    assert ledger["restarts"] == 1 and ledger["succeeded"]
    (event,) = [e for e in ledger["events"] if e["event"] == "restart"]
    assert event["exitcode"] == 21  # TeeLog's die_after exit code
    assert event["salvaged_records"] == kill_after
    assert event["backoff_seconds"] > 0


def test_kill_before_any_ack_restarts_from_genesis(tmp_path):
    reference = reference_serve(str(tmp_path / "ref"), seed=5)
    result, state, _store = supervised_serve(str(tmp_path / "sup"), 5, 1)
    assert result.ok and state.restarts == 1
    assert result.signature == reference.signature


def test_supervisor_gives_up_after_restart_budget(tmp_path):
    store = LocalDirectoryStore(str(tmp_path))
    supervisor = ProducerSupervisor(
        store, "sup", PROG, 3, 2, run_kwargs=WORKLOAD,
        policy=RetryPolicy(max_retries=0, seed=3),
        kill_after=5,
    )
    checker_factory, _ = session_checkers(PROG)
    session = ServeSession(
        store, "sup", 2, checker_factory=checker_factory, timeout=30.0
    )
    supervisor.start()
    try:
        result = session.run(supervisor)
    finally:
        state = supervisor.finish()
    assert not result.ok
    assert state.gave_up and result.gave_up
    assert "gave up" in (result.error or "")
    ledger = store.get_json(restarts_name("sup"))
    assert ledger["gave_up"]
    assert any(e["event"] == "gave_up" for e in ledger["events"])


class _LedgerRefusingStore(LocalDirectoryStore):
    """A local store whose disk refuses the supervisor's restart ledger."""

    def put_bytes(self, name, data):
        if name == restarts_name("sup"):
            raise OSError("ledger volume full")
        super().put_bytes(name, data)


def test_unwritable_ledger_does_not_disturb_the_restart(tmp_path, monkeypatch):
    """The ledger is best-effort: a store refusing it must neither wedge
    the monitor (its ``finally`` publishes before ``is_alive()`` goes
    false) nor escape the monitor thread."""
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    result, state, store = supervised_serve(
        str(tmp_path), 3, 20, store_class=_LedgerRefusingStore
    )
    assert result.ok, result.error
    assert state.restarts == 1 and state.succeeded and not state.gave_up
    assert not store.exists(restarts_name("sup"))
    assert escaped == []


def test_supervisor_rejects_non_local_store():
    from repro.serve import ObjectStoreStub

    with pytest.raises(TypeError):
        ProducerSupervisor(ObjectStoreStub(), "s", PROG, 0, 2)


def test_campaign_supervised_kill_matches_reference(tmp_path):
    """The serve_campaign wiring: supervised producer-kill sessions report
    restarts on the result and still match the unsupervised signature."""
    from repro.serve import serve_campaign

    ref_store = LocalDirectoryStore(str(tmp_path / "ref"))
    ref = serve_campaign(
        PROG, ref_store, sessions=1, base_seed=3, jobs=1,
        run_kwargs=WORKLOAD, timeout=30.0,
    ).sessions[0]
    sup_store = LocalDirectoryStore(str(tmp_path / "sup"))
    sup = serve_campaign(
        PROG, sup_store, sessions=1, base_seed=3, jobs=1,
        run_kwargs=WORKLOAD, timeout=30.0,
        supervise=True, kill_producer_after=ref.records // 3,
        store_retries=2,
    ).sessions[0]
    assert sup.ok, sup.error
    assert sup.restarts == 1 and not sup.gave_up
    assert sup.signature == ref.signature
    assert sup.stats["supervisor"]["succeeded"]
    assert sup.to_dict()["restarts"] == 1
