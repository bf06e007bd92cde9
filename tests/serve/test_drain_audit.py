"""The daemon's drain: a signature and a chain audit without a second pass.

``ServeSession.run`` signs the canonical history from the frame payloads the
merge emitted and confirms each shard at rest by its length and one SHA-256
of the bytes its tail verified.  These tests pin both to what a second pass
would compute: the signature to ``log_signature`` of the history (and of the
direct run), every report to ``verify_chain`` against the manifest head.
"""

import pickle

import pytest

from repro.core.log import ChainDecoder, log_signature, verify_chain
from repro.harness.runner import run_program
from repro.harness.workload import PROGRAMS
from repro.serve import (
    LocalDirectoryStore,
    ObjectStoreStub,
    PROLOGUE_SIZE,
    ServeSession,
    ShardTail,
    manifest_name,
    produce_session,
    shard_name,
)
from repro.serve import daemon

#: Small runs of every registry program, with locks and reads logged.
WORKLOAD = dict(num_threads=3, calls_per_thread=8, log_locks=True,
                log_reads=True)


def _produce(store, name, program, num_shards, buggy=False, seed=1,
             workload=WORKLOAD):
    return produce_session(
        store, name, program, seed=seed, num_shards=num_shards,
        run_kwargs={**workload, "buggy": buggy}, throttle=False,
    )


def _store(kind, tmp_path):
    return ObjectStoreStub() if kind == "stub" else LocalDirectoryStore(
        str(tmp_path / "store")
    )


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_frame_payloads_round_trip_through_pickle(program):
    """Each chained frame's payload is the pickle of its own decoded record,
    so hashing payloads gives ``log_signature`` of the decoded history."""
    for buggy in (False, True):
        store = ObjectStoreStub()
        manifest = _produce(store, "s", program, 2, buggy=buggy)
        frames = 0
        for index in range(2):
            tail = ShardTail(store, "s", index)
            items = tail.poll()
            while items:
                for _seq, action, payload in items:
                    again = pickle.dumps(pickle.loads(payload),
                                         pickle.HIGHEST_PROTOCOL)
                    assert again == payload
                    assert pickle.dumps(action, pickle.HIGHEST_PROTOCOL) == payload
                frames += len(items)
                items = tail.poll()
            assert tail.error is None
        assert frames == manifest["records"] > 0


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_served_signature_is_log_signature_on_every_path(program, tmp_path):
    """1, 2 and 3 shards on both stores, correct and buggy: the signature
    equals ``log_signature`` of the canonical history and of the direct
    run."""
    for buggy in (False, True):
        direct = log_signature(
            run_program(program, seed=1, buggy=buggy, **WORKLOAD).log
        )
        for kind in ("stub", "local"):
            store = _store(kind, tmp_path)
            for num_shards in (1, 2, 3):
                name = f"{int(buggy)}-{num_shards}"
                _produce(store, name, program, num_shards, buggy=buggy)
                session = ServeSession(store, name, num_shards)
                result = session.run()
                assert result.ok, result.error
                assert result.signature == log_signature(session._canonical)
                assert result.signature == direct, (kind, num_shards, buggy)


class _FlipOnManifestRead:
    """Rewrites one byte of ``victim`` (same length) when the manifest is
    first read: after the tail verified the bytes, before the audit."""

    victim = None

    def get_json(self, name):
        if self.victim is not None and name.endswith("MANIFEST.json"):
            victim, self.victim = self.victim, None
            body = bytearray(self.get_bytes(victim))
            body[len(body) // 2] ^= 0x01
            self.put_bytes(victim, bytes(body))
        return super().get_json(name)


def _rest_reports(store, manifest):
    reports = []
    for entry in manifest["shards"]:
        path = store.path(entry["name"])
        if path is not None:
            report = verify_chain(path, expected_head=entry["head_digest"])
        else:
            with store.open_read(entry["name"]) as handle:
                report = verify_chain(handle, expected_head=entry["head_digest"])
        reports.append(report.to_dict())
    return reports


def _comparable(report, kind):
    if kind == "stub":  # verify_chain on a handle names no path nor shard
        report = {k: v for k, v in report.items() if k not in ("path", "shard_id")}
    return report


#: The shard each case damages (None: none).
BROKEN = {"clean": None, "truncated-tail": 1, "trailing-bytes": 0,
          "rewritten-at-rest": 0}


def _damage(store, case):
    """Apply ``case`` to session "s" before (or, for a rewrite, while) it
    is served."""
    if case == "truncated-tail":
        # drop the last frame at its boundary: a chain-clean removal
        name = shard_name("s", 1)
        body = store.get_bytes(name)
        decoder = ChainDecoder(shard_id=1, base_offset=PROLOGUE_SIZE)
        ends = [end for _seq, _a, end in decoder.feed(body[PROLOGUE_SIZE:])]
        store.put_bytes(name, body[: ends[-2]])
    elif case == "trailing-bytes":
        name = shard_name("s", 0)
        store.put_bytes(name, store.get_bytes(name) + b"\x00" * 7)
    elif case == "rewritten-at-rest":
        store.victim = shard_name("s", 0)


@pytest.mark.parametrize("kind", ["stub", "local"])
@pytest.mark.parametrize("case", sorted(BROKEN))
def test_drain_audit_equals_verify_chain(kind, case, tmp_path):
    base = ObjectStoreStub if kind == "stub" else LocalDirectoryStore
    store_type = type("FlipStore", (_FlipOnManifestRead, base), {})
    store = store_type() if kind == "stub" else store_type(str(tmp_path))
    _produce(store, "s", "multiset-vector", 2)
    _damage(store, case)
    result = ServeSession(store, "s", 2, timeout=0.3).run()
    assert result.ok == (case == "clean")
    manifest = store.get_json(manifest_name("s"))
    served = [report.to_dict() for report in result.chain]
    at_rest = _rest_reports(store, manifest)
    assert [_comparable(r, kind) for r in served] == [
        _comparable(r, kind) for r in at_rest
    ]
    assert [r["ok"] for r in served] == [
        index != BROKEN[case] for index in range(2)
    ]
    if kind == "stub":  # reproducible: the blob's name, not a handle's repr
        assert [r["path"] for r in served] == [
            shard_name("s", index) for index in range(2)
        ]


@pytest.mark.parametrize("kind", ["stub", "local"])
def test_mid_file_flip_stops_ingest_before_any_audit(kind, tmp_path):
    store = _store(kind, tmp_path)
    _produce(store, "s", "multiset-vector", 2)
    name = shard_name("s", 0)
    body = bytearray(store.get_bytes(name))
    body[len(body) // 2] ^= 0x01
    store.put_bytes(name, bytes(body))
    result = ServeSession(store, "s", 2, timeout=0.3).run()
    assert not result.ok and "shard 0" in result.error
    assert result.chain == []  # the manifest was never read


def test_clean_session_makes_no_second_pass(monkeypatch):
    """Neither the signature nor the audit re-reads the history."""
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(daemon, "verify_chain", spy("verify_chain", verify_chain))
    monkeypatch.setattr(daemon, "log_signature", spy("log_signature", log_signature))
    store = ObjectStoreStub()
    _produce(store, "s", "cache", 2)
    result = ServeSession(store, "s", 2).run()
    assert result.ok and result.chain_ok
    assert calls == []


@pytest.mark.parametrize("case", ["clean", "trailing-bytes"])
def test_stub_chain_reports_are_reproducible(case):
    def serve():
        store = ObjectStoreStub()
        _produce(store, "s", "multiset-vector", 2)
        _damage(store, case)
        result = ServeSession(store, "s", 2).run()
        return [report.to_dict() for report in result.chain]

    first, second = serve(), serve()
    assert first == second
    if case == "clean":
        assert [r["shard_id"] for r in first] == [0, 1]

