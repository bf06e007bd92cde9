"""Shard writers/tails and the deterministic sequence-number merge."""

import dataclasses
import io
import os
import pickle

import pytest

from repro.concurrency import SimThreadError
from repro.core import (
    CallAction,
    LogWriter,
    ReplayAction,
    WriteAction,
    log_signature,
    verify_chain,
)
from repro.core.log import PAYLOAD_PROTOCOL
from repro.harness import run_program
from repro.harness.workload import PROGRAMS, Program
from repro.serve import (
    LocalDirectoryStore,
    MergeError,
    ObjectStoreStub,
    ShardSet,
    ShardTail,
    StreamMerger,
    TeeLog,
    manifest_name,
    produce_session,
    shard_name,
)


def actions(n, tids=(0, 1, 2)):
    return [
        WriteAction(tids[i % len(tids)], i, f"r{i % 4}", None, i)
        for i in range(n)
    ]


def spool(store, session, records, num_shards, **kw):
    shards = ShardSet(store, session, num_shards, **kw)
    for seq, action in enumerate(records):
        shards.append(seq, action)
    return shards.close()


def frames(pairs):
    """``(seq, action, payload)`` items, the shape a tail yields."""
    return [
        (seq, action, pickle.dumps(action, PAYLOAD_PROTOCOL))
        for seq, action in pairs
    ]


def drain(store, session, num_shards):
    """Tail every shard to exhaustion and merge into canonical order."""
    tails = [ShardTail(store, session, i) for i in range(num_shards)]
    merger = StreamMerger(num_shards)
    out = []
    for _ in range(100):
        moved = False
        for tail in tails:
            items = tail.poll()
            if items:
                merger.push(tail.index, items)
                moved = True
            assert tail.error is None
        out.extend(merger.pop_ready())
        if not moved and merger.buffered == 0:
            break
    return out


def test_shards_round_trip_to_canonical_order():
    store = ObjectStoreStub()
    records = actions(200)
    manifest = spool(store, "s", records, 3)
    assert manifest["records"] == 200
    assert sum(e["records"] for e in manifest["shards"]) == 200
    merged = drain(store, "s", 3)
    assert merged == records


def test_single_shard_and_many_shards_merge_identically():
    records = actions(90)
    merges = []
    for num_shards in (1, 2, 5):
        store = ObjectStoreStub()
        spool(store, "s", records, num_shards)
        merges.append(drain(store, "s", num_shards))
    assert merges[0] == merges[1] == merges[2] == records


def test_tail_verifies_chain_incrementally():
    store = ObjectStoreStub()
    spool(store, "s", actions(60, tids=(0,)), 1)
    name = shard_name("s", 0)
    body = bytearray(store.get_bytes(name))
    body[len(body) // 2] ^= 0xFF
    store.put_bytes(name, bytes(body))
    tail = ShardTail(store, "s", 0)
    got = []
    for _ in range(10):
        got.extend(tail.poll())
        if tail.error is not None:
            break
    assert tail.error is not None
    assert 0 < len(got) < 60  # the clean prefix still came through


def test_tail_rejects_wrong_shard_id():
    store = ObjectStoreStub()
    spool(store, "s", actions(10, tids=(0,)), 1)
    # present shard 0's bytes under shard 1's name
    store.put_bytes(shard_name("s", 1), store.get_bytes(shard_name("s", 0)))
    tail = ShardTail(store, "s", 1)
    assert tail.poll() == []
    assert tail.error is not None and "shard id mismatch" in tail.error.cause


def test_manifest_heads_match_shard_files():
    store = ObjectStoreStub()
    manifest = spool(store, "s", actions(80), 2)
    for entry in manifest["shards"]:
        report = verify_chain(
            store.open_read(entry["name"]), expected_head=entry["head_digest"]
        )
        assert report.ok and report.head_match


def test_merger_flags_duplicate_sequence():
    merger = StreamMerger(2)
    a = actions(3)
    merger.push(0, frames([(0, a[0]), (1, a[1])]))
    merger.push(1, frames([(1, a[2])]))  # seq 1 claimed by both shards
    with pytest.raises(MergeError):
        merger.pop_ready()


def test_merger_flags_regressed_sequence_within_shard():
    merger = StreamMerger(1)
    a = actions(2)
    with pytest.raises(MergeError):
        merger.push(0, frames([(1, a[0]), (0, a[1])]))


def test_merger_waits_on_gap():
    merger = StreamMerger(2)
    a = actions(4)
    merger.push(0, frames([(0, a[0]), (3, a[3])]))
    assert merger.pop_ready() == [a[0]]
    assert merger.gap() == 1
    merger.push(1, frames([(1, a[1]), (2, a[2])]))
    assert merger.pop_ready() == [a[1], a[2], a[3]]
    assert merger.gap() is None
    assert merger.signature() == log_signature(a)


def test_teelog_appends_to_log_and_shards():
    store = ObjectStoreStub()
    shards = ShardSet(store, "s", 2)
    tee = TeeLog(shards)
    records = actions(30)
    for action in records:
        tee.append(action)
    shards.close()
    assert list(tee) == records
    assert drain(store, "s", 2) == records


@pytest.mark.parametrize("store_kind, batch_records, sync", [
    ("object", 1, False), ("object", 7, False), ("local", 64, True),
])
def test_produced_shards_equal_frames_written_one_at_a_time(
        store_kind, batch_records, sync, tmp_path):
    """The tee routes each record to its shard's writer, which frames it
    at once and flushes every ``batch_records``: each shard file is, byte
    for byte, what ``LogWriter.write`` makes of the same ``(seq, record)``
    pairs one record at a time, and the manifest's counts and heads are
    its."""
    store = (ObjectStoreStub() if store_kind == "object"
             else LocalDirectoryStore(str(tmp_path)))
    kwargs = {"num_threads": 3, "calls_per_thread": 8, "log_locks": True,
              "log_reads": True}
    manifest = produce_session(store, "s", "cache", seed=3, num_shards=2,
                               sync=sync, batch_records=batch_records,
                               run_kwargs=kwargs)
    log = run_program("cache", seed=3, **kwargs).log
    buffers = [io.BytesIO(), io.BytesIO()]
    writers = [LogWriter(buffer, shard_id=i) for i, buffer in enumerate(buffers)]
    for seq, action in enumerate(log):
        writers[action.tid % 2].write(action, seq=seq)
    assert manifest["records"] == len(log)
    for entry, writer, buffer in zip(manifest["shards"], writers, buffers):
        assert writer.records_written > batch_records
        assert store.get_bytes(entry["name"]) == buffer.getvalue()
        assert entry["records"] == writer.records_written
        assert entry["head_digest"] == writer.head_digest


def _unpicklable_replay_program(payload, loggers):
    """multiset-vector whose worker 1 logs a replay record carrying
    ``payload`` after its first call, then carries on calling."""
    base = PROGRAMS["multiset-vector"]

    def build(buggy, num_threads):
        built = base.build(buggy, num_threads)

        def make_worker(vds, rng, index, calls):
            first = built.make_worker(vds, rng, index, 1)
            rest = built.make_worker(vds, rng, index, calls - 1)

            def body(ctx):
                yield from first(ctx)
                if index == 1:
                    loggers.append(ctx.tid)
                    yield ctx.replay("opaque", payload)
                yield from rest(ctx)

            return body

        return dataclasses.replace(built, make_worker=make_worker)

    return Program(name="unpicklable-replay",
                   bug="replay payload that cannot be pickled (test fixture)",
                   build=build)


def test_unpicklable_replay_fails_the_producer_at_its_own_append(monkeypatch):
    """A record that cannot be pickled fails the append that logs it, in
    the kernel step of the thread that logged it: the run stops with a
    ``SimThreadError`` naming that thread, although no flush falls due
    before the session would close."""
    payload = lambda: None  # noqa: E731 -- a value pickle cannot name
    with pytest.raises(Exception) as direct:
        pickle.dumps(ReplayAction(0, None, "opaque", payload), PAYLOAD_PROTOCOL)
    loggers = []
    program = _unpicklable_replay_program(payload, loggers)
    monkeypatch.setitem(PROGRAMS, program.name, program)
    with pytest.raises(SimThreadError) as excinfo:
        produce_session(ObjectStoreStub(), "s", program.name, num_shards=2,
                        batch_records=10_000,
                        run_kwargs={"num_threads": 2, "calls_per_thread": 4})
    assert loggers == [excinfo.value.thread.tid]
    assert excinfo.value.thread.name == "app-1"
    assert "'app-1'" in str(excinfo.value)
    assert type(excinfo.value.__cause__) is type(direct.value)


def test_failed_producer_closes_its_shards(monkeypatch, tmp_path):
    """A run that raises leaves every shard file flushed and closed, each a
    chain-valid prefix of frames up to the failing record, and publishes
    no manifest."""
    payload = lambda: None  # noqa: E731 -- a value pickle cannot name
    program = _unpicklable_replay_program(payload, [])
    monkeypatch.setitem(PROGRAMS, program.name, program)
    store = LocalDirectoryStore(str(tmp_path))
    run_kwargs = {"num_threads": 2, "calls_per_thread": 4}
    with pytest.raises(SimThreadError):
        produce_session(store, "s", program.name, num_shards=2,
                        batch_records=10_000, run_kwargs=run_kwargs)
    assert not store.exists(manifest_name("s"))
    # an in-memory log pickles nothing, so the direct run completes
    log = list(run_program(program.name, **run_kwargs).log)
    failed = next(
        seq for seq, action in enumerate(log)
        if isinstance(action, ReplayAction) and action.tag == "opaque"
    )
    for index in range(2):
        expected = io.BytesIO()
        writer = LogWriter(expected, shard_id=index)
        for seq, action in enumerate(log[:failed]):
            if action.tid % 2 == index:
                writer.write(action, seq=seq)
        report = verify_chain(store.path(shard_name("s", index)))
        assert report.ok and report.chained and report.shard_id == index
        assert report.records == writer.records_written > 0
        assert report.valid_bytes == report.total_bytes
        assert report.head_digest == writer.head_digest
        assert store.get_bytes(shard_name("s", index)) == expected.getvalue()


@pytest.mark.parametrize("batch_records", [64, 5])
def test_sync_producer_fsyncs_once_per_flush_point_and_shard_close(
        batch_records, monkeypatch, tmp_path):
    """``sync=True`` makes every flush point an ``fsync``, and closing a
    shard is one more: never a second flush at close."""
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    manifest = produce_session(
        LocalDirectoryStore(str(tmp_path)), "s", "multiset-vector",
        num_shards=2, sync=True, batch_records=batch_records,
        run_kwargs={"num_threads": 2, "calls_per_thread": 3},
    )
    flush_points = sum(
        entry["records"] // batch_records for entry in manifest["shards"]
    )
    assert (flush_points == 0) == (batch_records == 64)
    assert len(fsyncs) == flush_points + 2


def test_closed_shards_acknowledge_every_record():
    shards = ShardSet(ObjectStoreStub(), "s", 2, batch_records=4)
    for seq, action in enumerate(actions(11)):
        shards.append(seq, action)
    manifest = shards.close()
    assert [writer.acked for writer in shards.writers] == [
        entry["records"] for entry in manifest["shards"]
    ]
    assert sum(writer.acked for writer in shards.writers) == 11


def test_tail_split_at_every_offset_keeps_payloads_and_audit():
    """Polled in chunks that split frames at every offset, a tail hands back
    each frame's payload as written and audits the shard exactly like a
    tail that read it in one poll: it hashed the prologue and whole frames
    only, with no partial frame counted twice or dropped."""
    records = [
        CallAction(0, 0, "insert", (3, "x" * 40)),
        *actions(8, tids=(0,)),
        ReplayAction(0, 1, "bulk", tuple(range(30))),
        WriteAction(0, 2, "r", None, "y" * 300),
    ]
    store = ObjectStoreStub()
    manifest = spool(store, "s", records, 1)
    head = manifest["shards"][0]["head_digest"]
    body = store.get_bytes(shard_name("s", 0))
    whole = ShardTail(store, "s", 0)
    items = whole.poll(len(body))
    assert [action for _seq, action, _payload in items] == records
    expected = whole.audit(io.BytesIO(body), head)
    assert expected is not None and expected.records == len(records)
    payloads = [pickle.dumps(a, PAYLOAD_PROTOCOL) for a in records]
    longest = max(map(len, payloads))
    for max_bytes in range(1, longest + 100):
        tail = ShardTail(store, "s", 0)
        got = []
        while tail.offset < len(body):
            got.extend(tail.poll(max_bytes))
        assert tail.error is None and tail.at_clean_boundary()
        assert [seq for seq, _action, _payload in got] == list(range(len(records)))
        assert [action for _seq, action, _payload in got] == records
        assert [payload for _seq, _action, payload in got] == payloads
        assert tail.audit(io.BytesIO(body), head) == expected

