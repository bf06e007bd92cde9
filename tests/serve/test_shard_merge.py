"""Shard writers/tails and the deterministic sequence-number merge."""

import io
import pickle

import pytest

from repro.core import (
    CallAction,
    ReplayAction,
    WriteAction,
    log_signature,
    verify_chain,
)
from repro.core.log import PAYLOAD_PROTOCOL
from repro.serve import (
    MergeError,
    ObjectStoreStub,
    ShardSet,
    ShardTail,
    StreamMerger,
    TeeLog,
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

