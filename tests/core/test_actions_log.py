"""Log behavior, serialization round-trips and well-formedness checking."""

import io
import pickle
import time
from dataclasses import fields

import pytest

from repro.core import (
    AcquireAction,
    Action,
    BeginCommitBlockAction,
    CallAction,
    CommitAction,
    EndCommitBlockAction,
    JoinAction,
    Log,
    LogReader,
    LogView,
    LogWriter,
    ReadAction,
    ReleaseAction,
    ReplayAction,
    ReturnAction,
    Signature,
    SpawnAction,
    WriteAction,
    load_log,
    recover_log,
    save_log,
    validate_well_formed,
)
from repro.core.log import (
    _CHAIN_HEADER,
    FRAME_FIXED,
    PROLOGUE_SIZE,
    LogFormatError,
)


def _simple_log():
    return Log([
        CallAction(0, 0, "insert", (3,)),
        WriteAction(0, 0, "A[0].elt", None, 3),
        CommitAction(0, 0),
        ReturnAction(0, 0, "insert", "success"),
    ])


def test_log_append_and_indexing():
    log = Log()
    assert len(log) == 0
    seq = log.append(CallAction(1, 7, "m", ()))
    assert seq == 0
    assert log[0].method == "m"
    assert log.append(ReturnAction(1, 7, "m", None)) == 1
    assert len(log) == 2


def test_log_since_cursor():
    log = _simple_log()
    tail = log.since(2)
    assert len(tail) == 2
    assert isinstance(tail[0], CommitAction)
    assert log.since(len(log)) == []


def test_since_returns_bounded_view_over_shared_storage():
    log = _simple_log()
    view = log.since(1)
    assert isinstance(view, LogView)
    assert (view.start, view.stop) == (1, 4)
    assert view[0] is log[1]          # same record objects, no copy
    assert view[-1] is log[3]
    assert list(view) == list(log)[1:]
    assert view[1:3] == list(log)[2:4]
    assert view == list(log)[1:]
    # the view is a snapshot: appends after creation fall outside its bounds
    log.append(CommitAction(0, None))
    assert len(view) == 3
    assert log.since(0).stop == 5


def test_since_is_not_quadratic_on_long_logs():
    """Regression: an online verifier that drains one record per poll used
    to re-copy the whole remaining tail each time (O(n^2) total).  With the
    bounded view the same access pattern is O(n)."""
    n = 30_000
    log = Log(CommitAction(0, None) for _ in range(n))
    start = time.perf_counter()
    cursor = 0
    consumed = 0
    while cursor < len(log):
        tail = log.since(cursor)
        consumed += 1 if len(tail) else 0
        cursor += 1
    elapsed = time.perf_counter() - start
    assert consumed == n
    # view construction is O(1); the copying implementation shuffles ~450M
    # list slots here and blows far past this bound on any hardware
    assert elapsed < 1.5


def test_file_round_trip(tmp_path):
    log = _simple_log()
    path = tmp_path / "run.vyrdlog"
    save_log(log, path)
    restored = load_log(path)
    assert list(restored) == list(log)


def _sync_log():
    """A log exercising every synchronization-event record kind."""
    return Log([
        SpawnAction(0, None, 2),
        CallAction(2, 0, "insert", (3,)),
        AcquireAction(2, 0, "A[0]"),
        ReadAction(2, 0, "A[0].elt"),
        WriteAction(2, 0, "A[0].elt", None, 3),
        ReleaseAction(2, 0, "A[0]"),
        AcquireAction(2, 0, "rw", "r"),
        ReleaseAction(2, 0, "rw", "r"),
        CommitAction(2, 0),
        ReturnAction(2, 0, "insert", "success"),
        JoinAction(0, None, 2),
    ])


def test_sync_records_file_round_trip(tmp_path):
    log = _sync_log()
    path = tmp_path / "sync.vyrdlog"
    save_log(log, path)
    restored = load_log(path)
    assert list(restored) == list(log)


def test_acquire_release_round_trip_fields(tmp_path):
    log = Log([
        AcquireAction(4, 9, "tree.n3", "w"),
        ReleaseAction(4, 9, "tree.n3", "w"),
        AcquireAction(5, None, "guard"),
        ReleaseAction(5, None, "guard"),
    ])
    path = tmp_path / "locks.vyrdlog"
    save_log(log, path)
    acquire, release, plain_acquire, plain_release = load_log(path)
    assert (acquire.tid, acquire.op_id, acquire.lock, acquire.mode) == (
        4, 9, "tree.n3", "w"
    )
    assert (release.tid, release.op_id, release.lock, release.mode) == (
        4, 9, "tree.n3", "w"
    )
    assert plain_acquire.mode == "x" and plain_release.mode == "x"
    assert plain_acquire.op_id is None


def test_read_round_trip_fields(tmp_path):
    log = Log([ReadAction(7, 11, "cache.entry[2]"), ReadAction(0, None, "d")])
    path = tmp_path / "reads.vyrdlog"
    save_log(log, path)
    read, internal = load_log(path)
    assert (read.tid, read.op_id, read.loc) == (7, 11, "cache.entry[2]")
    assert (internal.tid, internal.op_id, internal.loc) == (0, None, "d")


def test_spawn_join_round_trip_fields(tmp_path):
    log = Log([SpawnAction(1, 3, 6), JoinAction(1, 3, 6)])
    path = tmp_path / "forks.vyrdlog"
    save_log(log, path)
    spawn, join = load_log(path)
    assert (spawn.tid, spawn.op_id, spawn.child_tid) == (1, 3, 6)
    assert (join.tid, join.op_id, join.child_tid) == (1, 3, 6)


def test_sync_records_are_well_formed_passthrough():
    assert validate_well_formed(_sync_log()) == []


def test_stream_round_trip_in_memory():
    log = _simple_log()
    buffer = io.BytesIO()
    with LogWriter(buffer) as writer:
        writer.write_all(log)
    buffer.seek(0)
    with LogReader(buffer) as reader:
        assert list(reader) == list(log)


def test_framed_records_are_independently_loadable(tmp_path):
    """The stream pickler's memo is cleared per record, so every chained
    frame's payload is a self-contained pickle: a fresh Unpickler at any
    frame must succeed, even with payload objects repeated across
    records."""
    payload = ("shared-payload", 7)
    log = Log(CallAction(0, i, "m", (payload,)) for i in range(6))
    path = tmp_path / "framed.vyrdlog"
    save_log(log, path)
    data = path.read_bytes()
    restored = []
    offset = PROLOGUE_SIZE
    while offset < len(data):
        _seq, length, _crc = _CHAIN_HEADER.unpack_from(data, offset)
        start = offset + FRAME_FIXED
        restored.append(pickle.loads(data[start:start + length]))
        offset = start + length
    assert restored == list(log)


def _bare_pickle_stream(path):
    """Records dumped one after another with plain ``pickle.dump``: the
    pre-framing format, which no reader accepts any more."""
    with open(path, "wb") as handle:
        for action in _sync_log():
            pickle.dump(action, handle, protocol=pickle.HIGHEST_PROTOCOL)


def test_bare_pickle_stream_is_an_unrecognized_prologue(tmp_path):
    """No magic, no log: a strict read fails at byte 0 and a salvage keeps
    nothing.  (``check``, ``linz`` and ``races`` on such a stream exit 2:
    ``test_bad_log_input_is_a_typed_problem_on_every_command``.)"""
    path = tmp_path / "bare.pickle"
    _bare_pickle_stream(path)
    with pytest.raises(LogFormatError) as caught:
        load_log(path)
    assert (caught.value.offset, caught.value.record_index) == (0, 0)
    assert "unrecognized log prologue" in caught.value.cause
    recovered = recover_log(path)
    assert recovered.records == 0 and not recovered.complete
    assert recovered.error_offset == 0 and not recovered.chained
    assert recovered.total_bytes == path.stat().st_size


def test_reduce_is_type_and_field_values_for_every_action():
    """``Action.__reduce__`` caches one field getter per class; what it
    returns (and so every pickle, log byte and signature) is unchanged."""
    instances = [
        CallAction(0, 1, "insert", (3, "x")),
        ReturnAction(0, 1, "insert", "success"),
        CommitAction(1, None),
        WriteAction(0, 1, "A[0].elt", None, 3),
        BeginCommitBlockAction(0, 1),
        EndCommitBlockAction(0, 1),
        ReplayAction(2, 4, "tag", ("payload", 1)),
        ReadAction(0, None, "A[1].valid"),
        AcquireAction(0, 1, "lock"),  # defaulted mode
        AcquireAction(0, 1, "rw", "r"),
        ReleaseAction(0, 1, "lock"),  # defaulted mode
        ReleaseAction(0, 1, "rw", "w"),
        SpawnAction(0, None, 3),
        JoinAction(0, None, 3),
    ]
    assert {type(a) for a in instances} == set(Action.__subclasses__())
    for _ in range(2):  # the first call builds the getter, the second reuses it
        for action in instances:
            expected = tuple(getattr(action, f.name) for f in fields(action))
            assert action.__reduce__() == (type(action), expected)
            assert pickle.loads(pickle.dumps(action)) == action


def test_interleaved_write_and_write_all_round_trip(tmp_path):
    log = _sync_log()
    path = tmp_path / "mixed.vyrdlog"
    with LogWriter(path) as writer:
        writer.write(log[0])
        writer.write_all(log[1:5])
        writer.write(log[5])
        writer.write_all(log[6:])
    assert list(load_log(path)) == list(log)


def test_signature_str():
    sig = Signature(2, "lookup", (5,), True)
    assert str(sig) == "t2:lookup(5) -> True"


def test_well_formed_log_passes():
    assert validate_well_formed(_simple_log()) == []


def test_call_while_open_is_flagged():
    log = Log([
        CallAction(0, 0, "a", ()),
        CallAction(0, 1, "b", ()),
    ])
    problems = validate_well_formed(log)
    assert any("still open" in p for p in problems)


def test_unmatched_return_is_flagged():
    log = Log([ReturnAction(0, 5, "a", None)])
    problems = validate_well_formed(log)
    assert any("does not match" in p for p in problems)


def test_commit_outside_window_is_flagged():
    log = Log([
        CallAction(0, 0, "a", ()),
        ReturnAction(0, 0, "a", None),
        CommitAction(0, 0),
    ])
    problems = validate_well_formed(log)
    assert any("outside its call/return window" in p for p in problems)


def test_double_commit_is_flagged():
    log = Log([
        CallAction(0, 0, "a", ()),
        CommitAction(0, 0),
        CommitAction(0, 0),
        ReturnAction(0, 0, "a", None),
    ])
    problems = validate_well_formed(log)
    assert any("more than once" in p for p in problems)


def test_internal_commit_is_not_flagged():
    log = Log([CommitAction(3, None)])
    assert validate_well_formed(log) == []


def test_unbalanced_commit_block_is_flagged():
    log = Log([BeginCommitBlockAction(0, None)])
    problems = validate_well_formed(log)
    assert any("commit block" in p for p in problems)

    log2 = Log([EndCommitBlockAction(0, None)])
    problems2 = validate_well_formed(log2)
    assert any("never began" in p for p in problems2)


def test_missing_return_at_end_is_flagged():
    log = Log([CallAction(0, 0, "a", ())])
    problems = validate_well_formed(log)
    assert any("never returned" in p for p in problems)


def test_op_id_reuse_is_flagged():
    log = Log([
        CallAction(0, 0, "a", ()),
        ReturnAction(0, 0, "a", None),
        CallAction(1, 0, "a", ()),
        ReturnAction(1, 0, "a", None),
    ])
    problems = validate_well_formed(log)
    assert any("reused" in p for p in problems)
