"""Property: log recovery always salvages exactly the longest valid prefix.

For *any* generated log, *any* truncation offset and *any* single bit flip
past the magic header, :func:`repro.core.log.recover_log` must (a) never
raise, (b) return exactly the records of every frame that precedes the
damage -- computed here from ground-truth frame boundaries, not from the
reader under test -- and (c) report the byte offset where parsing stopped
whenever anything was lost.

The files are read-only ``VYRDLOG1`` logs from the suite's reference framer
(``write_vyrdlog1`` in ``conftest.py``); the chained format's oracles live
in ``test_props_chain.py``.
"""

import os
import struct
import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import (
    CallAction,
    CommitAction,
    Log,
    ReturnAction,
    WriteAction,
    recover_log,
)
from repro.core.log import LOG_MAGIC
from repro.faults import bitflip, tear

_HEADER = struct.Struct("<II")

history_strategy = st.lists(
    st.tuples(
        st.sampled_from(["set", "get"]),
        st.sampled_from(["r0", "r1"]),
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=12,
)


def _history_to_log(history) -> Log:
    actions = []
    for op_id, (op, reg, value) in enumerate(history):
        if op == "set":
            actions.append(CallAction(0, op_id, "set", (reg, value)))
            actions.append(WriteAction(0, op_id, reg, None, value))
            actions.append(CommitAction(0, op_id))
            actions.append(ReturnAction(0, op_id, "set", True))
        else:
            actions.append(CallAction(0, op_id, "get", (reg,)))
            actions.append(ReturnAction(0, op_id, "get", value))
    return Log(actions)


def _frame_boundaries(path) -> list:
    """Ground-truth end offsets of every frame, parsed independently."""
    boundaries = []
    with open(path, "rb") as handle:
        data = handle.read()
    assert data[: len(LOG_MAGIC)] == LOG_MAGIC
    cursor = len(LOG_MAGIC)
    while cursor < len(data):
        length, _crc = _HEADER.unpack_from(data, cursor)
        cursor += _HEADER.size + length
        boundaries.append(cursor)
    assert cursor == len(data)
    return boundaries


def _saved(history, write_vyrdlog1):
    log = _history_to_log(history)
    fd, path = tempfile.mkstemp(suffix=".vyrdlog")
    os.close(fd)
    write_vyrdlog1(path, log)
    return log, path


@given(history_strategy, st.data())
@settings(max_examples=80, deadline=None)
def test_truncation_salvages_longest_valid_prefix(write_vyrdlog1, history, data):
    log, path = _saved(history, write_vyrdlog1)
    try:
        size = os.path.getsize(path)
        boundaries = _frame_boundaries(path)
        offset = data.draw(st.integers(0, size), label="truncate_at")
        tear(path, offset)
        recovered = recover_log(path)  # must never raise
        if offset < len(LOG_MAGIC):
            # the magic header itself is torn: the file is no longer
            # identifiable as a framed log, so nothing can be vouched for --
            # only the no-raise/no-salvage guarantee applies
            assert len(recovered.log) == 0
            return
        expected = sum(1 for end in boundaries if end <= offset)
        assert len(recovered.log) == expected
        assert [repr(a) for a in recovered.log] == [
            repr(a) for a in list(log)[:expected]
        ]
        clean_boundaries = {len(LOG_MAGIC), *boundaries}
        if offset in clean_boundaries:
            # the tear landed exactly between frames: indistinguishable
            # from a shorter-but-complete log
            assert recovered.complete
        else:
            assert not recovered.complete
            assert recovered.error_offset is not None
            # parsing stopped at the last intact frame boundary
            intact = [len(LOG_MAGIC)] + [b for b in boundaries if b <= offset]
            assert recovered.error_offset == max(intact)
    finally:
        os.unlink(path)


@given(history_strategy, st.data())
@settings(max_examples=80, deadline=None)
def test_bitflip_salvages_frames_before_the_damage(write_vyrdlog1, history, data):
    log, path = _saved(history, write_vyrdlog1)
    try:
        size = os.path.getsize(path)
        boundaries = _frame_boundaries(path)
        # flip anywhere past the magic header (a flipped magic is a format
        # question, covered separately below)
        offset = data.draw(
            st.integers(len(LOG_MAGIC), size - 1), label="flip_at"
        )
        bit = data.draw(st.integers(0, 7), label="bit")
        bitflip(path, offset, bit)
        recovered = recover_log(path)  # must never raise
        # every frame strictly before the damaged one survives; nothing at
        # or after the damaged frame can be trusted
        expected = sum(1 for end in boundaries if end <= offset)
        assert len(recovered.log) == expected
        assert [repr(a) for a in recovered.log] == [
            repr(a) for a in list(log)[:expected]
        ]
        assert not recovered.complete
        assert recovered.error_offset is not None
        intact = [len(LOG_MAGIC)] + [b for b in boundaries if b <= offset]
        assert recovered.error_offset == max(intact)
    finally:
        os.unlink(path)


@given(history_strategy, st.integers(0, 7), st.data())
@settings(max_examples=20, deadline=None)
def test_damaged_magic_never_raises(write_vyrdlog1, history, bit, data):
    _log, path = _saved(history, write_vyrdlog1)
    try:
        offset = data.draw(st.integers(0, len(LOG_MAGIC) - 1), label="at")
        bitflip(path, offset, bit)
        recovered = recover_log(path)  # must never raise
        # an unidentifiable header salvages nothing it can vouch for
        assert recovered.total_bytes == os.path.getsize(path)
    finally:
        os.unlink(path)
