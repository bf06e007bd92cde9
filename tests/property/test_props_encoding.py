"""The record payload encoder equals ``pickle.dumps`` byte for byte.

:func:`~repro.core.log.record_payload` builds a record's payload from the
pickle of its field tuple instead of pickling the record, so every frame,
chain digest and signature rests on one claim: for any record of the twelve
types, with any field values, its bytes are ``pickle.dumps(record,
PAYLOAD_PROTOCOL)``.  The values cover what the pickler treats apart --
ints of any size, None, bools, floats, non-ASCII text, bytes, tuples,
frozensets, shared and nested records -- and str and bytes on both sides of
the pickler's 64 KiB frame target, where the encoder must fall back.  A
subclass of a record type has no extension code and falls back too, and a
value that cannot be pickled fails both ways with one exception type.

Frozenset and str payloads pickle in hash order, so CI runs this module
under two hash seeds.
"""

import pickle
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    AcquireAction,
    BeginCommitBlockAction,
    CallAction,
    CommitAction,
    EndCommitBlockAction,
    JoinAction,
    ReadAction,
    ReleaseAction,
    ReplayAction,
    ReturnAction,
    SpawnAction,
    WriteAction,
)
from repro.core.log import PAYLOAD_PROTOCOL, record_payload


class TracedWrite(WriteAction):
    """A record subclass: no extension code of its own."""

    __slots__ = ()


#: Sizes around the pickler's 64 KiB frame target.
near_frame_target = st.integers((64 << 10) - 48, (64 << 10) + 48)

ints = st.one_of(st.integers(), st.integers(-(2 ** 200), 2 ** 200))
text = st.one_of(
    st.text(max_size=30),
    st.text(st.characters(min_codepoint=0x80), max_size=30),
)
scalars = st.one_of(
    st.none(), st.booleans(), ints, st.floats(), text, st.binary(max_size=60),
)
large = st.one_of(
    near_frame_target.map(lambda n: b"b" * n),
    near_frame_target.map(lambda n: "s" * n),
    near_frame_target.map(lambda n: "é" * (n // 2)),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(st.one_of(ints, text, st.binary(max_size=8)), max_size=5),
    ),
    max_leaves=12,
)
tids = ints
ops = st.one_of(st.none(), ints)
names = text


def _records(value):
    """A strategy over records of all twelve types with field values drawn
    from ``value``."""
    return st.one_of(
        st.builds(CallAction, tids, ints, names, st.lists(value, max_size=3).map(tuple)),
        st.builds(ReturnAction, tids, ints, names, value),
        st.builds(CommitAction, tids, ops),
        st.builds(WriteAction, tids, ops, names, value, value),
        st.builds(BeginCommitBlockAction, tids, ops),
        st.builds(EndCommitBlockAction, tids, ops),
        st.builds(ReplayAction, tids, ops, names, value),
        st.builds(ReadAction, tids, ops, names),
        st.builds(AcquireAction, tids, ops, names, names),
        st.builds(ReleaseAction, tids, ops, names, names),
        st.builds(SpawnAction, tids, ops, ints),
        st.builds(JoinAction, tids, ops, ints),
    )


flat_records = _records(values)
#: Records nested in a replay payload, alone, shared or beside other values.
nested = st.one_of(
    flat_records,
    st.tuples(flat_records, values),
    flat_records.map(lambda record: (record, record)),
)
records = st.one_of(
    flat_records,
    st.builds(ReplayAction, tids, ops, names, nested),
    _records(large),
    st.builds(TracedWrite, tids, ops, names, values, values),
)


@given(records)
@settings(max_examples=400, deadline=None)
def test_payload_is_pickle_dumps(record):
    assert record_payload(record) == pickle.dumps(record, PAYLOAD_PROTOCOL)


@given(near_frame_target, st.sampled_from(["bytes", "str", "non-ascii"]))
@settings(max_examples=60, deadline=None)
def test_payload_is_pickle_dumps_across_the_frame_target(size, kind):
    """Every size near 64 KiB, in a record of each field count."""
    value = {"bytes": b"b" * size, "str": "s" * size,
             "non-ascii": "é" * (size // 2)}[kind]
    for record in (ReplayAction(0, 1, "t", value),
                   WriteAction(0, None, "x", None, value),
                   CallAction(1, 2, "m", (value,)),
                   ReadAction(0, 1, value)):
        assert record_payload(record) == pickle.dumps(record, PAYLOAD_PROTOCOL)


def _raised(encode, record):
    try:
        encode(record)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("value", [
    lambda: None,
    threading.Lock(),
    (1, ("nested", pickle)),
    (x for x in ()),
], ids=["lambda", "lock", "nested-module", "generator"])
def test_unpicklable_value_raises_the_same_type(value):
    for record in (ReplayAction(0, 1, "t", value),
                   WriteAction(0, 1, "x", None, value),
                   TracedWrite(0, 1, "x", value, None),
                   ReplayAction(0, 1, "t", (WriteAction(0, 1, "x", 1, value),))):
        raised = _raised(record_payload, record)
        assert raised is not None
        assert raised is _raised(
            lambda r: pickle.dumps(r, PAYLOAD_PROTOCOL), record
        )
