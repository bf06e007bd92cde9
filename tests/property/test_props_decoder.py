"""Properties of the in-place chained decoder (:class:`ChainDecoder`).

The decoder parses frames at offsets into the bytes one ``feed`` call
holds and keeps only a trailing partial frame for the next call, so how a
stream is split into chunks must not matter.  For a chained stream -- clean,
with one flipped byte, or truncated -- fed in arbitrary chunks (stopping
once the decoder refuses input), the triples, the error, ``consumed``,
``pending``, ``head_digest`` and the end-of-stream verdict equal those of
one feed of the same bytes; the triples, error, ``consumed`` and head also
equal those of one feed of the whole stream.  On clean files the three
readers (``load_log``, ``LogReader`` iteration and ``recover_log``) agree.
"""

import io

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import (
    AcquireAction,
    CallAction,
    CommitAction,
    LogReader,
    ReadAction,
    ReleaseAction,
    ReplayAction,
    ReturnAction,
    WriteAction,
    load_log,
    recover_log,
)
from repro.core.log import PROLOGUE_SIZE, ChainDecoder, LogFormatError, LogWriter

tids = st.integers(0, 3)
ops = st.one_of(st.none(), st.integers(0, 50))
locs = st.sampled_from(["x", "y", "A[0].elt", "blt.node"])
values = st.one_of(
    st.none(), st.integers(-5, 10**6), st.text(max_size=40),
    st.binary(max_size=300), st.tuples(st.integers(0, 9), st.text(max_size=5)),
)
methods = st.sampled_from(["insert", "lookup"])
action_strategy = st.one_of(
    st.builds(CallAction, tids, st.integers(0, 50), methods, st.tuples(values)),
    st.builds(ReturnAction, tids, st.integers(0, 50), methods, values),
    st.builds(CommitAction, tids, ops),
    st.builds(WriteAction, tids, ops, locs, values, values),
    st.builds(ReadAction, tids, ops, locs),
    st.builds(AcquireAction, tids, ops, st.sampled_from(["l", "rw"]),
              st.sampled_from(["x", "r", "w"])),
    st.builds(ReleaseAction, tids, ops, st.sampled_from(["l", "rw"]),
              st.sampled_from(["x", "r", "w"])),
    st.builds(ReplayAction, tids, ops, st.sampled_from(["bulk"]), values),
)
actions_strategy = st.lists(action_strategy, min_size=1, max_size=12)


def _stream(actions, shard_id):
    buffer = io.BytesIO()
    with LogWriter(buffer, shard_id=shard_id) as writer:
        writer.write_all(actions)
    return buffer.getvalue()


def _error(error):
    if error is None:
        return None
    return (type(error), error.cause, error.offset, error.record_index)


def _finish(decoder):
    try:
        decoder.finish()
    except LogFormatError as error:
        return _error(error)
    return None


def _state(decoder, frames):
    return {
        "frames": frames,
        "error": _error(decoder.error),
        "consumed": decoder.consumed,
        "pending": decoder.pending,
        "head": decoder.head_digest,
    }


def _damage(data, case, position):
    if case == "flip":
        damaged = bytearray(data)
        damaged[position] ^= 0x5A
        return bytes(damaged)
    if case == "truncate":
        return data[:position]
    return data


@given(actions_strategy, st.integers(0, 3),
       st.sampled_from(["clean", "flip", "truncate"]), st.data())
@settings(max_examples=150, deadline=None)
def test_any_chunking_decodes_like_one_feed(actions, shard_id, case, data):
    body = _stream(actions, shard_id)[PROLOGUE_SIZE:]
    position = data.draw(st.integers(0, len(body) - 1), label="position")
    body = _damage(body, case, position)
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(body)), max_size=12), label="cuts"
    ))
    chunks = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)])]

    chunked = ChainDecoder(shard_id, base_offset=PROLOGUE_SIZE)
    frames, fed = [], 0
    for chunk in chunks:
        if chunked.error is not None:
            break
        frames.extend(chunked.feed(chunk))
        fed += len(chunk)

    same_bytes = ChainDecoder(shard_id, base_offset=PROLOGUE_SIZE)
    assert _state(chunked, frames) == _state(same_bytes, same_bytes.feed(body[:fed]))
    assert _finish(chunked) == _finish(same_bytes)

    whole = ChainDecoder(shard_id, base_offset=PROLOGUE_SIZE)
    expected = _state(whole, whole.feed(body))
    got = _state(chunked, frames)
    for key in ("frames", "error", "consumed", "head"):
        assert got[key] == expected[key]
    if case == "clean":
        assert [action for _seq, action, _end in frames] == actions
        assert chunked.pending == 0 and chunked.error is None


@given(actions_strategy)
@settings(max_examples=60, deadline=None)
def test_readers_agree_on_clean_files(tmp_path_factory, actions):
    path = tmp_path_factory.mktemp("decoder") / "log.vlog"
    path.write_bytes(_stream(actions, 0))
    with LogReader(str(path)) as reader:
        iterated = list(reader)
    recovered = recover_log(str(path))
    assert recovered.complete
    assert list(load_log(str(path))) == iterated == list(recovered.log) == actions
