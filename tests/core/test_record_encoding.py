"""The record encoding: the exact payload bytes of each record type, the
extension codes that name the types, and files written before the codes.

Every frame payload, and so every frame, chain digest and
``log_signature``, is ``pickle.dumps(record, PAYLOAD_PROTOCOL)``.  The pins
below were identical on Python 3.9 through 3.13; a change to them is a
change to the log format.
"""

import copyreg
import hashlib
import json
import pickle
import zlib
from pathlib import Path

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
    ReadAction,
    ReleaseAction,
    ReplayAction,
    ReturnAction,
    SpawnAction,
    WriteAction,
    genesis_digest,
    load_log,
    log_signature,
    recover_log,
    save_log,
    verify_chain,
)
from repro.core.actions import EXTENSION_CODES
from repro.core.log import (
    _CHAIN_HEADER,
    _SHARD_PROLOGUE,
    LOG_MAGIC2,
    PAYLOAD_PROTOCOL,
    PROLOGUE_SIZE,
    ChainDecoder,
    LogFormatError,
    LogSigner,
)
from repro.harness import run_program
from repro.serve import (
    ObjectStoreStub,
    ServeSession,
    manifest_name,
    session_checkers,
    shard_name,
)
from repro.tools.cli import main

#: One record of each type, in declaration order, with its payload.
PINNED = (
    (CallAction(0, 1, "insert", (3, "x")),
     "8005951d0000000000000082f0284b004b018c06696e73657274944b038c0178"
     "948694749452942e"),
    (ReturnAction(0, 1, "insert", "success"),
     "8005951f0000000000000082f1284b004b018c06696e73657274948c07737563"
     "6365737394749452942e"),
    (CommitAction(1, None),
     "8005950a0000000000000082f24b014e869452942e"),
    (WriteAction(0, 1, "A[0].elt", None, 3),
     "8005951a0000000000000082f3284b004b018c08415b305d2e656c74944e4b03"
     "749452942e"),
    (BeginCommitBlockAction(0, 1),
     "8005950b0000000000000082f44b004b01869452942e"),
    (EndCommitBlockAction(0, 1),
     "8005950b0000000000000082f54b004b01869452942e"),
    (ReplayAction(2, 4, "tag", ("payload", -1, 2.5, True, b"\x00")),
     "800595320000000000000082f6284b024b048c0374616794288c077061796c6f"
     "6164944affffffff47400400000000000088430100947494749452942e"),
    (ReadAction(0, None, "A[1].valid"),
     "800595170000000000000082f74b004e8c0a415b315d2e76616c696494879452"
     "942e"),
    (AcquireAction(0, 1, "rw", "r"),
     "800595150000000000000082f8284b004b018c027277948c017294749452942e"),
    (ReleaseAction(0, 1, "lock"),
     "800595170000000000000082f9284b004b018c046c6f636b948c017894749452"
     "942e"),
    (SpawnAction(0, None, 3),
     "8005950c0000000000000082fa4b004e4b03879452942e"),
    (JoinAction(0, None, 3),
     "8005950c0000000000000082fb4b004e4b03879452942e"),
)

#: ``log_signature`` of the twelve pinned records, in order.
PINNED_SIGNATURE = (
    "69478bb2ad5a5d959069dae4a2788ed25d81fc0b98e1a4310b9ca6b92475cd44"
)

#: A log written before records had extension codes, by
#: ``vyrd run --program cache --threads 2 --calls 4 --seed 3 --races --save``:
#: 191 records whose payloads name their class by module and name.
LEGACY_LOG = Path(__file__).with_name("legacy_payloads.vlog")
LEGACY_RUN = dict(num_threads=2, calls_per_thread=4, seed=3, races="both")


def _payloads(path):
    """The frame payloads of a chained shard-0 file, in order."""
    data = Path(path).read_bytes()
    decoder = ChainDecoder(0, base_offset=PROLOGUE_SIZE)
    payloads = []
    decoder.feed(data[PROLOGUE_SIZE:], payloads)
    decoder.finish()
    return payloads


def _write_frames(path, payloads):
    """A chained shard-0 file of raw payloads, each with a valid CRC and
    chain digest: only the payload itself can be wrong."""
    prev = genesis_digest(0)
    parts = [LOG_MAGIC2 + _SHARD_PROLOGUE.pack(0)]
    for seq, payload in enumerate(payloads):
        frame = (
            _CHAIN_HEADER.pack(seq, len(payload), zlib.crc32(payload))
            + prev + payload
        )
        prev = hashlib.sha256(frame).digest()
        parts.append(frame)
    Path(path).write_bytes(b"".join(parts))


def test_each_record_type_has_its_pinned_payload(tmp_path):
    records = [record for record, _hex in PINNED]
    assert [type(r) for r in records] == list(EXTENSION_CODES)
    assert set(EXTENSION_CODES) == set(Action.__subclasses__())
    for record, hex_payload in PINNED:
        payload = pickle.dumps(record, PAYLOAD_PROTOCOL)
        assert payload.hex() == hex_payload, type(record).__name__
        assert pickle.loads(payload) == record
    path = tmp_path / "pinned.vlog"
    save_log(Log(records), path)
    assert [p.hex() for p in _payloads(path)] == [h for _r, h in PINNED]
    assert log_signature(records) == PINNED_SIGNATURE
    assert log_signature(load_log(path)) == PINNED_SIGNATURE


def test_payloads_name_record_types_by_extension_code():
    """Codes 240-251 in declaration order, each one two-byte ``EXT1``
    opcode in place of the module and class name."""
    assert list(EXTENSION_CODES.values()) == list(range(240, 252))
    for record, _hex in PINNED:
        payload = pickle.dumps(record, PAYLOAD_PROTOCOL)
        code = EXTENSION_CODES[type(record)]
        assert bytes((pickle.EXT1[0], code)) in payload
        assert b"repro" not in payload
        assert type(record).__name__.encode() not in payload
    # a second copy of the record module cannot take the codes over
    with pytest.raises(ValueError):
        copyreg.add_extension("elsewhere.actions", "CallAction", 240)


def test_unregistered_extension_code_is_a_typed_problem(tmp_path, capsys):
    """A payload naming a code no record type holds decodes to nothing:
    ``LogFormatError`` from a strict read, exit 2 from ``check``."""
    good = pickle.dumps(CallAction(0, 1, "insert", (3,)), PAYLOAD_PROTOCOL)
    bad = good.replace(bytes((pickle.EXT1[0], 240)), bytes((pickle.EXT1[0], 252)))
    assert bad != good
    path = tmp_path / "code252.vlog"
    _write_frames(path, [good, bad])
    with pytest.raises(LogFormatError) as caught:
        load_log(path)
    assert caught.value.cause.startswith("undecodable record payload")
    assert caught.value.record_index == 1
    code = main(["check", str(path), "--program", "multiset-vector", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    assert payload["error_type"] == "LogFormatError"
    assert "Traceback" not in captured.err


def test_files_written_before_extension_codes_still_read():
    """Class-named payloads decode through the same ``pickle.loads`` call:
    every reader takes them, and they hold the records a fresh run writes
    today, in other bytes."""
    log = load_log(LEGACY_LOG)
    assert len(log) == 191
    with LogReader(str(LEGACY_LOG)) as reader:
        assert list(reader) == list(log)
    recovered = recover_log(str(LEGACY_LOG))
    assert recovered.complete and recovered.records == 191
    report = verify_chain(str(LEGACY_LOG))
    assert report.ok and report.chained and report.records == 191

    fresh = run_program("cache", **LEGACY_RUN).log
    assert list(fresh) == list(log)
    old_payloads = _payloads(LEGACY_LOG)
    assert all(b"repro.core.actions" in p for p in old_payloads)
    new_payloads = [pickle.dumps(a, PAYLOAD_PROTOCOL) for a in fresh]
    assert all(new != old for new, old in zip(new_payloads, old_payloads))
    # a signature over the file's own payloads is not comparable with one
    # over today's: the serve merge signs such frames' records pickled again
    signed = LogSigner()
    signed.add(old_payloads)
    assert signed.hexdigest() != log_signature(fresh) == log_signature(log)
    resigned = LogSigner()
    resigned.add_frames(zip(range(len(log)), log, old_payloads))
    assert resigned.hexdigest() == log_signature(log)


def test_serving_a_shard_written_before_extension_codes():
    """A served session over such a shard (a daemon resumed over shards
    its producer wrote before the codes) reports the signature of its
    records, the one a direct run of today computes."""
    store = ObjectStoreStub()
    store.put_bytes(shard_name("old", 0), LEGACY_LOG.read_bytes())
    report = verify_chain(str(LEGACY_LOG))
    store.put_json(manifest_name("old"), {
        "session": "old",
        "records": report.records,
        "shards": [{"shard": 0, "name": shard_name("old", 0),
                    "records": report.records,
                    "last_seq": report.records - 1,
                    "head_digest": report.head_digest}],
    })
    checker_factory, race_factory = session_checkers("cache", races="both")
    result = ServeSession(
        store, "old", 1, checker_factory=checker_factory,
        race_checker_factory=race_factory,
    ).run()
    assert result.ok and result.complete and result.chain_ok
    assert result.records == 191
    direct = run_program("cache", **LEGACY_RUN).log
    assert result.signature == log_signature(direct)


def test_check_both_agrees_on_a_file_written_before_extension_codes(capsys):
    code = main(["check", str(LEGACY_LOG), "--program", "cache",
                 "--mode", "both", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True and payload["agree"] is True
    assert payload["refinement"]["actions_processed"] == 191
