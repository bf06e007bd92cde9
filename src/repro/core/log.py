"""The VYRD log: an append-only action sequence with optional file backing.

The paper's architecture (section 4.2) decouples the instrumented
implementation from the verification thread through a log: "In practice, the
log is a file whose tail is kept in memory for faster access."  This module
provides:

* :class:`Log` -- the in-memory append-only sequence.  Implementation
  threads append through the tracer; the verifier reads by index, so an
  online verifier simply keeps a cursor into the same object (the "tail kept
  in memory").  Tail reads (:meth:`Log.since`) return a :class:`LogView`, a
  copy-free bounded window over the shared storage.
* :class:`LogWriter` / :class:`LogReader` -- streaming pickle serialization
  to a file, standing in for the paper's .NET binary object serialization
  (section 6.1): records round-trip as they were saved at runtime.  Every
  log is written in one format, the *tamper-evident* chained ``VYRDLOG2``:
  a magic and shard-id prologue, then one frame per record carrying its
  global sequence number, a CRC32 of its pickled payload and the SHA-256
  digest of the previous frame, genesis-seeded per shard (a single-process
  log is shard 0).  A torn or bit-flipped tail is detectable record by
  record instead of poisoning the whole stream, and the hash chain catches
  *deliberate* splice/reorder/rewrite tampering (threat T1 of the related
  work's threat model) because a forged record cannot produce the digest
  the next record already committed to.  The reader also accepts the
  CRC-framed ``VYRDLOG1`` files older sessions wrote; nothing writes that
  format any more.  :func:`read_prologue` is the one parser of a file's
  opening bytes, for readers, live shard tails and salvage alike.
* :exc:`LogFormatError` / :func:`recover_log` -- typed corruption reporting
  (byte offset, record index, cause) and best-effort salvage: long
  instrumented runs die mid-write (killed workers, full disks), and the
  valid prefix of their log is still a checkable trace.  On a chained file
  the salvage is exactly the longest *chain-valid* prefix.
* :func:`verify_chain` walks a file and reports the first break.  Clean
  truncation at a frame boundary is invisible to the chain itself -- pass
  the shard's expected head digest (recorded out-of-band, e.g. in a shard
  manifest) to close that hole.
* ``sync=True`` adds durability: :meth:`LogWriter.flush` then pushes
  buffered frames through ``fsync``, so a record is never *acknowledged*
  (flush returned) and then lost to a process crash.
* :func:`log_signature` / :class:`LogSigner` -- the canonical signature of
  a record sequence, the identity gate between runs.
* :func:`validate_well_formed` -- the well-formedness conditions of paper
  section 3.2 (per-thread call/return nesting discipline) plus the
  instrumentation obligations of section 4.1 (exactly one commit action per
  mutator execution path).
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Tuple

from .actions import (
    EXTENSION_CODES,
    AcquireAction,
    Action,
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
    _field_values,
    subclass_entry,
)


class Log:
    """Append-only in-memory sequence of :class:`Action` records.

    The record's position is its global sequence number.  Appends happen only
    from kernel callbacks (one real OS thread), so no locking is required;
    the atomicity requirement of section 4.2 -- each logged action performed
    atomically with its log update -- is provided by the kernel.
    """

    __slots__ = ("_records",)

    def __init__(self, records: Optional[Iterable[Action]] = None):
        self._records: List[Action] = list(records) if records is not None else []

    def append(self, action: Action) -> int:
        """Append and return the record's sequence number."""
        self._records.append(action)
        return len(self._records) - 1

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def __iter__(self) -> Iterator[Action]:
        return iter(self._records)

    def since(self, cursor: int) -> "LogView":
        """Records appended at or after ``cursor`` (online verifier tail read).

        Returns a :class:`LogView` -- an index-bounded window over the
        underlying storage, not a copy.  The online verifier polls the tail
        on every scheduling slot it gets; copying the tail list each time
        made long-log online checking quadratic in log length.  The view is
        a snapshot: records appended after the call fall outside its bounds.
        """
        return LogView(self._records, cursor, len(self._records))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Log {len(self._records)} records>"


class LogView(Sequence):
    """A cheap, bounded window over a log's record storage (no copying).

    Behaves like a read-only list of the records in ``[start, stop)``:
    iteration, indexing (including negative indices and slices) and equality
    against any sequence all work, but construction is O(1) regardless of
    window size.  ``stop`` is fixed at creation, so the view is a stable
    snapshot even while the underlying log keeps growing; online checkers
    advance their cursor to :attr:`stop` after consuming a view.
    """

    __slots__ = ("_records", "start", "stop")

    def __init__(self, records: List[Action], start: int, stop: int):
        length = len(records)
        self.start = min(max(0, start), length)
        self.stop = min(max(self.start, stop), length)
        self._records = records

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                self._records[self.start + i]
                for i in range(*index.indices(len(self)))
            ]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("LogView index out of range")
        return self._records[self.start + index]

    def __iter__(self) -> Iterator[Action]:
        records = self._records
        for i in range(self.start, self.stop):
            yield records[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, LogView)):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))

    __hash__ = None  # mutable underlying storage

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LogView [{self.start}:{self.stop}]>"


#: Magic prefix of the CRC-framed format (format version 1).  Read only:
#: :class:`LogWriter` writes version 2, the reader still loads version 1.
LOG_MAGIC = b"VYRDLOG1"

#: Magic prefix of the tamper-evident chained format (format version 2),
#: the one format :class:`LogWriter` writes.
LOG_MAGIC2 = b"VYRDLOG2"

#: Version-1 frame header: little-endian payload length + CRC32 of payload.
_FRAME_HEADER = struct.Struct("<II")

#: Chained frame header: global sequence number, payload length, payload
#: CRC32.  Followed by the 32-byte SHA-256 digest of the previous frame and
#: then the payload; a frame's own digest covers header + prev-digest +
#: payload, so seq, framing and payload are all under the chain.
_CHAIN_HEADER = struct.Struct("<QII")

#: Chained-file prologue after the magic: the shard id seeding the genesis.
_SHARD_PROLOGUE = struct.Struct("<Q")

_DIGEST_SIZE = 32

#: Bytes before the first frame of a chained file: magic + shard id.
PROLOGUE_SIZE = len(LOG_MAGIC2) + _SHARD_PROLOGUE.size

#: Bytes of a chained frame before its payload: header + previous digest.
FRAME_FIXED = _CHAIN_HEADER.size + _DIGEST_SIZE

#: The pickle protocol of every record payload, and so of every frame and
#: signature: a fixed number, not ``pickle.HIGHEST_PROTOCOL``, so a Python
#: that adds a protocol does not change them.
PAYLOAD_PROTOCOL = 5

#: Bytes of a payload before its frame's body: ``PROTO 5``, then ``FRAME``
#: and its 8-byte length.
_PICKLE_HEAD = 11

#: What :func:`record_payload` writes around a field tuple's pickle body:
#: the protocol and frame opcodes before the frame length, and after the
#: body the ``REDUCE`` that calls the class, its ``MEMOIZE`` and ``STOP``.
_PAYLOAD_OPEN = pickle.PROTO + bytes((PAYLOAD_PROTOCOL,)) + pickle.FRAME
_PAYLOAD_CLOSE = pickle.REDUCE + pickle.MEMOIZE + pickle.STOP
_FRAME_LENGTH = struct.Struct("<Q").pack

#: Per record type, the ``EXT1`` opcode naming it and the getter of its field
#: values (the tuple ``Action.__reduce__`` returns).
_PAYLOAD_PARTS = {
    cls: (pickle.EXT1 + bytes((code,)), _field_values(cls))
    for cls, code in EXTENSION_CODES.items()
}

#: The pickler commits a frame once it holds this many bytes, and writes a
#: str or bytes this long or longer outside any frame.  A payload whose
#: frame stays shorter is one frame with every value inside it.
_FRAME_TARGET = 64 << 10

#: :func:`log_signature`'s framing: each record's byte length, then the count.
_SIGNED_LENGTH = struct.Struct("<I")
_SIGNED_COUNT = struct.Struct("<Q")

#: Where a payload holds the ``EXT1`` opcode naming its record type: after
#: the protocol (2 bytes) and frame (9 bytes) headers.  A payload written
#: before records had extension codes names its class's module there.
_TYPE_OPCODE = slice(_PICKLE_HEAD, _PICKLE_HEAD + 1)


def record_payload(action) -> bytes:
    """A record's frame payload: exactly ``pickle.dumps(action,
    PAYLOAD_PROTOCOL)``, built without pickling the class.

    To save a class, the pickler imports its module and looks the class up
    before it consults the extension table, and that costs more than
    pickling a record's fields.  A record of one of the twelve types instead
    pickles its field tuple and splices the tuple's body between
    ``PROTO 5, FRAME n+4, EXT1 <code>`` and ``REDUCE, MEMOIZE, STOP``: the
    bytes the pickler writes itself, since an extension-coded class takes
    no memo slot.  Anything else -- a subclass, a value that is not a
    record, a record whose frame would reach the pickler's 64 KiB frame
    target -- goes through ``pickle.dumps``.
    """
    parts = _PAYLOAD_PARTS.get(type(action))
    if parts is None:
        return pickle.dumps(action, PAYLOAD_PROTOCOL)
    ext, field_values = parts
    fields = pickle.dumps(field_values(action), PAYLOAD_PROTOCOL)
    # the record's frame: the tuple's without its STOP, plus the two bytes
    # of EXT1 <code> and the three of REDUCE, MEMOIZE, STOP
    length = len(fields) - _PICKLE_HEAD + 4
    if length >= _FRAME_TARGET:
        return pickle.dumps(action, PAYLOAD_PROTOCOL)
    return b"".join((_PAYLOAD_OPEN, _FRAME_LENGTH(length), ext,
                     fields[_PICKLE_HEAD:-1], _PAYLOAD_CLOSE))


def genesis_digest(shard_id: int) -> bytes:
    """The per-shard seed of the hash chain (digest "before" record 0).

    Seeding with the shard id means a frame spliced in from *another* shard
    breaks the chain even at position 0.
    """
    return hashlib.sha256(
        LOG_MAGIC2 + b":genesis:" + _SHARD_PROLOGUE.pack(shard_id)
    ).digest()


def read_prologue(head: bytes, shard_id: Optional[int] = None
                  ) -> Tuple[Optional[int], int]:
    """Parse the bytes a log file opens with (at least
    :data:`PROLOGUE_SIZE` of them, when the file has that many).

    Returns ``(shard, start)``: the shard id of a chained file (None for a
    ``VYRDLOG1`` file) and the offset of its first frame.  ``shard_id``
    demands a chained prologue of exactly that shard.  Anything else raises
    :exc:`LogFormatError`: nothing after an unidentifiable prologue can be
    trusted.
    """
    if head.startswith(LOG_MAGIC2):
        if len(head) < PROLOGUE_SIZE:
            raise LogFormatError("truncated shard prologue", len(LOG_MAGIC2), 0)
        (shard,) = _SHARD_PROLOGUE.unpack_from(head, len(LOG_MAGIC2))
        if shard_id is not None and shard != shard_id:
            raise LogFormatError(
                f"shard id mismatch (file says {shard}, expected {shard_id})",
                len(LOG_MAGIC2), 0,
            )
        return shard, PROLOGUE_SIZE
    if shard_id is None and head.startswith(LOG_MAGIC):
        return None, len(LOG_MAGIC)
    expected = "VYRDLOG2" if shard_id is not None else "VYRDLOG2 or VYRDLOG1"
    raise LogFormatError(
        f"unrecognized log prologue (no {expected} magic)", 0, 0
    )


#: Causes :func:`_decode` gives a frame whose bytes are as written (its CRC,
#: and in a chained file its digest, verify) but whose payload is not a log
#: action.
_BAD_RECORD_CAUSES = ("undecodable record payload", "decoded object is not a log action")


def _undecodable(exc: Exception, offset: int, index: int) -> "LogFormatError":
    error = LogFormatError(f"{_BAD_RECORD_CAUSES[0]}: {exc}", offset, index)
    error.__cause__ = exc
    return error


def _not_an_action(value, offset: int, index: int) -> "LogFormatError":
    return LogFormatError(
        f"{_BAD_RECORD_CAUSES[1]} ({type(value).__name__})", offset, index,
    )


def _decode(payload: bytes, offset: int, index: int) -> Action:
    """Unpickle one frame's payload; anything but a log action is damage."""
    try:
        action = pickle.loads(payload)
    except Exception as exc:
        raise _undecodable(exc, offset, index) from exc
    if not isinstance(action, Action):
        raise _not_an_action(action, offset, index)
    return action


class ChainDecoder:
    """Incremental frame decoder/verifier for the chained format.

    Feed it byte slices of a chained stream (everything *after* the
    magic + shard-id prologue, in order) and it yields ``(seq, action)``
    pairs for every complete, CRC-valid, chain-valid frame, buffering any
    trailing partial frame until more bytes arrive.  This is the one parser
    for ``VYRDLOG2`` frames: :class:`LogReader` drives it from a file,
    :class:`repro.serve.shard.ShardTail` drives it from ranged store reads
    while a producer is still appending.

    Frames are parsed in place, at offsets into the bytes one ``feed``
    call holds: the CRC, the digest and the unpickler each see a slice of
    them, and only the trailing partial frame is kept for the next call.

    The first bad frame does not raise mid-parse -- frames decoded earlier
    in the same ``feed`` call are still returned (recovery must salvage
    them) and the typed :exc:`LogFormatError` parks on :attr:`error`, after
    which the decoder refuses further input.  ``offset``/``index`` inside
    the error are absolute (``base_offset`` positions the decoder in the
    file).
    """

    __slots__ = ("_prev", "_pending", "offset", "index", "consumed", "error")

    def __init__(self, shard_id: int = 0, base_offset: int = 0,
                 prev_digest: Optional[bytes] = None):
        self._prev = prev_digest if prev_digest is not None else genesis_digest(shard_id)
        #: Bytes from the first frame not yet decoded: a partial frame, or
        #: after an error the bad frame and everything fed after it.
        self._pending = b""
        #: Absolute byte offset of the first unconsumed frame.
        self.offset = base_offset
        #: Index of the next record to decode.
        self.index = 0
        #: Absolute offset up to which the stream decoded cleanly.
        self.consumed = base_offset
        #: The first :exc:`LogFormatError`, once the stream went bad.
        self.error: Optional["LogFormatError"] = None

    @property
    def head_digest(self) -> str:
        """Hex digest of the last decoded frame (chain head so far)."""
        return self._prev.hex()

    @property
    def pending(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._pending)

    @property
    def pending_bytes(self) -> bytes:
        """The buffered bytes themselves (``pending`` of them)."""
        return self._pending

    def feed(self, data: bytes, payloads: Optional[List[bytes]] = None
             ) -> List[Tuple[int, Action, int]]:
        """Decode complete frames in ``buffered + data``.

        Returns ``(seq, action, end_offset)`` triples up to (not including)
        the first bad frame; check :attr:`error` after every call.  When a
        ``payloads`` list is given, each returned frame's payload (its
        pickled record exactly as written) is appended to it, in order.
        """
        if self.error is not None:
            return []
        if self._pending:
            data = self._pending + data
        elif type(data) is not bytes:
            data = bytes(data)
        out: List[Tuple[int, Action, int]] = []
        size = len(data)
        view = memoryview(data)  # the digest reads a frame without a copy
        base = self.offset  # absolute offset of data[0]
        index = self.index
        prev = self._prev
        pos = 0
        unpack, fixed = _CHAIN_HEADER.unpack_from, FRAME_FIXED
        digest_at = _CHAIN_HEADER.size  # where the previous frame's digest sits
        crc32, sha256, loads = zlib.crc32, hashlib.sha256, pickle.loads
        while size - pos >= fixed:
            seq, length, crc = unpack(data, pos)
            start = pos + fixed
            end = start + length
            if end > size:
                break
            if not data.startswith(prev, pos + digest_at):
                self.error = LogFormatError(
                    "chain digest mismatch (spliced, reordered or rewritten "
                    "record)", base + pos, index,
                )
                break
            payload = data[start:end]
            if crc32(payload) != crc:
                self.error = LogFormatError("CRC mismatch", base + pos, index)
                break
            try:
                action = loads(payload)
            except Exception as exc:
                self.error = _undecodable(exc, base + pos, index)
                break
            if not isinstance(action, Action):
                self.error = _not_an_action(action, base + pos, index)
                break
            prev = sha256(view[pos:end]).digest()
            pos = end
            index += 1
            out.append((seq, action, base + end))
            if payloads is not None:
                payloads.append(payload)
        self._prev = prev
        self.index = index
        self.offset = self.consumed = base + pos
        self._pending = data[pos:] if pos < size else b""
        return out

    def discard_pending(self) -> int:
        """Drop any buffered partial frame; return the bytes discarded.

        A tailing reader that has reached the durable end of a growing
        shard must not carry a half-frame across polls: if the producer
        dies there, the supervisor salvages the shard by truncating it to
        the chain-valid prefix -- exactly the decoder's ``consumed``
        boundary -- and the restarted producer appends fresh frames from
        that boundary.  A reader holding stale partial bytes would then
        splice old garbage into the new frames.  Dropping the pending tail
        (and re-reading it next poll if it was real) keeps the reader's
        file offset pinned to a frame boundary at all times.
        """
        dropped = len(self._pending)
        self._pending = b""
        self.offset = self.consumed
        return dropped

    def finish(self) -> None:
        """Declare end-of-stream; raise the parked error or report a torn
        tail (a buffered partial frame)."""
        if self.error is not None:
            raise self.error
        if self._pending:
            raise LogFormatError(
                f"truncated chained frame ({len(self._pending)} trailing "
                f"byte(s))", self.offset, self.index,
            )


class LogFormatError(Exception):
    """A saved log stream is truncated or corrupted.

    Raised by :class:`LogReader` / :func:`load_log` instead of the raw
    :exc:`pickle.UnpicklingError` (or a silent short read) the underlying
    decode produces.  Carries enough context to diagnose and to re-read the
    salvageable prefix with :func:`recover_log`:

    Attributes
    ----------
    offset:
        Byte offset of the first bad frame (the position where the record
        *starts*, not where decoding noticed the damage).
    record_index:
        Index of the first unreadable record; records ``[0, record_index)``
        decoded cleanly.
    cause:
        Short description of what was wrong ("truncated frame header",
        "CRC mismatch", ...); the original exception, when there was one,
        is chained as ``__cause__``.
    """

    def __init__(self, cause: str, offset: int, record_index: int):
        self.cause = cause
        self.offset = offset
        self.record_index = record_index
        super().__init__(
            f"corrupt log stream at byte {offset} (record {record_index}): {cause}"
        )


class LogWriter:
    """Stream actions to a chained (``VYRDLOG2``) file, one frame per record.

    Can wrap an open binary file object or a path.  Use as a context manager
    or call :meth:`close` explicitly.

    The stream opens with :data:`LOG_MAGIC2` and ``shard_id`` (a
    single-process log is shard 0).  Every record is one frame: its global
    sequence number (``write(action, seq=...)``, the record's index when
    omitted), the length and CRC32 of its pickled payload, and the SHA-256
    digest of the previous frame, genesis-seeded from ``shard_id``.  A
    reader can tell a clean end-of-log from a torn tail, :func:`recover_log`
    salvages everything before the first bad byte, and a splice, reorder or
    rewrite breaks the chain.  ``chained`` accepts only True: the
    ``VYRDLOG1`` format is read-only.

    Each payload is :func:`record_payload` of its record, equal to
    ``pickle.dumps(action, PAYLOAD_PROTOCOL)``: a self-contained pickle that
    any frame boundary can decode, naming its record type by extension code
    (:data:`~repro.core.actions.EXTENSION_CODES`), and the very bytes
    :func:`log_signature` hashes for the record.

    ``sync=True`` makes :meth:`flush` an *acknowledgment point*: buffered
    frames are flushed and ``fsync``-ed, so records written before a flush
    survive any subsequent process crash.  Writes themselves stay buffered
    -- batch a group of frames, then flush once -- which is how the
    streaming shard writers amortize the fsync cost.
    """

    def __init__(self, target, *, chained: bool = True, shard_id: int = 0,
                 sync: bool = False, resume_digest: Optional[bytes] = None):
        if not chained:
            raise ValueError("LogWriter writes chained VYRDLOG2 logs only")
        if hasattr(target, "write"):
            self._file: IO[bytes] = target
            self._owns = False
        else:
            self._file = open(target, "wb")
            self._owns = True
        self._sync = sync
        self.shard_id = shard_id
        self.records_written = 0
        self._next_seq = 0
        if resume_digest is not None:
            # Continuing an existing shard after a crash: the file already
            # carries its prologue and a chain-valid prefix whose head is
            # ``resume_digest``; new frames extend that chain so the
            # finished file is byte-identical to one written by an
            # uninterrupted producer.
            self._prev_digest = resume_digest
        else:
            self._prev_digest = genesis_digest(shard_id)
            self._file.write(LOG_MAGIC2 + _SHARD_PROLOGUE.pack(shard_id))

    @property
    def head_digest(self) -> str:
        """Hex digest of the last frame written.

        Record it out-of-band (shard manifest) and hand it to
        :func:`verify_chain` to make clean tail truncation detectable.
        """
        return self._prev_digest.hex()

    def write(self, action: Action, seq: Optional[int] = None) -> None:
        payload = record_payload(action)
        if seq is None:
            seq = self._next_seq
        self._next_seq = seq + 1
        frame = (
            _CHAIN_HEADER.pack(seq, len(payload), zlib.crc32(payload))
            + self._prev_digest
            + payload
        )
        self._prev_digest = hashlib.sha256(frame).digest()
        # The whole frame goes out in one write: an interrupted append then
        # tears at most the final frame, which recover_log drops cleanly.
        self._file.write(frame)
        self.records_written += 1

    def write_all(self, actions: Iterable[Action]) -> None:
        for action in actions:
            self.write(action)

    def flush(self) -> None:
        """Push buffered frames to the OS -- and, with ``sync=True``, to the
        device.  Once flush returns, every record written so far is
        *acknowledged*: a crash of this process cannot lose it."""
        self._file.flush()
        if self._sync:
            try:
                fd = self._file.fileno()
            except (AttributeError, OSError, io.UnsupportedOperation, ValueError):
                return  # in-memory target (object-store stub): nothing to sync
            os.fsync(fd)

    def close(self) -> None:
        if not self._file.closed:
            self.flush()
        if self._owns:
            self._file.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LogReader:
    """Iterate actions back out of a log file.

    The prologue (:func:`read_prologue`) picks the decoder: a
    :data:`LOG_MAGIC2` stream is decoded with CRC *and* hash-chain
    verification (a chain break raises :exc:`LogFormatError` exactly like a
    CRC failure, so recovery semantics extend to tampering); a
    :data:`LOG_MAGIC` stream, the read-only format of older sessions, is
    decoded frame by frame with CRC validation.  Any other prologue raises
    :exc:`LogFormatError` at its first byte on iteration.

    Truncated or corrupted streams raise :exc:`LogFormatError` with the byte
    offset and index of the first bad record -- never a bare
    :exc:`pickle.UnpicklingError`, and never a silent early stop.  Use
    :func:`recover_log` to read the valid prefix of a damaged file instead.

    A stream-persistent :class:`pickle.Unpickler` cannot be used here: the
    C unpickler's MEMOIZE counter keeps counting across ``load()`` calls and
    ignores ``memo`` reassignment, so GET opcodes in the second frame (whose
    indices restart at zero) would resolve against the first frame's
    entries -- silent payload corruption, or ``Memo value not found``.  One
    unpickler per record is the only correct reader for restarting-memo
    frames, and the allocation is cheap next to the decode itself.
    """

    def __init__(self, target):
        if hasattr(target, "read"):
            self._file: IO[bytes] = target
            self._owns = False
        else:
            self._file = open(target, "rb")
            self._owns = True
        start = self._file.tell()
        head = self._file.read(PROLOGUE_SIZE)
        self._size = self._file.seek(0, io.SEEK_END)
        self._decoder: Optional[ChainDecoder] = None
        self._error: Optional[LogFormatError] = None
        # shard_id: the chained file's shard; None for ``VYRDLOG1``.  A bad
        # prologue parks its error for the first read to raise.
        try:
            self.shard_id, skip = read_prologue(head)
        except LogFormatError as error:
            self.shard_id, skip = None, 0
            self._error = LogFormatError(error.cause, start + error.offset, 0)
        self._data_start = start + skip
        self._file.seek(self._data_start)

    @property
    def chained(self) -> bool:
        return self.shard_id is not None

    @property
    def head_digest(self) -> Optional[str]:
        """Chain head after iteration (None for unchained formats)."""
        if self._decoder is None:
            return None
        return self._decoder.head_digest

    def __iter__(self) -> Iterator[Action]:
        for action, _end in self._records():
            yield action

    def _records(self) -> Iterator[tuple]:
        """Yield ``(action, end_offset)`` pairs; raise :exc:`LogFormatError`
        at the first bad frame."""
        if self._error is not None:
            raise self._error
        if self.shard_id is None:
            yield from self._framed_records()
            return
        for frames in self._chained_frames():
            for _seq, action, end in frames:
                yield action, end

    def _chained_frames(self) -> Iterator[List[Tuple[int, Action, int]]]:
        """Yield the decoder's ``(seq, action, end_offset)`` triples one
        file chunk at a time; raise :exc:`LogFormatError` after the frames
        before the first bad one."""
        self._decoder = decoder = ChainDecoder(
            self.shard_id, base_offset=self._data_start
        )
        file = self._file
        while True:
            # reading at least what the decoder holds doubles the reads
            # through a frame longer than a chunk: copying stays linear
            data = file.read(max(1 << 20, decoder.pending))
            frames = decoder.feed(data)
            if frames:
                yield frames
            if decoder.error is not None:
                raise decoder.error
            if not data:
                decoder.finish()
                return

    def _framed_records(self) -> Iterator[tuple]:
        file = self._file
        index = 0
        while True:
            offset = file.tell()
            header = file.read(_FRAME_HEADER.size)
            if not header:
                return
            if len(header) < _FRAME_HEADER.size:
                raise LogFormatError("truncated frame header", offset, index)
            length, crc = _FRAME_HEADER.unpack(header)
            payload = file.read(length)
            if len(payload) < length:
                raise LogFormatError(
                    f"truncated frame payload ({len(payload)} of {length} bytes)",
                    offset, index,
                )
            if zlib.crc32(payload) != crc:
                raise LogFormatError("CRC mismatch", offset, index)
            yield _decode(payload, offset, index), file.tell()
            index += 1

    def read_log(self) -> Log:
        """Materialize the whole file as an in-memory :class:`Log`."""
        if self._error is not None or self.shard_id is None:
            return Log(iter(self))
        actions: List[Action] = []
        for frames in self._chained_frames():
            actions.extend([action for _seq, action, _end in frames])
        return Log(actions)

    def close(self) -> None:
        if self._owns:
            self._file.close()

    def __enter__(self) -> "LogReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class RecoveredLog:
    """Result of a best-effort :func:`recover_log` salvage.

    ``log`` holds the longest valid record prefix.  When the stream was
    damaged, ``error_offset``/``error_record``/``cause`` describe the first
    bad frame exactly as the :exc:`LogFormatError` from a strict read would;
    a clean stream leaves them ``None``.  A chained (``VYRDLOG2``) file
    carries its ``shard_id``; its prefix is the longest *chain-valid* one
    (everything after a splice/reorder/rewrite point is rejected even if its
    CRCs check out), and ``head_digest`` is the chain head over the salvaged
    records (compare against a manifest to detect clean tail truncation).
    """

    log: Log
    valid_bytes: int
    total_bytes: int
    error_offset: Optional[int] = None
    error_record: Optional[int] = None
    cause: Optional[str] = None
    shard_id: Optional[int] = None
    head_digest: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.error_offset is None

    @property
    def chained(self) -> bool:
        return self.shard_id is not None

    @property
    def records(self) -> int:
        return len(self.log)

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "valid_bytes": self.valid_bytes,
            "total_bytes": self.total_bytes,
            "complete": self.complete,
            "error_offset": self.error_offset,
            "error_record": self.error_record,
            "cause": self.cause,
            "chained": self.chained,
            "head_digest": self.head_digest,
        }


def recover_log(path, obs=None) -> RecoveredLog:
    """Salvage the longest valid record prefix of a (possibly damaged) log.

    Never raises on corruption: reads records until the first bad frame,
    then reports where and why decoding stopped.  Works on the chained and
    the read-only ``VYRDLOG1`` format.  A log whose prologue itself is
    damaged salvages zero records (nothing after an unidentifiable header
    can be trusted).

    ``obs`` (a :class:`repro.obs.Recorder`) records a ``log.recover`` span
    and counters for salvaged/lost bytes.
    """
    if obs is not None and obs.enabled:
        with obs.span("log.recover", cat="log"):
            recovered = _recover_log(path)
        obs.count("recovery.records", recovered.records)
        obs.count("recovery.lost_bytes",
                  recovered.total_bytes - recovered.valid_bytes)
        return recovered
    return _recover_log(path)


def _recover_log(path) -> RecoveredLog:
    actions: List[Action] = []
    error: Optional[LogFormatError] = None
    with LogReader(path) as reader:
        valid_bytes = reader._data_start
        try:
            for action, end in reader._records():
                actions.append(action)
                valid_bytes = end
        except LogFormatError as exc:
            error = exc
    recovered = RecoveredLog(
        Log(actions), valid_bytes, reader._size, shard_id=reader.shard_id,
        head_digest=reader.head_digest,
    )
    if error is not None:
        recovered.error_offset = error.offset
        recovered.error_record = error.record_index
        recovered.cause = error.cause
    return recovered


@dataclass
class ChainReport:
    """Result of :func:`verify_chain` on one log file.

    ``tampered`` is True when the chain (or framing) broke mid-file, *or*
    when an ``expected_head`` was supplied and the file's chain head does
    not match it (the clean-truncation case the chain alone cannot see).
    A file that is not chained reports ``chained=False``.  An intact one
    (a ``VYRDLOG1`` file) is never ``tampered``: it carries no integrity
    claim to violate, and callers that require one should treat
    ``chained=False`` as a policy failure instead.  A damaged one (a torn
    ``VYRDLOG1`` file, or bytes with no log prologue at all) is
    ``tampered``, with the offset and cause of the damage.
    """

    path: str
    chained: bool
    records: int
    valid_bytes: int
    total_bytes: int
    shard_id: Optional[int] = None
    head_digest: Optional[str] = None
    error_offset: Optional[int] = None
    error_record: Optional[int] = None
    cause: Optional[str] = None
    head_match: Optional[bool] = None  # None: no expected head supplied

    @property
    def tampered(self) -> bool:
        return self.error_offset is not None or self.head_match is False

    @property
    def bad_record(self) -> bool:
        """The first damage is a frame that verified but whose payload is
        not a log action: the file is as written, a record in it is not."""
        return self.cause is not None and self.cause.startswith(_BAD_RECORD_CAUSES)

    @property
    def ok(self) -> bool:
        return not self.tampered

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "tampered": self.tampered,
            "chained": self.chained,
            "records": self.records,
            "valid_bytes": self.valid_bytes,
            "total_bytes": self.total_bytes,
            "shard_id": self.shard_id,
            "head_digest": self.head_digest,
            "error_offset": self.error_offset,
            "error_record": self.error_record,
            "cause": self.cause,
            "head_match": self.head_match,
        }


def verify_chain(path, expected_head: Optional[str] = None) -> ChainReport:
    """Walk a log file (a path or an open handle) verifying its
    tamper-evident hash chain.

    Never raises on corruption: decodes until the first bad frame and
    reports its byte offset, record index and cause.  ``expected_head`` (a
    hex digest recorded when the file was written, e.g. in a shard
    manifest) additionally detects clean truncation at a frame boundary,
    which removes tail records without breaking any surviving frame.
    Read-only ``VYRDLOG1`` files decode normally but report
    ``chained=False``.
    """
    recovered = _recover_log(path)
    return ChainReport(
        path=path if isinstance(path, str) else repr(path),
        chained=recovered.chained,
        records=recovered.records,
        valid_bytes=recovered.valid_bytes,
        total_bytes=recovered.total_bytes,
        shard_id=recovered.shard_id,
        head_digest=recovered.head_digest,
        error_offset=recovered.error_offset,
        error_record=recovered.error_record,
        cause=recovered.cause,
        head_match=(
            None if expected_head is None
            else recovered.head_digest == expected_head
        ),
    )


class LogSigner:
    """A running :func:`log_signature` over record payloads.

    Each record's pickled payload is framed by its ``<I`` byte length; the
    ``<Q`` record count closes the digest.  :func:`log_signature` pickles
    records into it; the serve merge feeds it the frames its tails already
    read (:meth:`add_frames`), so both sign the same bytes.
    """

    __slots__ = ("_digest", "count")

    def __init__(self):
        self._digest = hashlib.sha256()
        self.count = 0

    def add(self, payloads: Iterable[bytes]) -> None:
        """Fold a batch of record payloads in, with one hash update."""
        parts = []
        for payload in payloads:
            parts.append(_SIGNED_LENGTH.pack(len(payload)))
            parts.append(payload)
        self._digest.update(b"".join(parts))
        self.count += len(parts) // 2

    def add_frames(self, frames: Iterable[Tuple[int, Action, bytes]]) -> None:
        """Fold a batch of decoded ``(seq, action, payload)`` frames in.

        A payload that names its record type by extension code is the very
        pickle :func:`log_signature` makes of its record, so it is signed as
        read.  One written before the codes names its class instead, so its
        record is pickled again: a signature does not depend on when the
        frames it covers were written."""
        ext1 = pickle.EXT1
        self.add([
            payload if payload[_TYPE_OPCODE] == ext1 else record_payload(action)
            for _seq, action, payload in frames
        ])

    def hexdigest(self) -> str:
        """The signature of every record added so far."""
        digest = self._digest.copy()
        digest.update(_SIGNED_COUNT.pack(self.count))
        return digest.hexdigest()


def log_signature(records: Iterable[Action]) -> str:
    """Canonical SHA-256 signature of a record sequence.

    Hashes each record's self-contained pickle in order, so two logs with
    the same records in the same order have the same signature however they
    were produced -- the byte-identity gate between a ``vyrd serve`` merged
    history and the single-process single-log run of the same schedule.
    """
    signer = LogSigner()
    for action in records:
        signer.add((record_payload(action),))
    return signer.hexdigest()


def save_log(log: Log, path, *, chained: bool = True) -> None:
    """Write ``log`` to ``path`` as a chained shard-0 file (convenience
    wrapper around :class:`LogWriter`; ``chained`` accepts only True)."""
    with LogWriter(path, chained=chained) as writer:
        writer.write_all(log)


def load_log(path) -> Log:
    """Read a log previously written with :func:`save_log`.

    Raises :exc:`LogFormatError` if the stream is truncated or corrupted;
    use :func:`recover_log` to salvage the valid prefix instead.
    """
    with LogReader(path) as reader:
        return reader.read_log()


#: Record type -> the kind :func:`validate_well_formed` checks it as (None:
#: a record with no nesting obligation), in the order a subclass is matched
#: against; a record of no listed type is unknown.
_WELL_FORMED_KINDS = {
    CallAction: CallAction,
    ReturnAction: ReturnAction,
    CommitAction: CommitAction,
    BeginCommitBlockAction: BeginCommitBlockAction,
    EndCommitBlockAction: EndCommitBlockAction,
    **dict.fromkeys((WriteAction, ReplayAction, ReadAction, AcquireAction,
                     ReleaseAction, SpawnAction, JoinAction)),
}


def validate_well_formed(log: Log) -> List[str]:
    """Check the well-formedness conditions of paper sections 3.2 and 4.1.

    Returns a list of human-readable problems (empty when well-formed):

    * every return matches the thread's currently open call (per-thread
      sequences of public-method actions are well-nested and sequential);
    * commit actions with an ``op_id`` fall between that execution's call and
      return, and no execution commits twice;
    * commit blocks are opened and closed in matched pairs per thread.
    """
    problems: List[str] = []
    open_op = {}  # tid -> (op_id, committed_count)
    open_blocks = {}  # tid -> depth
    finished_ops = set()

    for seq, action in enumerate(log):
        kind = _WELL_FORMED_KINDS.get(type(action), Action)
        if kind is Action:
            kind = subclass_entry(_WELL_FORMED_KINDS, action, Action)
        if kind is None:
            continue  # no nesting obligation
        if kind is CallAction:
            if action.tid in open_op:
                problems.append(
                    f"@{seq}: thread {action.tid} called {action.method} while "
                    f"execution {open_op[action.tid][0]} is still open"
                )
            if action.op_id in finished_ops:
                problems.append(f"@{seq}: op_id {action.op_id} reused")
            open_op[action.tid] = [action.op_id, 0]
        elif kind is ReturnAction:
            current = open_op.get(action.tid)
            if current is None or current[0] != action.op_id:
                problems.append(
                    f"@{seq}: return of op {action.op_id} on thread {action.tid} "
                    f"does not match open call {current}"
                )
            else:
                del open_op[action.tid]
                finished_ops.add(action.op_id)
        elif kind is CommitAction:
            if action.op_id is not None:
                current = open_op.get(action.tid)
                if current is None or current[0] != action.op_id:
                    problems.append(
                        f"@{seq}: commit of op {action.op_id} outside its "
                        f"call/return window on thread {action.tid}"
                    )
                else:
                    current[1] += 1
                    if current[1] > 1:
                        problems.append(
                            f"@{seq}: op {action.op_id} committed more than once"
                        )
        elif kind is BeginCommitBlockAction:
            open_blocks[action.tid] = open_blocks.get(action.tid, 0) + 1
        elif kind is EndCommitBlockAction:
            depth = open_blocks.get(action.tid, 0)
            if depth == 0:
                problems.append(
                    f"@{seq}: thread {action.tid} ended a commit block it never began"
                )
            else:
                open_blocks[action.tid] = depth - 1
        else:
            problems.append(f"@{seq}: unknown action type {type(action).__name__}")

    for tid, (op_id, _) in open_op.items():
        problems.append(f"end of log: op {op_id} on thread {tid} never returned")
    for tid, depth in open_blocks.items():
        if depth:
            problems.append(f"end of log: thread {tid} left {depth} commit block(s) open")
    return problems
