"""Sharded, tamper-evident spool files for one verification session.

A producing process runs one deterministic kernel; its tracer appends every
action to the session :class:`~repro.core.Log` exactly once, under the
kernel's logging clock.  The streaming layer *tees* each append into one of
``num_shards`` append-only chained shard files, routed by the acting
thread's id (``tid % num_shards``).  Each shard frame carries the record's
global sequence number -- its append index in the session log -- so the
daemon can merge the shards back into the exact canonical order without any
coordination between shard files: the merge just emits contiguous sequence
numbers.

Layout under the store, per session::

    <session>/shard-0000.vlog     VYRDLOG2 chained shard (shard_id = 0)
    <session>/shard-0001.vlog     ...
    <session>/MANIFEST.json       written last: per-shard head digests,
                                  record counts, total -- the completion
                                  signal and the tamper-evidence anchor
    <session>/PAUSE               flag blob; present => producers throttle

The manifest's head digests are what make clean tail truncation detectable:
``verify_chain(shard, expected_head=...)`` fails unless the chain ends on
exactly the digest the producer acknowledged.
"""

from __future__ import annotations

import hashlib
import time
from typing import IO, Dict, List, Optional, Tuple

from ..core.actions import Action
from ..core.log import (
    FRAME_FIXED,
    PROLOGUE_SIZE,
    ChainDecoder,
    ChainReport,
    Log,
    LogFormatError,
    LogWriter,
    read_prologue,
)
from .store import LogStore


def shard_name(session: str, index: int) -> str:
    return f"{session}/shard-{index:04d}.vlog"


def manifest_name(session: str) -> str:
    return f"{session}/MANIFEST.json"


def pause_name(session: str) -> str:
    return f"{session}/PAUSE"


def health_name(session: str) -> str:
    return f"{session}/HEALTH.json"


def restarts_name(session: str) -> str:
    return f"{session}/RESTARTS.json"


class ShardWriter:
    """Appends chained frames for one shard, batching flushes.

    Frames buffer in the file object until ``batch_records`` have
    accumulated, then one ``flush`` pushes them out (and ``fsync``s when
    ``sync=True``).  ``acked`` counts the records known durable -- the
    producer's acknowledgment watermark.

    ``resume`` continues a shard left behind by a crashed producer: a dict
    with the salvaged prefix's ``records`` count and ``head_digest`` (from
    :func:`repro.serve.supervise.salvage_session`).  The restarted producer
    deterministically re-executes the whole run, so the first ``records``
    appends routed to this shard are exactly the frames already durable --
    they are *skipped*, and the first fresh frame extends the existing hash
    chain from the salvaged head.  The finished file is byte-identical to
    one written by an uninterrupted producer.
    """

    def __init__(self, store: LogStore, session: str, index: int, *,
                 sync: bool = False, batch_records: int = 64,
                 resume: Optional[Dict[str, object]] = None):
        self.index = index
        self.name = shard_name(session, index)
        self._file = store.open_append(self.name)
        if resume and int(resume.get("records", 0) or 0) > 0:
            self._skip = int(resume["records"])
            self._writer = LogWriter(
                self._file, shard_id=index, sync=sync,
                resume_digest=bytes.fromhex(str(resume["head_digest"])),
            )
        else:
            self._skip = 0
            self._writer = LogWriter(self._file, shard_id=index, sync=sync)
        self._skipped_base = self._skip
        self._batch = max(1, batch_records)
        self._unflushed = 0
        self.acked = self._skipped_base  # the salvaged prefix is durable
        self.last_seq: Optional[int] = None

    @property
    def records(self) -> int:
        return self._skipped_base + self._writer.records_written

    @property
    def head_digest(self) -> str:
        return self._writer.head_digest

    def append(self, seq: int, action: Action) -> None:
        self.last_seq = seq
        if self._skip:
            # Replayed record already durable from before the crash; the
            # chain's seq stamps make the dedup exact, not heuristic.
            self._skip -= 1
            return
        self._writer.write(action, seq=seq)
        self._unflushed += 1
        if self._unflushed >= self._batch:
            self.flush()

    def flush(self) -> None:
        self._writer.flush()
        self.acked = self.records
        self._unflushed = 0

    def close(self) -> Dict[str, object]:
        """Flush, close, and return this shard's manifest entry."""
        self.flush()
        entry = self.manifest_entry()
        self._writer.close()
        self._file.close()
        return entry

    def manifest_entry(self) -> Dict[str, object]:
        return {
            "shard": self.index,
            "name": self.name,
            "records": self.records,
            "last_seq": self.last_seq,
            "head_digest": self.head_digest,
        }


class ShardSet:
    """All shard writers of one producing session, plus its manifest."""

    def __init__(self, store: LogStore, session: str, num_shards: int, *,
                 sync: bool = False, batch_records: int = 64,
                 resume: Optional[Dict[int, dict]] = None):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.store = store
        self.session = session
        resume = resume or {}
        self.writers = [
            ShardWriter(store, session, index, sync=sync,
                        batch_records=batch_records,
                        resume=resume.get(index))
            for index in range(num_shards)
        ]
        self.appended = 0

    def route(self, action: Action) -> int:
        tid = getattr(action, "tid", None)
        return (tid if isinstance(tid, int) else 0) % len(self.writers)

    def append(self, seq: int, action: Action) -> None:
        self.writers[self.route(action)].append(seq, action)
        self.appended += 1

    def flush_all(self) -> None:
        for writer in self.writers:
            writer.flush()

    def close(self, extra: Optional[dict] = None) -> dict:
        """Close every shard and publish the session manifest.

        The manifest lands *after* all shard bytes are durable, so its
        presence is the daemon's signal that the session is complete and the
        per-shard ``head_digest`` values are the expected chain heads."""
        entries = [writer.close() for writer in self.writers]
        manifest = {
            "session": self.session,
            "shards": entries,
            "records": self.appended,
        }
        if extra:
            manifest.update(extra)
        self.store.put_json(manifest_name(self.session), manifest)
        return manifest


class ShardTail:
    """Chain-verified tailing reader over one growing shard blob.

    Polls the store for new bytes (ranged reads from the consumed offset)
    and decodes them incrementally with :class:`ChainDecoder`; every frame
    is CRC- and chain-verified *as it is ingested*, so a tampered or corrupt
    shard is caught while the session is still live, not at a later audit.
    A detected fault parks on :attr:`error` and the tail goes dead.

    Every byte the tail accepts -- the prologue and whole frames, never a
    partial frame it discards -- folds into one running SHA-256, so the
    drain audit (:meth:`audit`) can confirm the shard at rest by its length
    and one digest instead of decoding it again.
    """

    def __init__(self, store: LogStore, session: str, index: int):
        self.store = store
        self.name = shard_name(session, index)
        self.index = index
        self.offset = 0  # absolute bytes consumed, prologue included
        self.records = 0
        self.error: Optional[LogFormatError] = None
        self._decoder: Optional[ChainDecoder] = None
        self._accepted = hashlib.sha256()
        self._carry = b""  # bytes the decoder holds as a partial frame

    @property
    def started(self) -> bool:
        return self._decoder is not None

    @property
    def head_digest(self) -> Optional[str]:
        return self._decoder.head_digest if self._decoder else None

    def _start(self) -> bool:
        """Consume and verify the prologue once enough bytes exist."""
        size = self.store.size(self.name)
        if size is None or size < PROLOGUE_SIZE:
            return False
        prologue = self.store.read_range(self.name, 0, PROLOGUE_SIZE)
        try:
            read_prologue(prologue, shard_id=self.index)
        except LogFormatError as error:
            self.error = error
            return False
        self._decoder = ChainDecoder(
            shard_id=self.index, base_offset=PROLOGUE_SIZE
        )
        self.offset = PROLOGUE_SIZE
        self._accepted.update(prologue)
        return True

    def poll(self, max_bytes: int = 1 << 20) -> List[Tuple[int, Action, bytes]]:
        """Decode newly appended frames as ``(seq, action, payload)``; []
        when nothing new (or dead).  ``payload`` is the frame's pickled
        record exactly as written -- the bytes :func:`log_signature` hashes.
        """
        if self.error is not None:
            return []
        if self._decoder is None and not self._start():
            return []
        size = self.store.size(self.name)
        # The decoder may hold a partial frame; only its *consumed* bytes
        # count as read, so re-fetch from there is avoided by tracking
        # offset = bytes handed to the decoder.
        if size is None or size <= self.offset:
            return []
        end = min(size, self.offset + max_bytes)
        data = self.store.read_range(self.name, self.offset, end)
        self.offset += len(data)
        decoder = self._decoder
        base = decoder.consumed  # absolute offset of ``buffer[0]``
        buffer = self._carry + data if self._carry else data
        frames = decoder.feed(data)
        if decoder.error is not None:
            self.error = decoder.error
        elif end >= size and decoder.pending:
            # We read to the durable end of the shard and a partial frame is
            # left over: a producer mid-flush -- or mid-crash.  Never carry
            # the half-frame across polls: if the producer dies here, the
            # supervisor truncates the shard to its chain-valid prefix
            # (exactly our consumed boundary) and a restarted producer
            # appends fresh frames there; stale partial bytes would splice
            # garbage into them.  Dropping the tail keeps ``offset`` pinned
            # to a frame boundary, so salvage truncation is invisible to a
            # live tail.  The bytes re-read next poll are at most one frame.
            self.offset -= decoder.discard_pending()
        out = []
        start = 0
        for seq, action, frame_end in frames:
            stop = frame_end - base
            out.append((seq, action, buffer[start + FRAME_FIXED : stop]))
            start = stop
        self._accepted.update(memoryview(buffer)[:start])
        self._carry = buffer[start:] if decoder.pending else b""
        self.records += len(frames)
        return out

    def at_clean_boundary(self) -> bool:
        """True when every byte handed to the decoder formed whole frames."""
        return self._decoder is None or self._decoder.pending == 0

    def audit(self, at_rest: IO[bytes],
              expected_head: Optional[str]) -> Optional[ChainReport]:
        """The chain report of this shard's bytes at rest (read from the
        handle ``at_rest``) when they are the bytes this tail verified;
        None when anything differs.

        Equal length and SHA-256 make the file byte-identical to what the
        tail CRC-checked and chain-verified frame by frame, so the report
        is the one :func:`~repro.core.log.verify_chain` would return, built
        without decoding the shard again.  None -- a tail error, a head that
        is not ``expected_head``, or bytes that differ -- leaves the
        diagnosis to ``verify_chain``.
        """
        decoder = self._decoder
        if (
            decoder is None
            or self.error is not None
            or expected_head != decoder.head_digest
        ):
            return None
        digest = hashlib.sha256()
        size = 0
        while True:
            chunk = at_rest.read(1 << 20)  # bounded memory, as verify_chain
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
        if size != decoder.consumed or digest.digest() != self._accepted.digest():
            return None
        return ChainReport(
            path=self.store.path(self.name) or self.name,
            chained=True,
            records=self.records,
            valid_bytes=size,
            total_bytes=size,
            shard_id=self.index,
            head_digest=decoder.head_digest,
            head_match=True,
        )


class StoreThrottle:
    """Producer-side backpressure: block while the session PAUSE flag is up.

    The daemon raises the flag when its checker queue crosses the high
    watermark and clears it at the low watermark.  ``max_wait`` bounds the
    stall so a dead daemon cannot wedge a producer forever -- the producer
    then keeps appending (durability over backpressure; the daemon re-reads
    at its own pace anyway).
    """

    def __init__(self, store: LogStore, session: str, *,
                 poll_interval: float = 0.002, max_wait: float = 30.0):
        self._store = store
        self._flag = pause_name(session)
        self._poll = poll_interval
        self._max_wait = max_wait
        self.waits = 0  # appends that hit an engaged pause flag

    def wait_if_paused(self) -> None:
        waited = 0.0
        stalled = False
        while self._store.has_flag(self._flag) and waited < self._max_wait:
            stalled = True
            time.sleep(self._poll)
            waited += self._poll
        if stalled:
            self.waits += 1


class TeeLog(Log):
    """A session :class:`Log` that mirrors every append into shard files.

    Injected into :class:`~repro.core.Vyrd` via ``log=``; the kernel's
    logging clock serializes appends, so the tee inherits the same
    no-locking guarantee as the base log.  The append index *is* the
    record's global sequence number -- stamped into the chained frame so the
    daemon's merge can restore canonical order.

    Every ``throttle_every`` appends the tee polls the store pause flag and
    blocks while the daemon signals checker lag -- the backpressure path.

    ``die_after`` is the supervision fault hook: after that many appends the
    producer flushes every shard (so the records are *acknowledged*) and
    dies abruptly via ``os._exit`` -- the mid-session producer death the
    supervisor exists to absorb.
    """

    __slots__ = ("shards", "throttle", "_throttle_every", "die_after")

    def __init__(self, shards: ShardSet, throttle: Optional[StoreThrottle] = None,
                 throttle_every: int = 64, die_after: Optional[int] = None):
        super().__init__()
        self.shards = shards
        self.throttle = throttle
        self._throttle_every = max(1, throttle_every)
        self.die_after = die_after

    def append(self, action: Action) -> int:
        seq = super().append(action)
        self.shards.append(seq, action)
        if self.die_after is not None and self.shards.appended >= self.die_after:
            import os

            self.shards.flush_all()
            os._exit(21)
        if self.throttle is not None and (seq + 1) % self._throttle_every == 0:
            self.throttle.wait_if_paused()
        return seq
