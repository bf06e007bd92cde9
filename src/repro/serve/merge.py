"""Deterministic k-way merge of sharded action streams.

Shards partition one session's log by acting thread; every frame carries
the record's global sequence number (its append index under the producing
kernel's logging clock).  Merging is therefore not a heuristic interleaving
problem: the canonical history is *the* sequence ``0, 1, 2, ...`` and the
merger simply emits each record the moment its sequence number becomes the
watermark.  Records arriving early (their shard ran ahead) buffer until the
lagging shard catches up; the output order is a pure function of the frame
contents, independent of poll timing, batch sizes or shard count -- the
determinism gate the service is built on.

The merger also doubles as a cross-shard integrity check: a duplicate or
already-emitted sequence number (two shards claiming the same slot -- a
splice the per-shard hash chains cannot see because each chain is
internally consistent) raises :exc:`MergeError`.

Records pushed as ``(seq, action, payload)`` -- what
:meth:`~repro.serve.shard.ShardTail.poll` yields -- are signed as they are
emitted: their payload bytes fold into one running
:class:`~repro.core.log.LogSigner`, the signer behind
:func:`~repro.core.log.log_signature`, so :meth:`StreamMerger.signature` is
the canonical history's signature without pickling a record again.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from ..core.actions import Action
from ..core.log import LogSigner


class MergeError(Exception):
    """Shard streams are mutually inconsistent (duplicate/regressed seq)."""


class StreamMerger:
    """Buffer per-shard ``(seq, action[, payload])`` runs; emit the
    contiguous prefix."""

    def __init__(self, num_shards: int):
        self._queues: List[Deque[Sequence]] = [
            deque() for _ in range(num_shards)
        ]
        self._last_pushed: List[Optional[int]] = [None] * num_shards
        #: Next sequence number to emit (== records emitted so far).
        self.next_seq = 0
        # Running signature of the emitted records; None once one of them
        # came without its payload.
        self._signer: Optional[LogSigner] = LogSigner()

    def push(self, shard: int, items: List[Sequence]) -> None:
        """Add freshly decoded frames from one shard (in file order)."""
        queue = self._queues[shard]
        last = self._last_pushed[shard]
        for item in items:
            seq = item[0]
            if last is not None and seq <= last:
                raise MergeError(
                    f"shard {shard} sequence regressed: {seq} after {last}"
                )
            last = seq
            queue.append(item)
        self._last_pushed[shard] = last

    def pop_ready(self) -> List[Action]:
        """Emit every buffered record whose turn has come, in order."""
        ready = []
        queues = self._queues
        while True:
            hit = None
            for shard, queue in enumerate(queues):
                if not queue:
                    continue
                head_seq = queue[0][0]
                if head_seq == self.next_seq:
                    hit = shard
                    break
                if head_seq < self.next_seq:
                    raise MergeError(
                        f"shard {shard} offers seq {head_seq} but "
                        f"{self.next_seq} records were already merged "
                        "(duplicate or cross-shard splice)"
                    )
            if hit is None:
                break
            ready.append(queues[hit].popleft())
            self.next_seq += 1
        if ready and self._signer is not None:
            self._sign(ready)
        return [item[1] for item in ready]

    def _sign(self, items: List[Sequence]) -> None:
        try:
            payloads = [payload for _seq, _action, payload in items]
        except ValueError:  # a bare (seq, action) pair: nothing to hash
            self._signer = None
            return
        self._signer.add(payloads)

    def signature(self) -> Optional[str]:
        """``log_signature`` of every record emitted so far, hashed from
        their frame payloads; None when one was pushed without its payload."""
        if self._signer is None:
            return None
        return self._signer.hexdigest()

    @property
    def buffered(self) -> int:
        """Records received but not yet emittable (waiting on a gap)."""
        return sum(len(queue) for queue in self._queues)

    def gap(self) -> Optional[int]:
        """The sequence number the merge is stuck waiting for, if any."""
        return self.next_seq if self.buffered else None
