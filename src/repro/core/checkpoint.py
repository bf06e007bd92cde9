"""Checkpointed verification: suspend a checker mid-log, resume elsewhere.

A long log (or a crashed ``repro.serve`` daemon) should not force
re-verification from record zero: everything the checker knows at a log
position is finite, deterministic state -- the spec instance, the
incremental-view caches, the differential comparator's mismatch set, each
per-unit invariant's dirty units, failing units and unit index, the
replayed implementation state with its open undo maps, the pending observer
windows, and the lookahead buffer of actions awaiting their return values.
The same holds for the race detectors' clocks and locksets, and for the
call/return history an offline linearizability search will need.  A
:class:`Checkpoint` captures exactly that, content-addressed so a torn or
tampered file is *rejected* (typed :class:`CheckpointError`) rather than
silently resumed from.

Design constraints
------------------
* **Data only.**  View factories, replay routines and invariants are
  closures and do not pickle.  A checkpoint therefore never carries code:
  :meth:`~repro.core.plan.PlanChecker.restore` loads the payload into a
  *freshly built* checker of the same plan (same members, same spec class,
  same view factory), and each member validates its configuration before
  touching anything.
* **Tamper evidence.**  The file format mirrors the log's framing
  philosophy: a magic line, a JSON header carrying the SHA-256 of the
  payload plus open metadata (resume seq, program, chain head digest), then
  the pickled payload.  ``from_bytes`` recomputes the hash before
  unpickling; any mismatch -- truncation, bit flips, a header edited to
  point at different state -- raises :class:`CheckpointError`, and callers
  fall back to record-zero replay.

File layout::

    VYRDCKPT1\\n
    {"meta": {...}, "sha256": "...", "version": 5}\\n
    <pickle bytes>

Version 2 added the per-unit invariant state to the refinement payload.
Version 3 made the payload one entry per checker of the plan (refinement,
races, linz history; :meth:`~repro.core.plan.PlanChecker.checkpoint`).
Version 4 changed the race detectors' per-location state, which the payload
pickles whole: access sites are tuples, epochs are fields, and both
detectors share one lock tracker.  Version 5 dropped ``final_full_check``
from the refinement checker's configuration fingerprint (the final full
check always runs).  An older blob is rejected like any other unsupported
version and the caller falls back to record zero.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict

MAGIC = b"VYRDCKPT1\n"
FORMAT_VERSION = 5


class CheckpointError(Exception):
    """The checkpoint is corrupt, truncated, or configuration-incompatible."""


@dataclass
class Checkpoint:
    """One suspended checker state plus open metadata.

    ``payload`` is the checker's ``state_dict()`` -- opaque here; the
    checker that produced it knows how to reload it.  ``meta`` is small,
    JSON-safe context: the log seq to resume feeding from, the program and
    mode, optionally the hash-chain head digest of the log prefix already
    verified.
    """

    payload: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def resume_seq(self) -> int:
        """First log seq the restored checker still needs to be fed."""
        return int(self.meta.get("resume_seq", 0))

    def to_bytes(self) -> bytes:
        try:
            body = pickle.dumps(self.payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(f"checkpoint state does not pickle: {exc}") from exc
        header = {
            "version": FORMAT_VERSION,
            "sha256": hashlib.sha256(body).hexdigest(),
            "meta": self.meta,
        }
        return MAGIC + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        if not blob.startswith(MAGIC):
            raise CheckpointError("not a VYRD checkpoint (bad magic)")
        rest = blob[len(MAGIC):]
        newline = rest.find(b"\n")
        if newline < 0:
            raise CheckpointError("truncated checkpoint: missing header")
        try:
            header = json.loads(rest[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
        if header.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {header.get('version')!r}"
            )
        body = rest[newline + 1:]
        digest = hashlib.sha256(body).hexdigest()
        if digest != header.get("sha256"):
            raise CheckpointError(
                "checkpoint content hash mismatch "
                f"(header {header.get('sha256')!r}, payload {digest!r})"
            )
        try:
            payload = pickle.loads(body)
        except Exception as exc:
            raise CheckpointError(f"checkpoint payload does not unpickle: {exc}") from exc
        return cls(payload=payload, meta=dict(header.get("meta") or {}))

    def save(self, path: str) -> str:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())
        return path

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        return cls.from_bytes(blob)


def checkpoint_blob_name(session: str) -> str:
    """Store-blob name for a serve session's rolling checkpoint."""
    return f"{session}/CHECKPOINT.vyrdckpt"
