"""Replayed implementation state and commit-block rollback.

View refinement needs ``viewI``, a canonical abstraction of the
*implementation* state at each commit action.  Re-reading live program state
from the verifier would race with the running threads (and be impossible
offline), so -- following paper section 5.1 -- the verifier reconstructs the
state by replaying logged shared-variable writes.  :class:`ReplayState` is
that reconstruction: a mapping from shared-variable names to their most
recently logged values.

Commit blocks (section 5.2) complicate the picture.  At the moment thread
``t`` commits, *other* threads may be midway through their own commit blocks;
their partial writes are in the log (and in the replayed state) but must not
be visible to the view computation, because commit blocks are atomic -- the
execution is equivalent to one (the paper's t-tilde) in which only the
committing thread is inside a commit block.  :class:`ReplayState` therefore
keeps, for every currently open commit block, an *undo map* recording the
value each location had when the block first overwrote it.
:meth:`effective` builds a read-only overlay that rolls those writes back.

Coarse-grained log entries (section 6.2) replay through registered routines
that mutate the state dictionary directly; writes they perform inside an
open commit block are captured in the same undo maps via a recording proxy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

class _AbsentType:
    """Picklable singleton distinguishing "never written" from "written None".

    Undo maps holding this sentinel travel through checkpoints; pickling
    must resolve back to the *same* object so ``is ABSENT`` checks keep
    working after a restore.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<absent>"

    def __reduce__(self):
        return (_absent, ())


def _absent() -> "_AbsentType":
    return ABSENT


ABSENT = _AbsentType()

_EMPTY_OVERLAY: Dict[str, Any] = {}  # shared by the no-open-blocks fast path


class EffectiveState(Mapping):
    """Read-only view of a replay state with an undo overlay applied.

    Locations present in ``overlay`` read their rolled-back values; all other
    locations read the replayed values.  Implements the ``Mapping`` protocol
    plus :meth:`items_with_prefix` for view functions that scan a region of
    the namespace.
    """

    __slots__ = ("_base", "_overlay")

    def __init__(self, base: Dict[str, Any], overlay: Dict[str, Any]):
        self._base = base
        self._overlay = overlay

    def __getitem__(self, loc: str) -> Any:
        if loc in self._overlay:
            value = self._overlay[loc]
            if value is ABSENT:
                raise KeyError(loc)
            return value
        return self._base[loc]

    def get(self, loc: str, default: Any = None) -> Any:
        try:
            return self[loc]
        except KeyError:
            return default

    def __contains__(self, loc: object) -> bool:
        if loc in self._overlay:
            return self._overlay[loc] is not ABSENT
        return loc in self._base

    def __iter__(self) -> Iterator[str]:
        for loc in self._base:
            if self._overlay.get(loc) is not ABSENT:
                yield loc
        for loc in self._overlay:
            if loc not in self._base and self._overlay[loc] is not ABSENT:
                yield loc

    def __len__(self) -> int:
        return sum(1 for _ in self)

    @property
    def overlay_size(self) -> int:
        """Number of locations the t-tilde rollback overlay shadows."""
        return len(self._overlay)

    def items_with_prefix(self, prefix: str) -> List[Tuple[str, Any]]:
        """All ``(loc, value)`` pairs whose name starts with ``prefix``, in
        iteration order.

        View functions scan regions of the namespace at every commit, so
        this walks the base dict directly and consults the overlay only
        when a commit block is open.
        """
        base, overlay = self._base, self._overlay
        if not overlay:
            return [item for item in base.items() if item[0].startswith(prefix)]
        items = []
        for loc, value in base.items():
            if loc.startswith(prefix):
                if loc in overlay:
                    value = overlay[loc]
                    if value is ABSENT:
                        continue
                items.append((loc, value))
        for loc, value in overlay.items():
            if value is not ABSENT and loc not in base and loc.startswith(prefix):
                items.append((loc, value))
        return items


class _RecordingState(dict):
    """Mutable dict proxy that reports first-writes to an undo collector."""

    def __init__(self, base: Dict[str, Any], on_first_write: Callable[[str, Any], None]):
        super().__init__()
        self._base = base
        self._on_first_write = on_first_write
        self.written: set = set()

    def __getitem__(self, loc):
        return self._base[loc]

    def get(self, loc, default=None):
        return self._base.get(loc, default)

    def __contains__(self, loc):
        return loc in self._base

    def __setitem__(self, loc, value):
        old = self._base.get(loc, ABSENT)
        self._on_first_write(loc, old)
        self._base[loc] = value
        self.written.add(loc)

    def __delitem__(self, loc):
        old = self._base.get(loc, ABSENT)
        self._on_first_write(loc, old)
        self._base.pop(loc, None)
        self.written.add(loc)

    def items_with_prefix(self, prefix: str):
        for loc, value in self._base.items():
            if loc.startswith(prefix):
                yield loc, value


class ReplayState:
    """Implementation state reconstructed from the log.

    ``apply_write`` / ``apply_replay`` advance the state;
    ``begin_block`` / ``end_block`` bracket a thread's commit block;
    ``effective(tid)`` yields the state as seen at ``tid``'s commit action
    with every *other* open commit block rolled back.
    """

    def __init__(self, replay_registry: Optional[Dict[str, Callable]] = None):
        self._state: Dict[str, Any] = {}
        # tid -> {loc: value the loc had when this open block first wrote it}
        self._open_blocks: Dict[int, Dict[str, Any]] = {}
        self._replay_registry = dict(replay_registry or {})

    # -- advancing the state -------------------------------------------------

    def apply_write(self, tid: int, loc: str, old: Any, new: Any) -> None:
        """Replay one fine-grained write action."""
        undo = self._open_blocks.get(tid)
        if undo is not None and loc not in undo:
            undo[loc] = old if loc in self._state else ABSENT
        self._state[loc] = new

    def apply_replay(self, tid: int, tag: str, payload: Any) -> set:
        """Replay one coarse-grained action; returns the set of locations it
        wrote (used to mark incremental views dirty)."""
        try:
            routine = self._replay_registry[tag]
        except KeyError:
            raise KeyError(
                f"no replay routine registered for coarse log entries tagged {tag!r}"
            )
        undo = self._open_blocks.get(tid)

        def record(loc: str, old: Any) -> None:
            if undo is not None and loc not in undo:
                undo[loc] = old

        proxy = _RecordingState(self._state, record)
        routine(proxy, payload)
        return proxy.written

    def register_replay(self, tag: str, routine: Callable) -> None:
        """Register ``routine(state, payload)`` for coarse entries ``tag``."""
        self._replay_registry[tag] = routine

    # -- commit blocks ---------------------------------------------------------

    def begin_block(self, tid: int) -> None:
        if tid in self._open_blocks:
            raise ValueError(f"thread {tid} already has an open commit block")
        self._open_blocks[tid] = {}

    def end_block(self, tid: int) -> None:
        if tid not in self._open_blocks:
            raise ValueError(f"thread {tid} has no open commit block to end")
        del self._open_blocks[tid]

    def open_block_locs(self, excluding_tid: Optional[int] = None) -> set:
        """Locations written by open commit blocks (other than ``excluding_tid``).

        These locations read rolled-back values in :meth:`effective`, so
        incremental views must treat them as dirty at every commit while the
        blocks stay open.
        """
        locs: set = set()
        for tid, undo in self._open_blocks.items():
            if tid != excluding_tid:
                locs.update(undo)
        return locs

    # -- reading the state -------------------------------------------------------

    def effective(self, committing_tid: Optional[int] = None) -> EffectiveState:
        """State at a commit of ``committing_tid``: other open blocks undone.

        With ``committing_tid=None`` (e.g. a final quiescent check) every
        open block is rolled back.
        """
        open_blocks = self._open_blocks
        if not open_blocks or (
            committing_tid is not None
            and len(open_blocks) == 1
            and committing_tid in open_blocks
        ):
            # Fast path (the common case on lightly-contended logs): nothing
            # to roll back, so skip overlay construction entirely.  The
            # shared empty dict is never mutated -- EffectiveState is
            # read-only -- and overlay_size correctly reads 0.
            return EffectiveState(self._state, _EMPTY_OVERLAY)
        overlay: Dict[str, Any] = {}
        for tid, undo in open_blocks.items():
            if tid == committing_tid:
                continue
            overlay.update(undo)
        return EffectiveState(self._state, overlay)

    def raw(self) -> EffectiveState:
        """The replayed state with *no* rollback (all logged writes applied)."""
        return EffectiveState(self._state, {})

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable form: the base state plus every open undo map
        (the replay registry is code, rebuilt by the restoring process)."""
        return {
            "state": dict(self._state),
            "open_blocks": {tid: dict(undo) for tid, undo in self._open_blocks.items()},
        }

    def load_state(self, payload: Dict[str, Any]) -> None:
        self._state = dict(payload["state"])
        self._open_blocks = {
            tid: dict(undo) for tid, undo in payload["open_blocks"].items()
        }

    def get(self, loc: str, default: Any = None) -> Any:
        return self._state.get(loc, default)

    def __len__(self) -> int:
        return len(self._state)
