"""The Boxwood Cache module, including the real bug VYRD found.

This follows the paper's Fig. 8 pseudocode closely.  The cache sits between
clients (the B-link tree) and the Chunk Manager; it keeps per-handle entries
on a *clean* list or a *dirty* list, guarded by ``LOCK(clean)``, plus a
reclamation reader-writer lock (``RECLAIMLOCK``).

The bug (paper section 7.2.2, Table 1's "Writing an unprotected dirty cache
entry"): in ``WRITE``'s third branch -- the handle already has a dirty entry
-- ``COPY-TO-CACHE`` runs **without** ``LOCK(clean)`` (Fig. 8 line 23).  A
concurrent ``FLUSH`` can therefore read the entry mid-copy, write a byte
array that is part old and part new to the Chunk Manager, and move the entry
to the clean list.  At that point cache invariant (i) -- *a clean entry's
bytes equal the chunk's bytes* -- is violated, and the corruption becomes
I/O-visible only much later, after the entry is evicted and re-read: exactly
the paper's argument for why view refinement (plus runtime invariants)
detects this error orders of magnitude earlier than I/O refinement.

Entry data is stored byte-per-cell (``cache.ent<id>@<handle>.data[i]``), so
``COPY-TO-CACHE`` produces one logged write per byte: the fine-grained
logging the paper says was necessary to catch this error, and the reason the
Cache row of Tables 1-2 shows the largest view-refinement logging/checking
overhead.

Public operations: ``write`` / ``read`` / ``flush`` / ``evict`` (the
paper's revoke) / ``reclaim``.  ``flush``/``evict``/``reclaim`` are
structural mutators: their spec transition is the identity, and their commit
action rides the final ``UNLOCK(clean)`` (Fig. 8's FLUSH commit point).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..concurrency import Lock, RWLock, SharedCell, ThreadCtx
from ..core import ContributionView, Invariant, operation
from .chunkmanager import ChunkManager


class _Entry:
    """One cache entry, permanently bound to a handle."""

    __slots__ = ("eid", "handle", "data", "published", "retired")

    def __init__(self, eid: int, handle: str, block_size: int):
        self.eid = eid
        self.handle = handle
        base = f"cache.ent{eid}@{handle}"
        self.data = [SharedCell(f"{base}.data[{i}]", 0) for i in range(block_size)]
        self.published = SharedCell(f"{base}.published", False)
        self.retired = SharedCell(f"{base}.retired", False)


class BoxwoodCache:
    """Write-back cache over a :class:`ChunkManager` (Fig. 8)."""

    def __init__(self, chunks: ChunkManager, block_size: int = 8,
                 buggy_dirty_write: bool = False):
        self.chunks = chunks
        self.block_size = block_size
        self.buggy_dirty_write = buggy_dirty_write
        self.clean_lock = Lock("cache.clean-lock")
        self.reclaim = RWLock("cache.reclaim")
        self._entries: Dict[int, _Entry] = {}
        # per-thread id counters: entry ids depend only on the allocating
        # thread's own history, never on the interleaving (schedule-
        # confluent allocation; cell names stable across equivalent runs)
        self._ids: Dict[int, int] = {}
        # membership maps: handle -> entry id (or None); created lazily
        self._clean_cells: Dict[str, SharedCell] = {}
        self._dirty_cells: Dict[str, SharedCell] = {}

    # -- membership cells ----------------------------------------------------

    def _clean_cell(self, handle: str) -> SharedCell:
        if handle not in self._clean_cells:
            self._clean_cells[handle] = SharedCell(f"cache.clean[{handle}]", None)
        return self._clean_cells[handle]

    def _dirty_cell(self, handle: str) -> SharedCell:
        if handle not in self._dirty_cells:
            self._dirty_cells[handle] = SharedCell(f"cache.dirty[{handle}]", None)
        return self._dirty_cells[handle]

    def _make_new_entry(self, handle: str, tid: int = -1) -> _Entry:
        seq = self._ids.get(tid, 0)
        self._ids[tid] = seq + 1
        entry = _Entry((tid + 1) * 1_000_000 + seq, handle, self.block_size)
        self._entries[entry.eid] = entry
        return entry

    def _copy_to_cache(self, buffer: Tuple[int, ...], entry: _Entry, commit_last: bool = False):
        """COPY-TO-CACHE: one logged write per byte (Fig. 8).

        ``commit_last`` rides the commit action on the final byte write
        (WRITE's commit point 3)."""
        last = len(buffer) - 1
        for i, byte in enumerate(buffer):
            yield entry.data[i].write(byte, commit=commit_last and i == last)

    # -- public operations ----------------------------------------------------------

    @operation
    def write(self, ctx: ThreadCtx, handle: str, buffer: Tuple[int, ...]):
        """WRITE(handle, buffer) -- Fig. 8, all three branches."""
        buffer = tuple(buffer)
        if len(buffer) != self.block_size:
            raise ValueError("buffer must be exactly one block")
        yield self.reclaim.begin_read()                    # line 1
        yield self.clean_lock.acquire()                    # line 2
        ce = yield self._clean_cell(handle).read()         # line 3
        de = yield self._dirty_cell(handle).read()         # line 4
        yield self.clean_lock.release()                    # line 5
        if ce is None and de is None:                      # line 6
            yield self.reclaim.end_read()                  # line 8
            te = self._make_new_entry(handle, ctx.tid)     # line 9
            yield self.reclaim.begin_read()                # line 10
            yield from self._copy_to_cache(buffer, te)     # line 11
            yield self.clean_lock.acquire()                # line 12
            # ADD-TO-DIRTY-LIST(handle, te)  -- Commit point 1 (line 13)
            old_dirty = yield self._dirty_cell(handle).read()
            old_clean = yield self._clean_cell(handle).read()
            yield ctx.begin_commit_block()
            yield te.published.write(True)
            if old_dirty is not None:
                # a racing WRITE published an entry first; ours replaces it
                yield self._entries[old_dirty].retired.write(True)
            if old_clean is not None:
                # a racing READ installed a (now stale) clean entry
                yield self._clean_cell(handle).write(None)
                yield self._entries[old_clean].retired.write(True)
            yield self._dirty_cell(handle).write(te.eid)
            yield ctx.end_commit_block(commit=True)
            yield self.clean_lock.release()                # line 14
        elif de is None:                                   # line 15 (ce != None)
            yield self.clean_lock.acquire()                # line 17
            entry_id = yield self._clean_cell(handle).read()
            if entry_id is None:
                # the clean entry vanished (evict/reclaim race); retry
                yield self.clean_lock.release()
                yield self.reclaim.end_read()
                result = yield from self.write(ctx, handle, buffer)
                return result
            ce_entry = self._entries[entry_id]
            yield ctx.begin_commit_block()
            yield self._clean_cell(handle).write(None)     # line 18
            yield from self._copy_to_cache(buffer, ce_entry)  # line 19
            yield self._dirty_cell(handle).write(entry_id)    # line 20: Commit point 2
            yield ctx.end_commit_block(commit=True)
            yield self.clean_lock.release()                # line 21
        else:                                              # line 22: dirty entry exists
            de_entry = self._entries[de]
            if self.buggy_dirty_write:
                # BUG (Fig. 8 line 23): COPY-TO-CACHE without LOCK(clean).
                # A concurrent FLUSH can snapshot the entry mid-copy.
                yield from self._copy_to_cache(buffer, de_entry, commit_last=True)
            else:
                yield self.clean_lock.acquire()
                current = yield self._dirty_cell(handle).read()
                if current != de:
                    # the entry was flushed/evicted before we took the lock
                    yield self.clean_lock.release()
                    yield self.reclaim.end_read()
                    result = yield from self.write(ctx, handle, buffer)
                    return result
                yield from self._copy_to_cache(buffer, de_entry, commit_last=True)
                yield self.clean_lock.release()
        yield self.reclaim.end_read()                      # line 24
        return True

    @operation
    def read(self, ctx: ThreadCtx, handle: str):
        """READ(handle): cached bytes, else fetch from the Chunk Manager.

        Observer.  The data copy happens under ``LOCK(clean)``, so a correct
        cache never returns a torn buffer; the buggy ``WRITE`` branch 3 can
        tear it.
        """
        yield self.reclaim.begin_read()
        yield self.clean_lock.acquire()
        de = yield self._dirty_cell(handle).read()
        ce = yield self._clean_cell(handle).read()
        entry_id = de if de is not None else ce
        if entry_id is not None:
            entry = self._entries[entry_id]
            data: List[int] = []
            for cell in entry.data:
                byte = yield cell.read()
                data.append(byte)
            yield self.clean_lock.release()
            yield self.reclaim.end_read()
            return tuple(data)
        # Miss: fill from the Chunk Manager *while still holding
        # LOCK(clean)* (lock order clean -> chunk, same as FLUSH).  Fetching
        # after releasing the lock would allow a concurrent write + evict to
        # make the fetched bytes stale before they are installed as a clean
        # entry -- a lost-update this repository's own benchmarks caught.
        data = yield from self.chunks.read(ctx, handle)  # vyrd: ignore[VY008] -- effects live in the ChunkManager; the matrix already treats cache ops as mutually dependent
        if data is not None:
            te = self._make_new_entry(handle, ctx.tid)
            yield from self._copy_to_cache(data, te)
            yield te.published.write(True)
            yield self._clean_cell(handle).write(te.eid)
        yield self.clean_lock.release()
        yield self.reclaim.end_read()
        return data

    @operation
    def flush(self, ctx: ThreadCtx):
        """FLUSH(): write every dirty entry back, move them to clean.

        Structural mutator; commit action on the final UNLOCK(clean)
        (Fig. 8's FLUSH commit point)."""
        yield self.reclaim.begin_read()
        yield self.clean_lock.acquire()                     # line 1
        victims: List[Tuple[str, int]] = []
        for handle in list(self._dirty_cells):
            entry_id = yield self._dirty_cell(handle).read()
            if entry_id is None:
                continue
            entry = self._entries[entry_id]
            data: List[int] = []
            for cell in entry.data:
                byte = yield cell.read()
                data.append(byte)
            yield from self.chunks.write(ctx, entry.handle, tuple(data))  # line 7  # vyrd: ignore[VY008] -- effects live in the ChunkManager; the matrix already treats cache ops as mutually dependent
            victims.append((handle, entry_id))              # line 8
        for handle, entry_id in victims:                    # lines 9-13
            yield self._dirty_cell(handle).write(None)
            displaced = yield self._clean_cell(handle).read()
            if displaced is not None and displaced != entry_id:
                yield self._entries[displaced].retired.write(True)
            yield self._clean_cell(handle).write(entry_id)
        yield self.clean_lock.release(commit=True)          # line 14: Commit point
        yield self.reclaim.end_read()
        return None

    @operation
    def evict(self, ctx: ThreadCtx, handle: str):
        """The paper's revoke: write one entry back and drop it entirely."""
        yield self.reclaim.begin_read()
        yield self.clean_lock.acquire()
        de = yield self._dirty_cell(handle).read()
        ce = yield self._clean_cell(handle).read()
        entry_id = de if de is not None else ce
        if entry_id is not None:
            entry = self._entries[entry_id]
            if de is not None:
                data: List[int] = []
                for cell in entry.data:
                    byte = yield cell.read()
                    data.append(byte)
                yield from self.chunks.write(ctx, entry.handle, tuple(data))  # vyrd: ignore[VY008] -- effects live in the ChunkManager; the matrix already treats cache ops as mutually dependent
                yield self._dirty_cell(handle).write(None)
            else:
                yield self._clean_cell(handle).write(None)
            yield entry.retired.write(True)
        yield self.clean_lock.release(commit=True)
        yield self.reclaim.end_read()
        return None

    @operation
    def reclaim_clean(self, ctx: ThreadCtx):
        """Reclaim memory: drop every clean entry (RECLAIMLOCK writer)."""
        yield self.reclaim.begin_write()
        yield self.clean_lock.acquire()
        for handle in list(self._clean_cells):
            entry_id = yield self._clean_cell(handle).read()
            if entry_id is not None:
                yield self._clean_cell(handle).write(None)
                yield self._entries[entry_id].retired.write(True)
        yield self.clean_lock.release(commit=True)
        yield self.reclaim.end_write()
        return None

    # -- direct helpers --------------------------------------------------------------

    def entry_bytes(self, entry_id: int) -> tuple:
        return tuple(cell.peek() for cell in self._entries[entry_id].data)

    VYRD_METHODS = {
        "write": "mutator",
        "read": "observer",
        "flush": "mutator",
        "evict": "mutator",
        "reclaim_clean": "mutator",
    }

    # The membership-cell accessors memo-create a handle-keyed cell (same
    # name whenever it is created), and entry allocation uses per-thread id
    # counters (see __init__): all three commute with steps of other
    # threads.
    VYRD_CONFLUENT_HELPERS = ("_clean_cell", "_dirty_cell", "_make_new_entry")


def _handle_of(loc: str) -> Optional[str]:
    """The handle a cache or chunk location belongs to, else ``None``.

    Every relevant location name embeds its handle --
    ``cache.ent<id>@<handle>.<field>``, ``cache.clean[<handle>]``,
    ``cache.dirty[<handle>]``, ``chunk[<handle>].<field>`` -- so the view's
    and the invariants' dependency mappings are purely syntactic.
    """
    if loc.startswith("cache.ent"):
        at = loc.find("@")
        return loc[at + 1 : loc.find(".", at)]
    if loc.startswith(("cache.clean[", "cache.dirty[")):
        return loc[loc.find("[") + 1 : loc.find("]")]
    if loc.startswith("chunk["):
        return loc[6 : loc.find("]")]
    return None


def _entry_bytes(state, handle: str, entry_id: int, block_size: int) -> tuple:
    return tuple(
        state.get(f"cache.ent{entry_id}@{handle}.data[{i}]", 0)
        for i in range(block_size)
    )


def cache_view(block_size: int = 8) -> ContributionView:
    """``viewI`` for Cache + Chunk Manager (paper section 7.2.1).

    The abstract store maps each handle to its current byte array: the dirty
    entry's bytes if one exists, else the clean entry's, else the chunk's.
    Unit = handle (:func:`_handle_of`).
    """

    def contribute(state, handle: str):
        de = state.get(f"cache.dirty[{handle}]")
        if de is not None:
            return (handle, _entry_bytes(state, handle, de, block_size))
        ce = state.get(f"cache.clean[{handle}]")
        if ce is not None:
            return (handle, _entry_bytes(state, handle, ce, block_size))
        data = state.get(f"chunk[{handle}].data")
        if data is not None:
            return (handle, data)
        return None

    return ContributionView(unit_of=_handle_of, contribute=contribute, aggregate="list")


def _list_cell_handle(loc: str) -> Optional[str]:
    """Invariant (ii)'s unit map: only the cells it reads -- the two list
    cells and each entry's ``published``/``retired`` flags -- name a
    handle; entry data and chunk cells do not."""
    if loc.startswith("cache.ent"):
        if loc.endswith((".published", ".retired")):
            return _handle_of(loc)
        return None
    if loc.startswith(("cache.clean[", "cache.dirty[")):
        return _handle_of(loc)
    return None


def cache_invariants(block_size: int = 8) -> List[Invariant]:
    """The two runtime invariants of paper section 7.2.1.

    (i)  a clean entry's bytes equal the corresponding chunk's bytes;
    (ii) a published, unretired entry is in exactly one of the lists.

    Both come in a per-unit form keyed by handle, so the checker evaluates
    only the handles a commit touched.
    """

    def clean_unit_matches_chunk(state, spec, handle: str, locs=()) -> bool:
        entry_id = state.get(f"cache.clean[{handle}]")
        return entry_id is None or state.get(f"chunk[{handle}].data") == _entry_bytes(
            state, handle, entry_id, block_size
        )

    def clean_matches_chunk(state, spec) -> bool:
        return all(
            clean_unit_matches_chunk(state, spec, _handle_of(loc))
            for loc, entry_id in state.items_with_prefix("cache.clean[")
            if entry_id is not None
        )

    def listed_once(state, published_loc: str, handle: str) -> bool:
        """Checked at an entry's ``published`` cell: unpublished or retired
        entries pass; any other must be on exactly one of the lists."""
        if not state.get(published_loc):
            return True
        base = published_loc[: -len(".published")]
        if state.get(f"{base}.retired"):
            return True
        entry_id = int(base[len("cache.ent") : base.find("@")])
        on_clean = state.get(f"cache.clean[{handle}]") == entry_id
        on_dirty = state.get(f"cache.dirty[{handle}]") == entry_id
        return on_clean != on_dirty  # neither, or both, fails

    def entry_unit_in_exactly_one_list(state, spec, handle: str, locs) -> bool:
        return all(
            listed_once(state, loc, handle)
            for loc in locs
            if loc.endswith(".published")
        )

    def entry_in_exactly_one_list(state, spec) -> bool:
        return all(
            listed_once(state, loc, _handle_of(loc))
            for loc, _ in state.items_with_prefix("cache.ent")
            if loc.endswith(".published")
        )

    return [
        Invariant(
            "cache.clean-matches-chunk",
            clean_matches_chunk,
            unit_of=_handle_of,
            check_unit=clean_unit_matches_chunk,
        ),
        Invariant(
            "cache.entry-in-exactly-one-list",
            entry_in_exactly_one_list,
            unit_of=_list_cell_handle,
            check_unit=entry_unit_in_exactly_one_list,
        ),
    ]
