"""A concurrent B-link tree (paper sections 7.2.3-7.2.5, Fig. 9).

The Boxwood BLinkTree is a highly concurrent B-link tree in the style of
Sagiv / Lehman-Yao: every node carries a *high key* (exclusive upper bound on
the keys it covers) and a *right link* to its right sibling, so descents can
run without locks and recover from concurrent splits by "moving right".
(key, data) pairs live in separate *data nodes* pointed to by leaf entries
(the paper's leaf pointer nodes, section 7.2.4); the non-data indexing
structure is restructured concurrently and is abstracted away by the view.

Storage model.  Each tree node is one shared cell holding an immutable
record; each update of a node is therefore a single atomic logged write --
faithful to Boxwood, where every shared variable is a byte array written
wholesale through Cache/Chunk Manager with a version number.  (The paper
verifies BLinkTree *modularly*, assuming Cache + Chunk Manager correct, so
the tree talks to plain shared variables here; DESIGN.md records this.)

* ``blt.root`` -- node id of the root.
* ``blt.n<id>`` -- node record:
  ``("leaf", 0, entries, high, right)`` with ``entries`` a sorted tuple of
  ``(key, data_node_id)``; or ``("index", level, keys, children, high,
  right)``.
* ``blt.d<id>`` -- data node record ``(key, data, version, live)``.

Commit actions follow Fig. 9's conditional commit points: the *single
decisive write to a leaf or data node* commits; all index-node restructuring
is uncommitted (this is the paper's reduction-defeating ``W(p) W(q)``
pattern: methods write both data and index nodes under locks, yet only the
data write changes the abstract state).

* Commit point 1 -- key already present: the data-node overwrite.
* Commit point 2 -- safe leaf: the leaf write that adds the entry.
* Commit points 3/4 -- leaf split (non-root / root): the left-half write
  that atomically publishes the new right sibling via the right link.
* Delete -- the data-node tombstone write; failure paths take a standalone
  commit while still holding the leaf lock (making the strict delete spec
  sound).

Deletion marks data nodes dead (tombstones); the *compression thread*
(section 7.2.3) walks the leaf chain purging dead entries -- an internal
(op-less) commit per purge, which the view checker verifies leaves the
abstract contents unchanged.

The injected bug (Table 1's "Allowing duplicated data nodes",
``buggy_duplicates=True``): the membership test runs only during the
unlocked descent and is *not repeated* once the leaf lock is held, so two
concurrent inserts of the same key can both conclude "absent" and add two
data nodes for one key.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from ..concurrency import KernelStopped, Lock, SharedCell, ThreadCtx
from ..core import DependencyView, operation

LEAF = "leaf"
INDEX = "index"


class _NodeSlot:
    """Live handle for one tree node: its record cell and its lock."""

    __slots__ = ("nid", "cell", "lock")

    def __init__(self, nid: int, record):
        self.nid = nid
        self.cell = SharedCell(f"blt.n{nid}", record)
        self.lock = Lock(f"blt.n{nid}")


def _link(record) -> tuple:
    """A node record's ``(high key, right link)``."""
    return (record[3], record[4]) if record[0] == LEAF else (record[4], record[5])


def _covers(record, key) -> bool:
    """Does this node's key range still cover ``key`` (key < high)?"""
    high = record[3] if record[0] == LEAF else record[4]
    return high is None or key < high


def _leaf_entries(record) -> tuple:
    return record[2]


def _child_for(record, key) -> int:
    """Route ``key`` through an index node record."""
    _, _, keys, children, _, _ = record
    index = bisect.bisect_right(keys, key)
    return children[index]


class BLinkTree:
    """Concurrent B-link tree with data nodes, splits and compression."""

    def __init__(self, order: int = 4, buggy_duplicates: bool = False):
        if order < 2:
            raise ValueError("order must be >= 2")
        self.order = order
        self.buggy_duplicates = buggy_duplicates
        self._nodes: Dict[int, _NodeSlot] = {}
        # per-thread id counters: ids depend only on the allocating
        # thread's own history, never on the interleaving, so allocation
        # commutes with steps of other threads (schedule-confluent) and
        # cell names stay stable across equivalent schedules
        self._node_ids: Dict[int, int] = {}
        self._data_ids: Dict[int, int] = {}
        self._data_cells: Dict[int, SharedCell] = {}
        first_leaf = self._alloc_node((LEAF, 0, (), None, None))
        self.leftmost = first_leaf.nid  # constant: leaves are never removed
        self.root = SharedCell("blt.root", first_leaf.nid)
        self.root_lock = Lock("blt.rootlock")

    # -- allocation ----------------------------------------------------------

    def _alloc_node(self, record, tid: int = -1) -> _NodeSlot:
        seq = self._node_ids.get(tid, 0)
        self._node_ids[tid] = seq + 1
        slot = _NodeSlot((tid + 1) * 1_000_000 + seq, record)
        self._nodes[slot.nid] = slot
        return slot

    def _alloc_data(self, tid: int = -1) -> Tuple[int, SharedCell]:
        seq = self._data_ids.get(tid, 0)
        self._data_ids[tid] = seq + 1
        did = (tid + 1) * 1_000_000 + seq
        cell = SharedCell(f"blt.d{did}", None)
        self._data_cells[did] = cell
        return did, cell

    def node(self, nid: int) -> _NodeSlot:
        return self._nodes[nid]

    # -- unlocked descent ------------------------------------------------------

    def _descend(self, key):
        """MOVE-DOWN-AND-STACK: walk to the leaf covering ``key`` without
        locks, stacking the index node ids visited (Fig. 9 line 5).

        Returns ``(stack, leaf_nid, leaf_record)``."""
        stack: List[int] = []
        nid = yield self.root.read()
        while True:
            record = yield self.node(nid).cell.read()
            if not _covers(record, key):
                nid = record[5] if record[0] == INDEX else record[4]
                continue
            if record[0] == LEAF:
                return stack, nid, record
            stack.append(nid)
            nid = _child_for(record, key)

    def _lock_and_settle(self, key, nid):
        """Lock leaf ``nid``, moving right (lock-coupled) until the locked
        leaf covers ``key``.  Returns ``(nid, record)`` with the lock held."""
        slot = self.node(nid)
        yield slot.lock.acquire()
        while True:
            record = yield slot.cell.read()
            if _covers(record, key):
                return nid, record
            right = record[4]
            right_slot = self.node(right)
            yield right_slot.lock.acquire()
            yield slot.lock.release()
            nid, slot = right, right_slot

    # -- public operations ----------------------------------------------------------

    @operation
    def insert(self, ctx: ThreadCtx, key, data):
        """INSERT(key, data): add or overwrite; always succeeds (Fig. 9)."""
        stack, leaf_nid, leaf_record = yield from self._descend(key)
        if self.buggy_duplicates:
            # BUG: membership decided on the *unlocked* snapshot and never
            # re-checked under the lock.
            present = any(k == key for k, _ in _leaf_entries(leaf_record))
            leaf_nid, leaf_record = yield from self._lock_and_settle(key, leaf_nid)
        else:
            leaf_nid, leaf_record = yield from self._lock_and_settle(key, leaf_nid)
            present = any(k == key for k, _ in _leaf_entries(leaf_record))
        slot = self.node(leaf_nid)
        entries = _leaf_entries(leaf_record)

        # In buggy mode the stale "present" decision may no longer hold once
        # the lock is taken (the entry was purged meanwhile): fall through to
        # the add path, exactly as code trusting a stale check would.
        position = (
            next((i for i, (k, _) in enumerate(entries) if k == key), None)
            if present
            else None
        )
        if position is not None:
            dnid = entries[position][1]
            data_cell = self._data_cells[dnid]
            record = yield data_cell.read()
            _, _, version, live = record
            if live:
                # Fig. 9 line 14: OVERWRITE -- Commit point 1
                yield data_cell.write((key, data, version + 1, True), commit=True)
                yield slot.lock.release()
                return True
            # tombstoned entry: revive with a fresh data node (version 1)
            new_did, new_cell = self._alloc_data(ctx.tid)
            yield new_cell.write((key, data, 1, True))
            new_entries = entries[:position] + ((key, new_did),) + entries[position + 1 :]
            yield slot.cell.write(
                (LEAF, 0, new_entries, leaf_record[3], leaf_record[4]), commit=True
            )
            yield slot.lock.release()
            return True

        new_did, new_cell = self._alloc_data(ctx.tid)
        yield new_cell.write((key, data, 1, True))
        new_entries = tuple(sorted(entries + ((key, new_did),)))
        if len(new_entries) <= self.order:
            # safe leaf -- Commit point 2 (Fig. 9 line 39 vicinity)
            yield slot.cell.write(
                (LEAF, 0, new_entries, leaf_record[3], leaf_record[4]), commit=True
            )
            yield slot.lock.release()
            return True

        # Unsafe: split the leaf.  Commit point 3 (or 4 when it is the root):
        # the left-half write that publishes the new sibling via the link.
        mid = len(new_entries) // 2
        split_key = new_entries[mid][0]
        right_slot = self._alloc_node(
            (LEAF, 0, new_entries[mid:], leaf_record[3], leaf_record[4]),
            ctx.tid,
        )
        yield right_slot.cell.write(
            (LEAF, 0, new_entries[mid:], leaf_record[3], leaf_record[4])
        )
        yield slot.cell.write(
            (LEAF, 0, new_entries[:mid], split_key, right_slot.nid), commit=True
        )
        yield slot.lock.release()
        yield from self._insert_separator(ctx, stack, split_key, leaf_nid, right_slot.nid, 1)
        return True

    def _insert_separator(self, ctx: ThreadCtx, stack: List[int], sep,
                          left_child: int, new_child: int, level: int):
        """Publish a split upward: pure restructuring, no commit actions."""
        while True:
            parent_nid = yield from self._parent_at_level(
                ctx, stack, sep, left_child, new_child, level
            )
            if parent_nid is None:
                return  # a new root was created for this split
            parent_slot = self.node(parent_nid)
            yield parent_slot.lock.acquire()
            record = yield parent_slot.cell.read()
            # move right until the parent covers the separator
            while not _covers(record, sep):
                right = record[5]
                right_slot = self.node(right)
                yield right_slot.lock.acquire()
                yield parent_slot.lock.release()
                parent_nid, parent_slot = right, right_slot
                record = yield parent_slot.cell.read()
            _, plevel, keys, children, high, right = record
            position = bisect.bisect_right(keys, sep)
            if position and keys[position - 1] == sep:
                # already posted by a root grown over this level
                yield parent_slot.lock.release()
                return
            new_keys = keys[:position] + (sep,) + keys[position:]
            new_children = children[: position + 1] + (new_child,) + children[position + 1 :]
            if len(new_keys) <= self.order:
                yield parent_slot.cell.write(
                    (INDEX, plevel, new_keys, new_children, high, right)
                )
                yield parent_slot.lock.release()
                return
            # split the index node and recurse one level up
            mid = len(new_keys) // 2
            up_key = new_keys[mid]
            right_rec = (
                INDEX, plevel, new_keys[mid + 1 :], new_children[mid + 1 :], high, right,
            )
            right_ix = self._alloc_node(right_rec, ctx.tid)
            yield right_ix.cell.write(right_rec)
            yield parent_slot.cell.write(
                (INDEX, plevel, new_keys[:mid], new_children[: mid + 1], up_key, right_ix.nid)
            )
            yield parent_slot.lock.release()
            sep, left_child, new_child, level = up_key, parent_nid, right_ix.nid, plevel + 1

    def _parent_at_level(self, ctx: ThreadCtx, stack: List[int], sep,
                         left_child: int, new_child: int, level: int):
        """Pop the descent stack, or re-derive the parent (possibly creating
        a new root).  Returns a node id, or ``None`` if a root was created."""
        if stack:
            return stack.pop()
        yield self.root_lock.acquire()
        root_nid = yield self.root.read()
        root_record = yield self.node(root_nid).cell.read()
        root_level = 0 if root_record[0] == LEAF else root_record[1]
        if root_level < level:
            # A node on the root's level split: grow the tree -- pure
            # restructuring, no commit action.  The new root spans that
            # level from the root along the right links to ``new_child``:
            # splits left of this one may not have posted yet (their
            # threads wait on the root lock), and a root over only this
            # split's pair would drop those nodes from the index.  Their
            # splitters find their separators posted and skip them;
            # splits right of ``new_child`` post their own.
            keys, children = [], [root_nid]
            record = root_record
            while children[-1] != left_child:
                high, right = _link(record)
                keys.append(high)
                children.append(right)
                record = yield self.node(right).cell.read()
            root = (INDEX, level, (*keys, sep), (*children, new_child), None, None)
            new_root = self._alloc_node(root, ctx.tid)
            yield new_root.cell.write(root)
            yield self.root.write(new_root.nid)
            yield self.root_lock.release()
            return None
        yield self.root_lock.release()
        # the tree already has the target level: walk down to it
        nid = root_nid
        record = root_record
        while True:
            node_level = 0 if record[0] == LEAF else record[1]
            if node_level == level:
                return nid
            if not _covers(record, sep):
                nid = record[5] if record[0] == INDEX else record[4]
            else:
                nid = _child_for(record, sep)
            record = yield self.node(nid).cell.read()

    @operation
    def delete(self, ctx: ThreadCtx, key):
        """DELETE(key): tombstone the data node; strict failure reporting."""
        _, leaf_nid, _ = yield from self._descend(key)
        leaf_nid, leaf_record = yield from self._lock_and_settle(key, leaf_nid)
        slot = self.node(leaf_nid)
        for k, dnid in _leaf_entries(leaf_record):
            if k == key:
                data_cell = self._data_cells[dnid]
                record = yield data_cell.read()
                _, data, version, live = record
                if live:
                    yield data_cell.write((key, data, version, False), commit=True)
                    yield slot.lock.release()
                    return True
                yield ctx.commit()  # dead entry: failure decided under lock
                yield slot.lock.release()
                return False
        yield ctx.commit()  # absent: failure decided under lock
        yield slot.lock.release()
        return False

    @operation
    def lookup(self, ctx: ThreadCtx, key):
        """LOOKUP(key): lock-free observer; data value or ``None``."""
        nid = yield self.root.read()
        while True:
            record = yield self.node(nid).cell.read()
            if not _covers(record, key):
                nid = record[5] if record[0] == INDEX else record[4]
                continue
            if record[0] == INDEX:
                nid = _child_for(record, key)
                continue
            for k, dnid in _leaf_entries(record):
                if k == key:
                    data_record = yield self._data_cells[dnid].read()
                    _, data, _, live = data_record
                    return data if live else None
            return None

    # -- compression (section 7.2.3) --------------------------------------------------

    def compression_pass(self, ctx: ThreadCtx):
        """Purge dead entries along the leaf chain; True if any purged."""
        purged = False
        nid = self.leftmost
        while nid is not None:
            slot = self.node(nid)
            yield slot.lock.acquire()
            record = yield slot.cell.read()
            entries = _leaf_entries(record)
            keep: List[tuple] = []
            for k, dnid in entries:
                data_record = yield self._data_cells[dnid].read()
                if data_record is not None and data_record[3]:
                    keep.append((k, dnid))
            if len(keep) != len(entries):
                # internal commit: the purge must not change the view
                yield slot.cell.write(
                    (LEAF, 0, tuple(keep), record[3], record[4]), commit=True
                )
                purged = True
            next_nid = record[4]
            yield slot.lock.release()
            nid = next_nid
        return purged

    def compression_thread(self, ctx: ThreadCtx):
        """Daemon body: continuously purge tombstones."""
        try:
            while True:
                yield ctx.checkpoint()
                yield from self.compression_pass(ctx)
        except KernelStopped:
            return

    # -- direct helpers ----------------------------------------------------------------

    def contents(self) -> dict:
        """key -> (data, version) via direct leaf-chain walk (post-run)."""
        result: dict = {}
        nid = self.leftmost
        while nid is not None:
            record = self._nodes[nid].cell.peek()
            for key, dnid in record[2]:
                data_record = self._data_cells[dnid].peek()
                if data_record is not None and data_record[3]:
                    result[key] = (data_record[1], data_record[2])
            nid = record[4]
        return result

    def check_structure(self) -> List[str]:
        """Structural invariants for tests: sortedness, key coverage, links."""
        problems: List[str] = []
        nid = self.leftmost
        previous_high = None
        while nid is not None:
            record = self._nodes[nid].cell.peek()
            if record[0] != LEAF:
                problems.append(f"n{nid}: leaf chain reached a non-leaf")
                break
            entries = record[2]
            keys = [k for k, _ in entries]
            if keys != sorted(keys):
                problems.append(f"n{nid}: entries not sorted: {keys}")
            if previous_high is not None and keys and keys[0] < previous_high:
                problems.append(
                    f"n{nid}: first key {keys[0]!r} below previous high {previous_high!r}"
                )
            high = record[3]
            if high is not None and keys and keys[-1] >= high:
                problems.append(f"n{nid}: last key {keys[-1]!r} >= high {high!r}")
            if high is not None:
                previous_high = high
            nid = record[4]
        return problems

    VYRD_METHODS = {
        "insert": "mutator",
        "delete": "mutator",
        "lookup": "observer",
    }

    # Static mirror of the Program's atomic_locs=("blt.",): every traced
    # blt.* cell is a single atomic location, so the lock-free B-link
    # descents and data-node reads are race-free by construction.
    VYRD_ATOMIC_FIELDS = ("root", "_nodes[*].cell", "_data_cells[*]")
    # Allocation uses per-thread id counters (see __init__), so its hidden
    # writes commute with every step of other threads.
    VYRD_CONFLUENT_HELPERS = ("_alloc_node", "_alloc_data")


def blinktree_view(leftmost: int = 0) -> DependencyView:
    """``viewI`` for :class:`BLinkTree` (paper section 7.2.4).

    The view is the leaf chain walked left to right, collecting the live
    ``(key, data, version)`` triples; the indexing structure is abstracted
    away entirely.  Duplicate data nodes for one key surface as a
    multi-element tuple, which can never match the spec view.

    Maintained *incrementally* as a :class:`DependencyView`: each leaf is a
    unit anchored at its node location, linked to its right sibling, and
    read-dependent on the data nodes its entries reference.  A static
    ``unit_of`` mapping cannot express this structure -- the tree writes
    data nodes and pre-split right siblings *before* the single committing
    leaf write that publishes them (no commit block rolls them back), so a
    data node must contribute to the view exactly when a chain-reachable
    leaf references it.  Discovery-by-links plus recorded read-deps
    reproduce that reachability semantics at O(affected leaves) per commit.
    """

    def expand(reader, unit):
        record = reader.get(unit)
        if record is None or record[0] != LEAF:
            return (), ()
        pairs = []
        for key, dnid in record[2]:
            data_record = reader.get(f"blt.d{dnid}")
            if data_record is not None and data_record[3]:
                pairs.append((key, (data_record[1], data_record[2])))
        links = (f"blt.n{record[4]}",) if record[4] is not None else ()
        return pairs, links

    # sort_key=None: aggregate duplicate contributions with plain sorted(),
    # matching the historical full-walk view value exactly.
    return DependencyView(
        roots=(f"blt.n{leftmost}",), expand=expand, aggregate="list", sort_key=None
    )
