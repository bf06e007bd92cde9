"""The shared lockset engine: Eraser's discipline over a VYRD log.

Eraser [Savage et al., TOCS 1997] checks the *locking discipline*: every
shared location should be consistently protected by some lock.  Each
location carries a candidate set ``C(v)``, intersected with the accessing
thread's held locks; an empty candidate set means no common protection.

Two disciplines share this engine:

``STRICT``
    The simplified variant the atomicity baseline has always used (no
    initialization or read-share states): every access refines ``C(v)``
    and a location is racy as soon as the candidate set is empty and more
    than one thread has touched it.  :mod:`repro.atomicity` delegates its
    pass 1 here.

``ERASER``
    The full virgin -> exclusive -> shared -> shared-modified state machine.
    The initialization window (all accesses by the first thread) and
    read-sharing (many readers, no writer after the transition) do not
    report, which removes the classic false alarms on init-then-share data.
    Two deliberate deviations from the 1997 paper, both making the report
    set a superset of the happens-before detector's (a property the test
    suite checks):

    * ``C(v)`` is refined from the *first* access onward, not only after
      leaving the exclusive state, so a racy pair involving the very first
      access is still caught;
    * with ``report_read_shared`` (default), draining the candidate set in
      the read-shared state reports a ``read-shared`` race against the last
      write instead of staying silent -- Eraser proper trades this false
      negative away.

Reported races carry both access sites (the engine remembers the last
access per thread and the last write per location).  Locations matching an
``atomic_locs`` prefix (volatile / cache-mediated storage, declared per
program) are exempt from the discipline, as Eraser's annotations exempt
volatiles.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..core.actions import (
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
    ignore_record,
    subclass_entry,
)
from .model import (
    LOCKSET_DETECTOR,
    READ_SHARED,
    READ_WRITE,
    WRITE_READ,
    WRITE_WRITE,
    AccessSite,
    Race,
)

STRICT = "strict"
ERASER = "eraser"

# location protection states (ERASER discipline)
_VIRGIN = "virgin"             # implicit: no entry yet
_EXCLUSIVE = "exclusive"       # one thread only (initialization window)
_SHARED = "shared"             # many readers, writes only by first thread
_SHARED_MODIFIED = "shared-modified"


class HeldLockTracker:
    """Locks currently held per thread, split by protection strength.

    Regular locks and write-mode RW-locks protect reads and writes;
    read-mode RW-locks protect reads only.  Each thread's two protection
    sets are frozen once and cached until that thread's next acquire or
    release.  Acquire and release are idempotent, so two detectors can
    share one tracker and both apply every lock record.
    """

    __slots__ = ("_exclusive", "_shared", "_frozen")

    def __init__(self):
        self._exclusive: Dict[int, Set[str]] = {}
        self._shared: Dict[int, Set[str]] = {}
        # tid -> (write protection, read protection)
        self._frozen: Dict[int, Tuple[frozenset, frozenset]] = {}

    def acquire(self, tid: int, lock: str, mode: str) -> None:
        table = self._shared if mode == "r" else self._exclusive
        locks = table.get(tid)
        if locks is None:
            table[tid] = {lock}
        elif lock in locks:
            return
        else:
            locks.add(lock)
        self._frozen.pop(tid, None)

    def release(self, tid: int, lock: str, mode: str) -> None:
        locks = (self._shared if mode == "r" else self._exclusive).get(tid)
        if locks is not None and lock in locks:
            locks.remove(lock)
            self._frozen.pop(tid, None)

    def apply(self, action: Action) -> None:
        """Track one Acquire/Release record (other kinds are ignored)."""
        if isinstance(action, AcquireAction):
            self.acquire(action.tid, action.lock, action.mode)
        elif isinstance(action, ReleaseAction):
            self.release(action.tid, action.lock, action.mode)

    def protection(self, tid: int) -> Tuple[frozenset, frozenset]:
        """``(write_protection, read_protection)`` of ``tid``."""
        sets = self._frozen.get(tid)
        if sets is None:
            exclusive = frozenset(self._exclusive.get(tid, ()))
            shared = self._shared.get(tid)
            sets = (exclusive, exclusive.union(shared) if shared else exclusive)
            self._frozen[tid] = sets
        return sets

    def write_protection(self, tid: int) -> frozenset:
        return self.protection(tid)[0]

    def read_protection(self, tid: int) -> frozenset:
        return self.protection(tid)[1]

    def held(self, tid: int) -> frozenset:
        """Everything held, for access-site display."""
        return self.protection(tid)[1]


class _LocState:
    """Per-location lockset bookkeeping."""

    __slots__ = ("state", "owner", "candidate", "last_write", "last_by_tid",
                 "reported")

    def __init__(self, owner: int, candidate: frozenset):
        self.state = _EXCLUSIVE
        self.owner = owner                     # first accessing thread
        self.candidate = candidate
        self.last_write: Optional[tuple] = None
        # every accessing thread's last access; its keys are the accessors
        self.last_by_tid: Dict[int, tuple] = {}
        self.reported = False


class LocksetEngine:
    """Incremental lockset analysis; feed it every log record in order.

    ``feed`` returns a :class:`Race` the first time a location's discipline
    is violated (``ERASER`` discipline only; ``STRICT`` callers read
    :attr:`racy_locs`).  ``held`` is the lock tracker to use (a
    :class:`~repro.races.RaceChecker` running both detectors shares one).
    """

    def __init__(self, discipline: str = ERASER, report_read_shared: bool = True,
                 atomic_locs: tuple = (), held: Optional[HeldLockTracker] = None):
        if discipline not in (STRICT, ERASER):
            raise ValueError(f"unknown lockset discipline {discipline!r}")
        self.discipline = discipline
        self.report_read_shared = report_read_shared
        self.atomic_locs = tuple(atomic_locs)
        self.held = held if held is not None else HeldLockTracker()
        self._locs: Dict[str, _LocState] = {}
        self._racy: Set[str] = set()

    @property
    def racy_locs(self) -> Set[str]:
        """Locations whose discipline has been violated so far."""
        return set(self._racy)

    @property
    def locations_tracked(self) -> int:
        return len(self._locs)

    # -- per-record processing ---------------------------------------------

    def feed(self, seq: int, action: Action) -> Optional[Race]:
        handler = _HANDLERS.get(type(action))
        if handler is None:
            handler = subclass_entry(_HANDLERS, action, ignore_record)
        return handler(self, seq, action)

    def _acquire(self, seq: int, action: AcquireAction) -> None:
        self.held.acquire(action.tid, action.lock, action.mode)

    def _release(self, seq: int, action: ReleaseAction) -> None:
        self.held.release(action.tid, action.lock, action.mode)

    def _read(self, seq: int, action: ReadAction) -> Optional[Race]:
        return self._access(seq, action.tid, action.op_id, action.loc, "read")

    def _write(self, seq: int, action: WriteAction) -> Optional[Race]:
        return self._access(seq, action.tid, action.op_id, action.loc, "write")

    def _access(
        self, seq: int, tid: int, op_id: Optional[int], loc: str, kind: str
    ) -> Optional[Race]:
        if self.atomic_locs and loc.startswith(self.atomic_locs):
            return None  # volatile/cache-mediated: exempt from the discipline
        write_protection, held = self.held.protection(tid)
        protection = write_protection if kind == "write" else held
        site = (tid, seq, kind, loc, op_id, held)
        entry = self._locs.get(loc)
        if entry is None:
            entry = self._locs[loc] = _LocState(tid, protection)
        else:
            candidate = entry.candidate
            if candidate and not candidate <= protection:
                entry.candidate = candidate & protection
            if entry.state == _EXCLUSIVE and tid != entry.owner:
                entry.state = _SHARED_MODIFIED if kind == "write" else _SHARED
            elif entry.state == _SHARED and kind == "write":
                entry.state = _SHARED_MODIFIED
        # the judge never pairs a site with its own thread's, so this
        # thread's last access may be replaced before it runs
        entry.last_by_tid[tid] = site
        race = None
        if not entry.candidate and not entry.reported:
            race = self._judge(entry, loc, site)
        if kind == "write":
            entry.last_write = site
        return race

    def _judge(self, entry: _LocState, loc: str, site: tuple) -> Optional[Race]:
        """Called when ``loc``'s candidate set is empty and unreported."""
        if self.discipline == STRICT:
            if len(entry.last_by_tid) > 1:
                self._racy.add(loc)
            return None
        tid = site[0]
        if entry.state == _SHARED_MODIFIED:
            prior = self._prior_site(entry, tid)
            if prior is None:
                return None
            if site[2] == "write":
                kind = READ_WRITE if prior[2] == "read" else WRITE_WRITE
            else:
                kind = WRITE_READ
            detail = "no lock consistently protects this location"
        elif entry.state == _SHARED and self.report_read_shared:
            # a write happened in the exclusive window; Eraser proper stays
            # silent here (the read-share exception) -- we surface it
            prior = entry.last_write
            if prior is None or prior[0] == tid:
                return None
            kind = READ_SHARED
            detail = (
                "candidate set drained in the read-shared state "
                "(unprotected write-then-read)"
            )
        else:
            return None
        entry.reported = True
        self._racy.add(loc)
        return Race(loc, kind, AccessSite(*prior), AccessSite(*site),
                    LOCKSET_DETECTOR, detail)

    def _prior_site(self, entry: _LocState, tid: int) -> Optional[tuple]:
        """The other end of the pair: prefer the last write by another
        thread, else the most recent access by another thread."""
        last_write = entry.last_write
        if last_write is not None and last_write[0] != tid:
            return last_write
        best = None
        for other_tid, other in entry.last_by_tid.items():
            if other_tid != tid and (best is None or other[1] > best[1]):
                best = other
        return best


#: Record type -> handler, in the order a subclass is matched against.
_HANDLERS = {
    AcquireAction: LocksetEngine._acquire,
    ReleaseAction: LocksetEngine._release,
    ReadAction: LocksetEngine._read,
    WriteAction: LocksetEngine._write,
}
#: Records the discipline ignores, after every handled type so a subclass
#: of a handled type still finds its handler first.
_HANDLERS.update(dict.fromkeys(
    (CallAction, ReturnAction, CommitAction, BeginCommitBlockAction,
     EndCommitBlockAction, ReplayAction, SpawnAction, JoinAction),
    ignore_record,
))


def compute_racy_locs(log, discipline: str = STRICT) -> Set[str]:
    """One-shot lockset pass over a complete log (atomizer's pass 1)."""
    engine = LocksetEngine(discipline=discipline)
    for seq, action in enumerate(log):
        engine.feed(seq, action)
    return engine.racy_locs
