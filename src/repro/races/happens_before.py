"""Vector-clock happens-before race detection (FastTrack-style).

The detector replays the synchronization skeleton of a VYRD log recorded
with ``log_locks=True, log_reads=True``:

* each thread carries a vector clock ``C_t`` (created on first sight with
  its own component at 1);
* ``ReleaseAction`` publishes ``C_t`` into the lock's clock and ticks the
  thread (a release-acquire edge to every later acquirer, any mode --
  reader-mode edges over-approximate happens-before, which can only hide
  races between accesses inside concurrent read sections, where a write
  would be a locking bug the lockset detector reports anyway);
* ``AcquireAction`` joins the lock's clock into the acquirer;
* ``SpawnAction`` / ``JoinAction`` provide the fork and join edges;
* accesses to *atomic locations* (``atomic_locs`` prefixes -- volatile or,
  as in Boxwood's B-link tree, cache-mediated storage) act as an
  acquire+release of a per-location synchronization object and are exempt
  from race reporting, the standard FastTrack treatment of volatiles.

Per location the detector keeps the last write as an *epoch* ``c@t`` and
the last read(s) as an epoch that is promoted to a full vector clock on
genuinely concurrent reads (FastTrack's read-share adaptation).  An access
races when the recorded epoch is not covered by the accessing thread's
clock.  One race is reported per location (the first), carrying both access
sites with held locksets for the Fig. 6-style excerpt.
"""

from __future__ import annotations

from typing import Dict, Optional

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
from .lockset import HeldLockTracker
from .model import (
    HB_DETECTOR,
    READ_WRITE,
    WRITE_READ,
    WRITE_WRITE,
    AccessSite,
    Race,
)
from .vectorclock import VectorClock


class _VarState:
    """Per-location FastTrack metadata plus reporting sites.

    The last write is the epoch ``write_clock@write_tid``; the last read is
    the epoch ``read_clock@read_tid`` on the fast path, or the clock
    ``shared`` once concurrent reads promoted it.  Sites are kept as
    tuples: one per epoch, one per reader while shared.
    """

    __slots__ = ("write_tid", "write_clock", "write_site", "read_tid",
                 "read_clock", "read_site", "shared", "read_sites", "reported")

    def __init__(self):
        self.write_tid: Optional[int] = None  # None: no write yet
        self.write_clock = 0
        self.write_site: Optional[tuple] = None
        self.read_tid: Optional[int] = None   # None: no read epoch
        self.read_clock = 0
        self.read_site: Optional[tuple] = None
        self.shared: Optional[VectorClock] = None
        self.read_sites: Dict[int, tuple] = {}
        self.reported = False


class HappensBeforeDetector:
    """Incremental happens-before race detection over log records.

    ``held`` is the lock tracker the access sites' lock sets come from (a
    :class:`~repro.races.RaceChecker` running both detectors shares one).
    """

    name = HB_DETECTOR

    def __init__(self, report_all: bool = False, atomic_locs: tuple = (),
                 held: Optional[HeldLockTracker] = None):
        self.report_all = report_all
        self.atomic_locs = tuple(atomic_locs)
        self.held = held if held is not None else HeldLockTracker()
        self._threads: Dict[int, VectorClock] = {}
        self._locks: Dict[str, VectorClock] = {}
        self._atomics: Dict[str, VectorClock] = {}  # per atomic loc sync clock
        self._vars: Dict[str, _VarState] = {}

    @property
    def locations_tracked(self) -> int:
        return len(self._vars)

    def _clock(self, tid: int) -> VectorClock:
        vc = self._threads.get(tid)
        if vc is None:
            vc = VectorClock({tid: 1})
            self._threads[tid] = vc
        return vc

    # -- per-record processing ---------------------------------------------

    def feed(self, seq: int, action: Action) -> Optional[Race]:
        handler = _HANDLERS.get(type(action))
        if handler is None:
            handler = subclass_entry(_HANDLERS, action, ignore_record)
        return handler(self, seq, action)

    def _acquire(self, seq: int, action: AcquireAction) -> None:
        self.held.acquire(action.tid, action.lock, action.mode)
        lock_vc = self._locks.get(action.lock)
        if lock_vc is not None:
            self._clock(action.tid).join(lock_vc)

    def _release(self, seq: int, action: ReleaseAction) -> None:
        self.held.release(action.tid, action.lock, action.mode)
        vc = self._clock(action.tid)
        self._locks[action.lock] = vc.copy()
        vc.tick(action.tid)

    def _spawn(self, seq: int, action: SpawnAction) -> None:
        parent = self._clock(action.tid)
        child = self._clock(action.child_tid)
        child.join(parent)
        parent.tick(action.tid)

    def _join(self, seq: int, action: JoinAction) -> None:
        self._clock(action.tid).join(self._clock(action.child_tid))

    def _sync_access(self, tid: int, loc: str) -> None:
        """An atomic-location access: acquire+release of its sync object."""
        vc = self._clock(tid)
        sync = self._atomics.get(loc)
        if sync is not None:
            vc.join(sync)
        self._atomics[loc] = vc.copy()
        vc.tick(tid)

    # -- access rules --------------------------------------------------------

    def _report(self, var: _VarState, kind: str,
                prior: Optional[tuple], site: tuple) -> Optional[Race]:
        if prior is None or (var.reported and not self.report_all):
            return None
        var.reported = True
        return Race(
            site[3], kind, AccessSite(*prior), AccessSite(*site), HB_DETECTOR,
            "accesses unordered by happens-before",
        )

    def _read(self, seq: int, action: ReadAction) -> Optional[Race]:
        tid, loc = action.tid, action.loc
        if self.atomic_locs and loc.startswith(self.atomic_locs):
            self._sync_access(tid, loc)
            return None
        vc = self._clock(tid)
        var = self._vars.get(loc)
        if var is None:
            var = self._vars[loc] = _VarState()
        site = (tid, seq, "read", loc, action.op_id, self.held.held(tid))
        race = None
        writer = var.write_tid
        if writer is not None and writer != tid and var.write_clock > vc.get(writer):
            race = self._report(var, WRITE_READ, var.write_site, site)
        # update the read state (epoch fast path, clock once shared)
        shared = var.shared
        if shared is not None:
            shared.set(tid, vc.get(tid))
            var.read_sites[tid] = site
            return race
        reader = var.read_tid
        if reader is not None and reader != tid and var.read_clock > vc.get(reader):
            # concurrent reads: promote to a full clock (read-share)
            var.shared = VectorClock({reader: var.read_clock, tid: vc.get(tid)})
            var.read_sites = {reader: var.read_site, tid: site}
            var.read_tid = var.read_site = None
        else:
            var.read_tid = tid
            var.read_clock = vc.get(tid)
            var.read_site = site
        return race

    def _write(self, seq: int, action: WriteAction) -> Optional[Race]:
        tid, loc = action.tid, action.loc
        if self.atomic_locs and loc.startswith(self.atomic_locs):
            self._sync_access(tid, loc)
            return None
        vc = self._clock(tid)
        var = self._vars.get(loc)
        if var is None:
            var = self._vars[loc] = _VarState()
        site = (tid, seq, "write", loc, action.op_id, self.held.held(tid))
        race = None
        writer = var.write_tid
        if writer is not None and writer != tid and var.write_clock > vc.get(writer):
            race = self._report(var, WRITE_WRITE, var.write_site, site)
        if race is None:
            reader = var.read_tid
            if reader is not None:
                if reader != tid and var.read_clock > vc.get(reader):
                    race = self._report(var, READ_WRITE, var.read_site, site)
            elif var.shared is not None:
                for reader, clock in var.shared.items():
                    if reader != tid and clock > vc.get(reader):
                        prior = var.read_sites.get(reader)
                        race = self._report(var, READ_WRITE, prior, site)
                        break
        var.write_tid = tid
        var.write_clock = vc.get(tid)
        var.write_site = site
        # all prior reads are now checked against; restart read tracking
        var.read_tid = var.read_site = var.shared = None
        if var.read_sites:
            var.read_sites = {}
        return race


#: Record type -> handler, in the order a subclass is matched against.
_HANDLERS = {
    AcquireAction: HappensBeforeDetector._acquire,
    ReleaseAction: HappensBeforeDetector._release,
    SpawnAction: HappensBeforeDetector._spawn,
    JoinAction: HappensBeforeDetector._join,
    ReadAction: HappensBeforeDetector._read,
    WriteAction: HappensBeforeDetector._write,
}
#: Records without happens-before content, after every handled type so a
#: subclass of a handled type still finds its handler first.
_HANDLERS.update(dict.fromkeys(
    (CallAction, ReturnAction, CommitAction, BeginCommitBlockAction,
     EndCommitBlockAction, ReplayAction), ignore_record,
))
