"""Data model of the race-detection subsystem.

A *data race* is a pair of accesses to the same shared location by two
different threads, at least one a write, that are unordered by the
happens-before relation (or, under the lockset discipline, not consistently
protected by a common lock).  Both detectors report the same shape:
an :class:`AccessSite` for each end of the pair, wrapped in a :class:`Race`,
collected into a :class:`RaceOutcome`.

Sites carry everything needed to render a Fig. 6-style two-lane excerpt
through :mod:`repro.races.report`: the thread, the log sequence number, the
enclosing method execution and the locks held at the access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set

#: Race kinds, named after the ordered pair (prior access, racing access).
WRITE_WRITE = "write-write"
WRITE_READ = "write-read"
READ_WRITE = "read-write"
#: Lockset-only kind: the candidate set drained while the location was in
#: the read-shared state (a write-read pair Eraser proper would not report).
READ_SHARED = "read-shared"

HB_DETECTOR = "happens-before"
LOCKSET_DETECTOR = "lockset"


@dataclass(frozen=True)
class AccessSite:
    """One end of a racing pair: who touched what, where in the log.

    The detectors keep every access as a plain tuple of these fields, in
    this order, and build the object only for a reported race.
    """

    tid: int
    seq: int                      # global log sequence number
    kind: str                     # "read" | "write"
    loc: str
    op_id: Optional[int]          # enclosing method execution, if any
    locks: FrozenSet[str] = frozenset()  # locks held at the access

    def __str__(self) -> str:
        held = "{" + ", ".join(sorted(self.locks)) + "}" if self.locks else "{}"
        op = f" op{self.op_id}" if self.op_id is not None else ""
        return f"t{self.tid}@{self.seq} {self.kind} {self.loc}{op} holding {held}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tid": self.tid,
            "seq": self.seq,
            "kind": self.kind,
            "loc": self.loc,
            "op_id": self.op_id,
            "locks": sorted(self.locks),
        }


@dataclass(frozen=True)
class Race:
    """One reported race: two access sites on ``loc``, unordered/unprotected."""

    loc: str
    kind: str                     # WRITE_WRITE / WRITE_READ / READ_WRITE / READ_SHARED
    prior: AccessSite
    access: AccessSite
    detector: str                 # HB_DETECTOR | LOCKSET_DETECTOR
    detail: str = ""

    def __str__(self) -> str:
        text = (
            f"{self.kind} race on {self.loc!r} [{self.detector}]: "
            f"{self.prior}  <->  {self.access}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loc": self.loc,
            "kind": self.kind,
            "detector": self.detector,
            "prior": self.prior.to_dict(),
            "access": self.access.to_dict(),
            "detail": self.detail,
        }


@dataclass
class RaceOutcome:
    """Result of running race detection over one log."""

    detectors: tuple = ()
    races: List[Race] = field(default_factory=list)
    actions_processed: int = 0
    locations_tracked: int = 0

    @property
    def ok(self) -> bool:
        return not self.races

    @property
    def racy_locs(self) -> Set[str]:
        return {race.loc for race in self.races}

    def by_detector(self, detector: str) -> List[Race]:
        return [race for race in self.races if race.detector == detector]

    @property
    def hb_races(self) -> List[Race]:
        return self.by_detector(HB_DETECTOR)

    @property
    def lockset_races(self) -> List[Race]:
        return self.by_detector(LOCKSET_DETECTOR)

    def summary(self) -> str:
        if self.ok:
            return (
                f"race-free: {self.actions_processed} records, "
                f"{self.locations_tracked} locations "
                f"({', '.join(self.detectors)})"
            )
        parts = []
        for detector in self.detectors:
            found = self.by_detector(detector)
            parts.append(f"{detector}: {len(found)} race(s)")
        return (
            f"{len(self.races)} race(s) on {len(self.racy_locs)} location(s) "
            f"[{'; '.join(parts)}]"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "detectors": list(self.detectors),
            "actions_processed": self.actions_processed,
            "locations_tracked": self.locations_tracked,
            "racy_locs": sorted(self.racy_locs),
            "races": [race.to_dict() for race in self.races],
        }
