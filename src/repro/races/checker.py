"""The :class:`RaceChecker` facade: interchangeable analyses, one feed API.

Mirrors :class:`repro.core.refinement.RefinementChecker`'s incremental
protocol so the online verification thread can drive race detection on the
log tail exactly like refinement checking::

    checker = RaceChecker(detectors="both")
    checker.feed(log.since(cursor))   # any number of times, in log order
    outcome = checker.finish()

The log must contain synchronization and read events
(``VyrdTracer(log_locks=True, log_reads=True)``, or ``Vyrd(races=...)``
which turns them on for you).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from ..core.actions import Action
from ..core.checkpoint import CheckpointError
from ..core.plan import CheckPlan
from .happens_before import HappensBeforeDetector
from .lockset import ERASER, HeldLockTracker, LocksetEngine
from .model import HB_DETECTOR, LOCKSET_DETECTOR, Race, RaceOutcome

#: Accepted spellings for detector selection.
HB = "hb"
LOCKSET = "lockset"
BOTH = "both"


def normalize_detectors(selection) -> Tuple[str, ...]:
    """Map a user-facing selection to a tuple of canonical detector names.

    Accepts ``True``/``"both"`` (both analyses), ``"hb"``/``"happens-before"``,
    ``"lockset"``/``"eraser"``, or an iterable of those.
    """
    if selection is True or selection == BOTH:
        return (HB_DETECTOR, LOCKSET_DETECTOR)
    if isinstance(selection, str):
        selection = (selection,)
    names = []
    for item in selection:
        if item in (HB, HB_DETECTOR):
            name = HB_DETECTOR
        elif item in (LOCKSET, LOCKSET_DETECTOR, ERASER):
            name = LOCKSET_DETECTOR
        else:
            raise ValueError(
                f"unknown race detector {item!r} "
                f"(choose from {HB!r}, {LOCKSET!r}, {BOTH!r})"
            )
        if name not in names:
            names.append(name)
    if not names:
        raise ValueError("no race detector selected")
    return tuple(names)


class RaceChecker:
    """Incremental dynamic race detection over a VYRD log.

    Parameters
    ----------
    detectors:
        ``"hb"`` (vector-clock happens-before), ``"lockset"`` (full Eraser
        state machine), or ``"both"`` (default).
    stop_at_first:
        Stop analysing after the first race (the online verifier's default
        refinement behaviour is *not* mirrored here: race detection is a
        monitor, so the default keeps going and reports one race per
        location).
    atomic_locs:
        Location-name prefixes whose accesses are atomic by construction
        (volatile, or mediated by an internally-locked layer like Boxwood's
        cache).  They synchronize instead of racing: the happens-before
        detector draws a release-acquire edge per access, and both
        detectors exempt them from race reporting.
    """

    def __init__(self, detectors: Union[bool, str, Iterable[str]] = BOTH,
                 stop_at_first: bool = False, atomic_locs: Iterable[str] = ()):
        self.detectors = normalize_detectors(detectors)
        self.stop_at_first = stop_at_first
        self.atomic_locs = tuple(atomic_locs)
        held = HeldLockTracker()  # both detectors track the same locks
        self._hb: Optional[HappensBeforeDetector] = (
            HappensBeforeDetector(atomic_locs=self.atomic_locs, held=held)
            if HB_DETECTOR in self.detectors
            else None
        )
        self._lockset: Optional[LocksetEngine] = (
            LocksetEngine(discipline=ERASER, atomic_locs=self.atomic_locs,
                          held=held)
            if LOCKSET_DETECTOR in self.detectors
            else None
        )
        self.races: List[Race] = []
        self._seq = 0
        self._stopped = False
        self._finished: Optional[RaceOutcome] = None

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def detected(self) -> bool:
        return bool(self.races)

    def feed(self, actions: Iterable[Action]) -> List[Race]:
        """Process the next chunk of log records; returns races found in it."""
        found: List[Race] = []
        engines = [
            engine for engine in (self._hb, self._lockset) if engine is not None
        ]
        for action in actions:
            if self._stopped:
                break
            seq = self._seq
            self._seq += 1
            for engine in engines:
                race = engine.feed(seq, action)
                if race is not None:
                    found.append(race)
                    if self.stop_at_first:
                        self._stopped = True
                        break
        self.races.extend(found)
        return found

    def state_dict(self) -> dict:
        """Everything a resumed checker needs; the detectors pickle whole."""
        return dict(vars(self))

    def load_state(self, state: dict) -> None:
        """Resume from :meth:`state_dict` of an identically built checker."""
        config = ("detectors", "stop_at_first", "atomic_locs")
        if [state[key] for key in config] != [getattr(self, key) for key in config]:
            raise CheckpointError(
                "race checkpoint configuration does not match this checker"
            )
        vars(self).update(state)

    def finish(self) -> RaceOutcome:
        """Wrap up and return the outcome (idempotent)."""
        if self._finished is None:
            tracked = max(
                engine.locations_tracked
                for engine in (self._hb, self._lockset)
                if engine is not None
            )
            self._finished = RaceOutcome(
                detectors=self.detectors,
                races=list(self.races),
                actions_processed=self._seq,
                locations_tracked=tracked,
            )
        return self._finished


def check_races(log, detectors: Union[bool, str, Iterable[str]] = BOTH,
                atomic_locs: Iterable[str] = ()) -> RaceOutcome:
    """One-shot convenience: run race detection over a complete log."""
    plan = CheckPlan(races=detectors, atomic_locs=tuple(atomic_locs))
    return plan.check(log).races
