"""Runtime invariant checking hooks.

Besides refinement, VYRD verified structural invariants at runtime (paper
section 7.2.1 checks two invariants of the Boxwood cache, e.g. "if a clean
cache entry exists for a handle, Cache and Chunk Manager must contain the
same byte-array").  An :class:`Invariant` is a named predicate over the
replayed implementation state and the current spec; the checker evaluates
every registered invariant at each commit action.

Evaluating a predicate over the whole state at every commit re-traverses
the program state at each verification step, which section 6.4 argues the
checker must avoid.  An invariant may therefore also come in a *per-unit*
form, the same shape as :class:`~repro.core.view.ContributionView`:
``unit_of`` maps a written location to the unit it belongs to, and
``check_unit`` evaluates one unit.  The checker then re-evaluates only the
units written since its last state check and keeps the running set of
failing units (:class:`UnitInvariantState`); the invariant holds exactly
when that set is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Dict, Hashable, Iterable, Optional

from .view import UnitMemo


@dataclass(frozen=True)
class Invariant:
    """A named predicate ``check(state, spec) -> bool`` evaluated at commits.

    ``state`` is the effective (rollback-applied) replayed implementation
    state; ``spec`` is the specification instance at the same witness point.
    Returning ``False`` produces an INVARIANT violation.

    The optional per-unit form comes as a pair:

    ``unit_of(loc)``
        the unit a written location belongs to, or ``None`` when the
        invariant never reads that location.  It must be a pure function of
        the location name: the checker calls it once per distinct location
        and memoizes the answer (:class:`~repro.core.view.UnitMemo`);
    ``check_unit(state, spec, unit, locs)``
        evaluate one unit.  ``locs`` are the unit's locations the checker
        has seen written, so a unit check never scans the state.

    ``check`` stays the full reference form: the checker cross-checks the
    two at the end of every run.
    """

    name: str
    check: Callable[[Any, Any], bool]
    unit_of: Optional[Callable[[str], Optional[Hashable]]] = None
    check_unit: Optional[
        Callable[[Any, Any, Hashable, AbstractSet[str]], bool]
    ] = None

    def __post_init__(self) -> None:
        if (self.unit_of is None) != (self.check_unit is None):
            raise TypeError(
                f"invariant {self.name!r}: unit_of and check_unit must be "
                "given together"
            )

    @property
    def per_unit(self) -> bool:
        """True when the invariant supplies the per-unit form."""
        return self.check_unit is not None

    def holds(self, state, spec) -> bool:
        return bool(self.check(state, spec))


class UnitInvariantState:
    """The checker's running evaluation of one per-unit invariant.

    * ``dirty`` -- units written since they were last evaluated, plus the
      units shadowed by open commit blocks at the last evaluation;
    * ``failing`` -- units whose last evaluation returned False;
    * ``locs`` -- unit -> the locations seen written (what ``check_unit``
      receives);
    * ``unit_of`` -- the invariant's ``unit_of``, memoized per location
      (derived data: :meth:`state_dict` leaves it out).

    **Invariant:** for every unit outside ``dirty``, membership in
    ``failing`` is what ``check_unit`` would return now -- a unit's verdict
    can only change when one of its locations is written or rolled back,
    and both keep it dirty.  So after :meth:`evaluate` the invariant holds
    exactly when ``failing`` is empty.
    """

    __slots__ = ("invariant", "unit_of", "dirty", "failing", "locs")

    def __init__(self, invariant: Invariant):
        self.invariant = invariant
        self.unit_of = UnitMemo(invariant.unit_of)
        self.dirty: set = set()
        self.failing: set = set()
        self.locs: Dict[Hashable, set] = {}

    def on_write(self, loc: str) -> None:
        unit = self.unit_of[loc]
        if unit is not None:
            self.dirty.add(unit)
            locs = self.locs.get(unit)
            if locs is None:
                self.locs[unit] = {loc}
            else:
                locs.add(loc)

    def evaluate(self, state, spec, shadowed_locs: Iterable[str]) -> int:
        """Re-evaluate the dirty units and the units ``shadowed_locs``
        belong to; returns how many units were evaluated.

        Shadowed locations read rolled-back values now and will read
        different ones once their blocks close, so their units stay dirty
        for the next evaluation (``ContributionView.refresh``'s rule).
        """
        unit_of = self.unit_of
        shadowed = {unit_of[loc] for loc in shadowed_locs}
        shadowed.discard(None)
        todo = self.dirty | shadowed if shadowed else self.dirty
        check_unit = self.invariant.check_unit
        failing = self.failing
        locs = self.locs
        for unit in todo:
            if check_unit(state, spec, unit, locs[unit]):
                failing.discard(unit)
            else:
                failing.add(unit)
        self.dirty = shadowed
        return len(todo)

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "dirty": set(self.dirty),
            "failing": set(self.failing),
            "locs": {unit: set(locs) for unit, locs in self.locs.items()},
        }

    def load_state(self, payload: Dict[str, Any]) -> None:
        self.dirty = set(payload["dirty"])
        self.failing = set(payload["failing"])
        self.locs = {unit: set(locs) for unit, locs in payload["locs"].items()}
