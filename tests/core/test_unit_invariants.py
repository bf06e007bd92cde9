"""The per-unit invariant contract and the checker's end-of-run drift check."""

import dataclasses
from collections import Counter

import pytest

from repro.core import (
    BeginCommitBlockAction,
    CallAction,
    CommitAction,
    ContributionView,
    EndCommitBlockAction,
    FunctionView,
    Invariant,
    Log,
    RefinementChecker,
    ReturnAction,
    ViolationKind,
    WriteAction,
    check_log,
)

from test_refinement_unit import RegisterSpec


class CellsSpec(RegisterSpec):
    """The register with an empty view: these logs exercise invariants, and
    an empty view on both sides keeps view refinement out of the verdict."""

    def view(self):
        return {}


def _check(log, invariant):
    return check_log(
        log, CellsSpec(), mode="view", impl_view=FunctionView(lambda state: {}),
        invariants=[invariant], stop_at_first=False,
    )


def _all_cells_nonnegative(state, spec):
    return all(value >= 0 for _, value in state.items_with_prefix("cell["))


def _cell_nonnegative(state, spec, unit, locs):
    return all(state.get(loc, 0) >= 0 for loc in locs)


def _cells_invariant(unit_of):
    return Invariant(
        "cells-nonnegative", _all_cells_nonnegative,
        unit_of=unit_of, check_unit=_cell_nonnegative,
    )


def _every_cell(loc):
    return loc if loc.startswith("cell[") else None


def _only_cell_zero(loc):
    return loc if loc == "cell[0]" else None


def _set(op_id, *writes):
    """One ``set`` execution whose body writes ``(loc, value)`` pairs."""
    return [
        CallAction(0, op_id, "set", (op_id,)),
        *(WriteAction(0, op_id, loc, None, value) for loc, value in writes),
        CommitAction(0, op_id),
        ReturnAction(0, op_id, "set", True),
    ]


def test_unit_form_comes_as_a_pair():
    with pytest.raises(TypeError, match="together"):
        Invariant("half", _all_cells_nonnegative, unit_of=_every_cell)
    with pytest.raises(TypeError, match="together"):
        Invariant("half", _all_cells_nonnegative, check_unit=_cell_nonnegative)
    invariant = _cells_invariant(_every_cell)
    assert invariant.per_unit
    full_only = dataclasses.replace(invariant, unit_of=None, check_unit=None)
    assert not full_only.per_unit
    assert full_only.check is invariant.check


def test_broken_unit_is_reported_at_every_later_check():
    log = Log(_set(0, ("cell[1]", -1)) + _set(1, ("cell[2]", 5)) + _set(2))
    outcome = _check(log, _cells_invariant(_every_cell))
    assert [(v.kind, v.seq) for v in outcome.violations] == [
        (ViolationKind.INVARIANT, 2),
        (ViolationKind.INVARIANT, 6),
        (ViolationKind.INVARIANT, 9),
    ]
    assert outcome.first_violation.details["units"] == ["cell[1]"]


def test_unit_map_missing_a_read_location_is_instrumentation_at_finish():
    """``unit_of`` never names cell[1], which the invariant reads: the
    per-unit form misses the break, and the full check at ``finish()``
    reports the gap as INSTRUMENTATION, never as INVARIANT."""
    log = Log(_set(0, ("cell[1]", -1)) + _set(1, ("cell[0]", 3)))
    outcome = _check(log, _cells_invariant(_only_cell_zero))
    assert [(v.kind, v.seq) for v in outcome.violations] == [
        (ViolationKind.INSTRUMENTATION, len(log)),
    ]
    assert "invariant unit map incomplete" in outcome.first_violation.message
    assert outcome.stats["invariant_drift"] == ["cells-nonnegative"]


def test_complete_unit_map_has_no_drift():
    log = Log(_set(0, ("cell[1]", -1)) + _set(1, ("cell[1]", 4)))
    outcome = _check(log, _cells_invariant(_every_cell))
    # broken at the first commit, repaired at the second: nothing at finish
    assert [(v.kind, v.seq) for v in outcome.violations] == [
        (ViolationKind.INVARIANT, 2),
    ]
    assert "invariant_drift" not in outcome.stats


def test_unit_of_is_called_once_per_distinct_location():
    """``unit_of`` is a pure function of the location name, so over a
    whole check the view and each per-unit invariant map a location once,
    however often it is written, shadowed by another thread's open commit
    block or revisited by the final full check."""
    calls = {"view": Counter(), "invariant": Counter()}

    def counting(owner):
        def unit_of(loc):
            calls[owner][loc] += 1
            return _every_cell(loc)

        return unit_of

    log = Log(
        _set(0, ("cell[0]", 1), ("cell[1]", 2))
        + [
            CallAction(1, 1, "set", (1,)),
            BeginCommitBlockAction(1, 1),
            WriteAction(1, 1, "cell[1]", 2, 3),
            WriteAction(1, 1, "other", None, 0),
        ]
        # commits while thread 1's open block shadows cell[1] and other
        + _set(2, ("cell[0]", 4), ("cell[2]", 5))
        + [
            EndCommitBlockAction(1, 1),
            CommitAction(1, 1),
            ReturnAction(1, 1, "set", True),
        ]
        + _set(3, ("cell[1]", 6), ("cell[0]", 7))
    )
    checker = RefinementChecker(
        CellsSpec(), mode="view",
        impl_view=ContributionView(
            unit_of=counting("view"), contribute=lambda state, unit: None
        ),
        invariants=[_cells_invariant(counting("invariant"))],
    )
    checker.feed(log)
    assert checker.finish().ok
    once = Counter(dict.fromkeys(("cell[0]", "cell[1]", "cell[2]", "other"), 1))
    assert calls == {"view": once, "invariant": once}
