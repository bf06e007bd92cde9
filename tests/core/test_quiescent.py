"""Quiescent-point view checking (the section 8 commit-atomicity baseline)."""

import pytest

from repro.core import (
    CallAction,
    CommitAction,
    Log,
    RefinementChecker,
    ReturnAction,
    ViolationKind,
    WriteAction,
    check_log,
)
from tests.core.test_refinement_unit import RegisterSpec, register_view


def _lost_write_log(extra_overlapping=True):
    """set(5) whose write was lost.  With another execution overlapping every
    point of the run, no quiescent state exists until the very end."""
    actions = [
        CallAction(0, 0, "set", (5,)),
        CommitAction(0, 0),  # no WriteAction: the write was lost
    ]
    if extra_overlapping:
        actions = (
            [CallAction(1, 9, "set", (7,))]
            + actions
            + [
                ReturnAction(0, 0, "set", True),
                WriteAction(1, 9, "reg", None, 7),
                CommitAction(1, 9),
                ReturnAction(1, 9, "set", True),
            ]
        )
    else:
        actions += [ReturnAction(0, 0, "set", True)]
    return Log(actions)


def test_commit_mode_detects_at_the_commit():
    log = _lost_write_log(extra_overlapping=False)
    outcome = check_log(log, RegisterSpec(), mode="view", impl_view=register_view())
    assert not outcome.ok
    assert outcome.detection_method_count == 0  # at the commit itself


def test_quiescent_mode_detects_only_at_quiescence():
    log = _lost_write_log(extra_overlapping=False)
    outcome = check_log(log, RegisterSpec(), mode="view",
                        impl_view=register_view(), view_at="quiescent")
    assert not outcome.ok
    # detection only after the return made the run quiescent
    assert outcome.first_violation.message.endswith("quiescent state")


def test_quiescent_mode_can_miss_overwritten_errors():
    """The paper's warning: 'checking only at these points might cause
    errors to be overwritten'.  Here t1's later write fixes the register
    before the first quiescent point, so quiescent checking sees nothing
    (the final state happens to match) while commit checking catches t0's
    lost write."""
    log = Log([
        CallAction(1, 9, "set", (7,)),
        CallAction(0, 0, "set", (7,)),
        CommitAction(0, 0),                   # lost write: state None, spec 7
        ReturnAction(0, 0, "set", True),
        WriteAction(1, 9, "reg", None, 7),
        CommitAction(1, 9),
        ReturnAction(1, 9, "set", True),      # quiescent: state 7, spec 7
    ])
    commit_outcome = check_log(
        log, RegisterSpec(), mode="view", impl_view=register_view()
    )
    assert not commit_outcome.ok
    quiescent_outcome = check_log(
        log, RegisterSpec(), mode="view", impl_view=register_view(),
        view_at="quiescent",
    )
    assert quiescent_outcome.ok  # the error was overwritten before quiescence


def test_quiescent_mode_accepts_correct_runs():
    log = Log([
        CallAction(0, 0, "set", (5,)),
        WriteAction(0, 0, "reg", None, 5),
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", True),
    ])
    outcome = check_log(log, RegisterSpec(), mode="view",
                        impl_view=register_view(), view_at="quiescent")
    assert outcome.ok


def test_no_quiescent_point_means_no_state_check_until_finish():
    """Two permanently-overlapping executions: the only state check is the
    final one."""
    log = _lost_write_log(extra_overlapping=True)
    checker = RefinementChecker(
        RegisterSpec(), mode="view", impl_view=register_view(),
        view_at="quiescent",
    )
    checker.feed(log)
    outcome = checker.finish()
    # quiescence first occurs at the very last return, where t1's write has
    # already made the state consistent -> the lost write goes unnoticed
    assert outcome.ok


def test_invalid_view_at_rejected():
    with pytest.raises(ValueError):
        RefinementChecker(RegisterSpec(), mode="view",
                          impl_view=register_view(), view_at="sometimes")


def test_io_checking_is_unaffected_by_view_at():
    log = Log([
        CallAction(0, 0, "set", (5,)),
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", "bogus"),
    ])
    outcome = check_log(log, RegisterSpec(), mode="view",
                        impl_view=register_view(), view_at="quiescent")
    assert not outcome.ok
    assert outcome.first_violation.kind is ViolationKind.IO
