"""Checker semantics on handcrafted logs, and on registry logs fed in
different batch sizes."""

from collections import deque

import pytest

from repro.core import (
    AnyOf,
    BeginCommitBlockAction,
    CallAction,
    CommitAction,
    ContributionView,
    EndCommitBlockAction,
    FunctionView,
    Invariant,
    Log,
    RefinementChecker,
    ReplayAction,
    ReturnAction,
    SpecReject,
    Specification,
    ViolationKind,
    Vyrd,
    WriteAction,
    check_log,
    mutator,
    observer,
)
from repro.core.plan import CheckPlan
from repro.harness import run_program
from repro.harness.workload import PROGRAMS


class RegisterSpec(Specification):
    """A single register: set(value) -> True; get() observes it."""

    def __init__(self):
        self.value = None

    @mutator
    def set(self, value, *, result):
        if result is not True:
            raise SpecReject("set always returns True")
        self.value = value

    @observer
    def get(self):
        return self.value

    def view(self):
        return {"reg": self.value}


def register_view():
    return FunctionView(lambda state: {"reg": state.get("reg")})


def _op(tid, op_id, method, args, result, seq_actions=None, commit=True):
    """A complete execution: call [, writes], commit, return."""
    actions = [CallAction(tid, op_id, method, args)]
    actions.extend(seq_actions or [])
    if commit:
        actions.append(CommitAction(tid, op_id))
    actions.append(ReturnAction(tid, op_id, method, result))
    return actions


def test_accepting_run_in_io_mode():
    log = Log(
        _op(0, 0, "set", (5,), True)
        + _op(1, 1, "get", (), 5, commit=False)
    )
    outcome = check_log(log, RegisterSpec(), mode="io")
    assert outcome.ok
    assert outcome.methods_checked == 2
    assert outcome.commits_executed == 1


def test_io_violation_on_rejected_return_value():
    log = Log(_op(0, 0, "set", (5,), False))
    outcome = check_log(log, RegisterSpec(), mode="io")
    assert not outcome.ok
    violation = outcome.first_violation
    assert violation.kind is ViolationKind.IO
    assert outcome.detection_method_count == 0


def test_observer_window_allows_any_commit_point():
    """get() overlapping two sets may return the pre-state, the middle state
    or the final state -- but nothing else (paper Fig. 7)."""

    def log_with_get_result(result):
        return Log([
            CallAction(0, 0, "set", (1,)),
            CommitAction(0, 0),
            ReturnAction(0, 0, "set", True),
            CallAction(2, 9, "get", ()),            # window opens: value=1
            CallAction(0, 1, "set", (2,)),
            CommitAction(0, 1),                     # value=2 inside window
            ReturnAction(0, 1, "set", True),
            CallAction(1, 2, "set", (3,)),
            CommitAction(1, 2),                     # value=3 inside window
            ReturnAction(1, 2, "set", True),
            ReturnAction(2, 9, "get", result),      # window closes
        ])

    for allowed in (1, 2, 3):
        assert check_log(log_with_get_result(allowed), RegisterSpec(), mode="io").ok
    outcome = check_log(log_with_get_result(99), RegisterSpec(), mode="io")
    assert not outcome.ok
    assert outcome.first_violation.kind is ViolationKind.OBSERVER
    assert outcome.first_violation.details["allowed"] == [1, 2, 3]


def test_observer_before_any_commit_sees_initial_state():
    log = Log(_op(1, 0, "get", (), None, commit=False))
    assert check_log(log, RegisterSpec(), mode="io").ok


def test_commit_order_defines_witness_not_call_order():
    """The first caller commits second: the spec must be driven in commit
    order (paper section 2's LookUp example)."""
    log = Log([
        CallAction(0, 0, "set", (1,)),
        CallAction(1, 1, "set", (2,)),
        CommitAction(1, 1),                 # t1 commits first
        CommitAction(0, 0),                 # t0 second: final value 1
        ReturnAction(1, 1, "set", True),
        ReturnAction(0, 0, "set", True),
        CallAction(2, 2, "get", ()),
        ReturnAction(2, 2, "get", 1),
    ])
    assert check_log(log, RegisterSpec(), mode="io").ok


def test_anyof_observer_result():
    class FlakySpec(RegisterSpec):
        @observer
        def get(self):
            return AnyOf({self.value, "maybe"})

    log = Log(_op(0, 0, "get", (), "maybe", commit=False))
    assert check_log(log, FlakySpec(), mode="io").ok


def test_mutator_without_commit_is_instrumentation_error():
    log = Log([
        CallAction(0, 0, "set", (5,)),
        ReturnAction(0, 0, "set", True),
    ])
    outcome = check_log(log, RegisterSpec(), mode="io")
    assert outcome.first_violation.kind is ViolationKind.INSTRUMENTATION
    assert "without a commit" in outcome.first_violation.message


def test_double_commit_is_instrumentation_error():
    log = Log([
        CallAction(0, 0, "set", (5,)),
        CommitAction(0, 0),
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", True),
    ])
    outcome = check_log(log, RegisterSpec(), mode="io")
    assert outcome.first_violation.kind is ViolationKind.INSTRUMENTATION
    assert "more than once" in outcome.first_violation.message


def test_observer_with_commit_is_instrumentation_error():
    log = Log([
        CallAction(0, 0, "get", ()),
        CommitAction(0, 0),
        ReturnAction(0, 0, "get", None),
    ])
    outcome = check_log(log, RegisterSpec(), mode="io")
    assert outcome.first_violation.kind is ViolationKind.INSTRUMENTATION


def test_unknown_method_is_instrumentation_error():
    log = Log(_op(0, 0, "frobnicate", (), None))
    outcome = check_log(log, RegisterSpec(), mode="io")
    assert outcome.first_violation.kind is ViolationKind.INSTRUMENTATION


def test_view_refinement_detects_state_divergence():
    """The implementation 'forgets' to write the register: I/O refinement
    passes (set returns True), view refinement catches it at the commit."""
    log = Log([
        CallAction(0, 0, "set", (5,)),
        # no WriteAction: the write was lost
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", True),
    ])
    assert check_log(log, RegisterSpec(), mode="io").ok
    outcome = check_log(log, RegisterSpec(), mode="view", impl_view=register_view())
    assert not outcome.ok
    assert outcome.first_violation.kind is ViolationKind.VIEW
    diff = outcome.first_violation.details["diff"]
    assert diff["differing (viewI, viewS)"] == {"reg": (None, 5)}


def test_view_refinement_accepts_matching_writes():
    log = Log([
        CallAction(0, 0, "set", (5,)),
        WriteAction(0, 0, "reg", None, 5),
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", True),
    ])
    assert check_log(log, RegisterSpec(), mode="view", impl_view=register_view()).ok


def test_view_rollback_of_other_threads_open_block():
    """t1 is mid-commit-block on register b when t0 commits on register a:
    t1's partial writes must be invisible to t0's view check (section 5.2).
    (Commit blocks are atomic sections, so two threads never write the same
    location while a block is open -- the registers here are distinct.)"""

    class TwoRegisterSpec(Specification):
        def __init__(self):
            self.regs = {"a": None, "b": None}

        @mutator
        def set(self, name, value, *, result):
            if result is not True:
                raise SpecReject("set always returns True")
            self.regs[name] = value

        def view(self):
            return dict(self.regs)

    def two_view():
        return FunctionView(
            lambda state: {"a": state.get("a"), "b": state.get("b")}
        )

    log = Log([
        # t1 opens a commit block on b and leaves it half-done
        CallAction(1, 1, "set", ("b", 2)),
        BeginCommitBlockAction(1, 1),
        WriteAction(1, 1, "b", None, "garbage"),
        # t0 performs a complete set on a while t1's block is open
        CallAction(0, 0, "set", ("a", 3)),
        WriteAction(0, 0, "a", None, 3),
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", True),
        # t1 finishes: fixes b and commits
        WriteAction(1, 1, "b", "garbage", 2),
        EndCommitBlockAction(1, 1),
        CommitAction(1, 1),
        ReturnAction(1, 1, "set", True),
    ])
    outcome = check_log(log, TwoRegisterSpec(), mode="view", impl_view=two_view())
    assert outcome.ok, outcome.first_violation

    # Sanity: with the block markers stripped, t0's commit sees "garbage"
    # and view refinement correctly complains.
    no_blocks = Log([
        action
        for action in log
        if not isinstance(action, (BeginCommitBlockAction, EndCommitBlockAction))
    ])
    outcome = check_log(no_blocks, TwoRegisterSpec(), mode="view", impl_view=two_view())
    assert not outcome.ok
    assert outcome.first_violation.kind is ViolationKind.VIEW


def test_internal_commit_checks_view_unchanged():
    good = Log([
        WriteAction(0, None, "reg", None, None),
        CommitAction(0, None),  # writes None over None: view unchanged
    ])
    assert check_log(good, RegisterSpec(), mode="view", impl_view=register_view()).ok

    bad = Log([
        WriteAction(0, None, "reg", None, 42),
        CommitAction(0, None),  # changes the view with no spec transition
    ])
    outcome = check_log(bad, RegisterSpec(), mode="view", impl_view=register_view())
    assert not outcome.ok
    assert outcome.first_violation.kind is ViolationKind.VIEW
    assert outcome.internal_commits == 0 or outcome.violations


def test_invariant_failure_detected_at_commit():
    invariant = Invariant("reg-nonnegative", lambda state, spec: (state.get("reg") or 0) >= 0)
    log = Log([
        CallAction(0, 0, "set", (-1,)),
        WriteAction(0, 0, "reg", None, -1),
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", True),
    ])
    outcome = check_log(log, RegisterSpec(), mode="view", impl_view=register_view(),
                        invariants=[invariant])
    assert not outcome.ok
    assert outcome.first_violation.kind is ViolationKind.INVARIANT


def test_io_mode_refuses_invariants():
    """Invariants read the replayed state, which io mode does not keep:
    every way to ask for them in io mode is refused, not dropped."""
    invariant = Invariant("any", lambda state, spec: True)
    with pytest.raises(ValueError, match="io mode checks no invariants"):
        RefinementChecker(RegisterSpec(), mode="io", invariants=[invariant])
    with pytest.raises(ValueError, match="io mode checks no invariants"):
        check_log(Log([]), RegisterSpec(), mode="io", invariants=[invariant])
    with pytest.raises(ValueError, match="io mode checks no invariants"):
        Vyrd(spec_factory=RegisterSpec, invariants=[invariant])
    session = Vyrd(spec_factory=RegisterSpec, mode="view",
                   impl_view_factory=register_view, invariants=[invariant])
    io = session.plan.in_mode("io")
    assert io.invariants == () and io.log_flags["log_level"] == "io"


def test_incremental_feed_equals_offline():
    actions = (
        _op(0, 0, "set", (5,), True, [WriteAction(0, 0, "reg", None, 5)])
        + _op(1, 1, "get", (), 5, commit=False)
    )
    offline = check_log(Log(actions), RegisterSpec(), mode="view", impl_view=register_view())

    checker = RefinementChecker(RegisterSpec(), mode="view", impl_view=register_view())
    for action in actions:
        checker.feed([action])
    online = checker.finish()
    assert online.ok == offline.ok
    assert online.methods_checked == offline.methods_checked
    assert online.commits_executed == offline.commits_executed


def test_commit_waits_for_return_value():
    """Online: a commit whose return is not yet logged must not execute."""
    checker = RefinementChecker(RegisterSpec(), mode="io")
    checker.feed([CallAction(0, 0, "set", (5,)), CommitAction(0, 0)])
    assert checker.outcome.commits_executed == 0  # waiting for the return
    checker.feed([ReturnAction(0, 0, "set", True)])
    assert checker.outcome.commits_executed == 1
    assert checker.finish().ok


class _RecordingDeque(deque):
    """A lookahead buffer that remembers every record parked in it."""

    def __init__(self):
        super().__init__()
        self.parked = []

    def append(self, item):
        self.parked.append(item)
        super().append(item)

    def extend(self, items):
        items = list(items)
        self.parked.extend(items)
        super().extend(items)


@pytest.mark.parametrize("program", ["multiset-vector", "cache", "blinktree"])
def test_clean_log_fed_whole_never_enters_the_lookahead_buffer(program):
    """Every commit's return is in a whole log, so no record waits: each
    goes straight to its handler."""
    log = run_program(program, num_threads=3, calls_per_thread=8, seed=1).log
    checker = CheckPlan.for_program(program).refinement_checker()
    checker._buffer = buffer = _RecordingDeque()
    checker.feed(log)
    outcome = checker.finish()
    assert outcome.ok and outcome.actions_processed == len(log)
    assert buffer.parked == []


def test_commit_parks_the_records_after_it_until_its_return():
    checker = RefinementChecker(RegisterSpec(), mode="io")
    checker._buffer = buffer = _RecordingDeque()
    head = [CallAction(0, 0, "set", (5,)), CallAction(1, 1, "set", (6,))]
    parked = [CommitAction(0, 0), CommitAction(1, 1), ReturnAction(1, 1, "set", True)]
    checker.feed(head + parked)
    assert [seq for seq, _ in buffer.parked] == [2, 3, 4]
    assert checker.outcome.actions_processed == 2
    checker.feed([ReturnAction(0, 0, "set", True)])
    assert not buffer and checker.outcome.commits_executed == 2
    outcome = checker.finish()
    assert outcome.ok and outcome.actions_processed == 6


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_verdict_does_not_depend_on_how_the_log_is_fed(program):
    """Fed whole, in 64-record batches or one record at a time, a checker
    reaches the same outcome, clean or buggy, in view and io mode, stopping
    at the first violation or not."""
    for buggy in (False, True):
        log = list(run_program(
            program, buggy=buggy, num_threads=3, calls_per_thread=8, seed=2
        ).log)
        for mode in ("view", "io"):
            for stop_at_first in (True, False):
                plan = CheckPlan.for_program(
                    program, mode, stop_at_first=stop_at_first
                )
                outcomes = []
                for size in (len(log), 64, 1):
                    checker = plan.refinement_checker()
                    for start in range(0, len(log), size):
                        checker.feed(log[start:start + size])
                    outcomes.append(checker.finish().to_dict())
                assert outcomes[0] == outcomes[1] == outcomes[2], (
                    buggy, mode, stop_at_first
                )


def test_incomplete_log_reported():
    checker = RefinementChecker(RegisterSpec(), mode="io")
    checker.feed([CallAction(0, 0, "set", (5,)), CommitAction(0, 0)])
    outcome = checker.finish()
    assert outcome.incomplete
    assert outcome.stats["unprocessed_actions"] >= 1


def test_stop_at_first_records_method_count():
    log = Log(
        _op(0, 0, "set", (1,), True, [WriteAction(0, 0, "reg", None, 1)])
        + _op(0, 1, "set", (2,), False)   # rejected
        + _op(0, 2, "set", (3,), False)   # would also be rejected
    )
    stopped = check_log(Log(log), RegisterSpec(), mode="io", stop_at_first=True)
    assert len(stopped.violations) == 1
    assert stopped.detection_method_count == 1  # one method completed before

    everything = check_log(Log(log), RegisterSpec(), mode="io", stop_at_first=False)
    assert len(everything.violations) == 2


def test_final_full_check_catches_bad_unit_mapping():
    """An incremental view whose unit mapping misses a location drifts from
    the full recomputation; finish() must flag it."""
    broken_view = ContributionView(
        unit_of=lambda loc: None,  # ignores every write: always empty
        contribute=lambda state, unit: None,
        aggregate="count",
    )
    log = Log([
        CallAction(0, 0, "set", (5,)),
        WriteAction(0, 0, "reg", None, 5),
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", True),
    ])

    class DictRegisterSpec(RegisterSpec):
        def view(self):
            return {} if self.value is None else {"reg": self.value}

    outcome = check_log(log, DictRegisterSpec(), mode="view", impl_view=broken_view,
                        stop_at_first=True)
    assert not outcome.ok  # either at the commit or at the final full check


def test_coarse_replay_actions_drive_state_and_view():
    def routine(state, payload):
        state["reg"] = payload

    log = Log([
        CallAction(0, 0, "set", (5,)),
        ReplayAction(0, 0, "reg.update", 5),
        CommitAction(0, 0),
        ReturnAction(0, 0, "set", True),
    ])
    outcome = check_log(
        log, RegisterSpec(), mode="view", impl_view=register_view(),
        replay_registry={"reg.update": routine},
    )
    assert outcome.ok, outcome.first_violation


def test_methods_checked_counts_returns():
    log = Log(
        _op(0, 0, "set", (1,), True, [WriteAction(0, 0, "reg", None, 1)])
        + _op(0, 1, "get", (), 1, commit=False)
        + _op(0, 2, "get", (), 1, commit=False)
    )
    outcome = check_log(log, RegisterSpec(), mode="io")
    assert outcome.methods_checked == 3
    assert outcome.actions_processed == len(log)


def test_record_subclasses_dispatch_like_their_base_types():
    """The checkers dispatch each record on its exact type; a subclass of a
    record type takes its base type's handler (the order of the
    ``isinstance`` chain the tables replaced), and a type they do not know
    stays an instrumentation problem."""
    from repro.core import (
        AcquireAction,
        ReadAction,
        ReleaseAction,
        SpawnAction,
        validate_well_formed,
    )
    from repro.races import check_races

    def sub(base):
        return type(f"Tagged{base.__name__}", (base,), {"__slots__": ()})

    kinds = (CallAction, WriteAction, CommitAction, ReturnAction, ReadAction,
             AcquireAction, ReleaseAction)
    tagged = {base: sub(base) for base in kinds}

    def log_of(types):
        return Log([
            types[CallAction](0, 0, "set", (5,)),
            types[AcquireAction](0, 0, "l"),
            types[WriteAction](0, 0, "reg", None, 5),
            types[ReadAction](0, 0, "reg"),
            types[ReleaseAction](0, 0, "l"),
            types[CommitAction](0, 0),
            types[ReturnAction](0, 0, "set", True),
            types[WriteAction](1, None, "reg", 5, 6),
        ])

    plain, subclassed = log_of({base: base for base in kinds}), log_of(tagged)
    assert [type(a).__name__ for a in subclassed][:2] == [
        "TaggedCallAction", "TaggedAcquireAction"]
    for mode, view in (("io", None), ("view", register_view())):
        expected = check_log(plain, RegisterSpec(), mode=mode, impl_view=view)
        got = check_log(subclassed, RegisterSpec(), mode=mode,
                        impl_view=register_view() if view else None)
        assert got.to_dict() == expected.to_dict()
        assert got.commits_executed == 1
    assert validate_well_formed(subclassed) == validate_well_formed(plain) == []
    races = check_races(subclassed, detectors="both").to_dict()
    assert races == check_races(plain, detectors="both").to_dict()
    assert len(races["races"]) == 2  # the unlocked write races both ways
    spawn = Log([SpawnAction(0, None, 1)])
    assert "unknown action" in check_log(spawn, RegisterSpec()).first_violation.message
    assert validate_well_formed(Log([sub(SpawnAction)(0, None, 1)])) == []
