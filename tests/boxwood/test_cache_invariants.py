"""The cache invariants' per-unit form against their full reference form.

The checker evaluates a per-unit invariant only over the handles written
since its last state check and keeps the running set of failing handles.
These tests hold that evaluation to the full scan it replaces: identical
``(kind, seq)`` lists on generated logs, on hand-built corruptions of each
invariant, across checkpoint cuts, and at a per-commit cost that does not
grow with the log.
"""

import dataclasses
import json

import pytest

from repro.boxwood import StoreSpec, cache_invariants, cache_view
from repro.core import (
    BeginCommitBlockAction,
    CallAction,
    Checkpoint,
    CommitAction,
    EndCommitBlockAction,
    RefinementChecker,
    ReturnAction,
    ViolationKind,
    WriteAction,
)
from repro.harness.runner import run_program
from repro.obs import MetricsRecorder
from repro.serve import session_checkers

BLOCK = 2
BEGIN, END = "begin-block", "end-block"
CLEAN_MATCHES_CHUNK = "cache.clean-matches-chunk"
IN_ONE_LIST = "cache.entry-in-exactly-one-list"


def _full_only(invariants):
    return [
        dataclasses.replace(invariant, unit_of=None, check_unit=None)
        for invariant in invariants
    ]


def _checker(block=BLOCK, stop_at_first=True, per_unit=True):
    invariants = cache_invariants(block)
    return RefinementChecker(
        StoreSpec(),
        mode="view",
        impl_view=cache_view(block),
        invariants=invariants if per_unit else _full_only(invariants),
        stop_at_first=stop_at_first,
    )


def _kinds_and_seqs(outcome):
    return [(violation.kind, violation.seq) for violation in outcome.violations]


def _check(actions, **options):
    checker = _checker(**options)
    checker.feed(actions)
    return checker.finish()


# -- generated logs -----------------------------------------------------------


@pytest.mark.parametrize("buggy", [False, True], ids=["correct", "buggy"])
def test_per_unit_and_full_evaluation_report_identical_violations(buggy):
    invariant_hits = 0
    for seed in range(20):
        log = list(run_program(
            "cache", buggy=buggy, num_threads=4, calls_per_thread=30, seed=seed
        ).log)
        for stop_at_first in (True, False):
            options = dict(block=8, stop_at_first=stop_at_first)
            per_unit = _check(log, per_unit=True, **options)
            full = _check(log, per_unit=False, **options)
            assert _kinds_and_seqs(per_unit) == _kinds_and_seqs(full), (
                seed, stop_at_first
            )
            assert not any(
                v.kind is ViolationKind.INSTRUMENTATION for v in per_unit.violations
            ), (seed, stop_at_first)
            invariant_hits += sum(
                v.kind is ViolationKind.INVARIANT for v in per_unit.violations
            )
    assert (invariant_hits > 0) == buggy


# -- hand-built corruptions ---------------------------------------------------


class _CacheLog:
    """A hand-built cache log, one logged write per cell as Fig. 8 logs it."""

    def __init__(self):
        self.actions = []
        self._values = {}
        self._next_op = 0

    def call(self, tid, method, args=()):
        op_id = self._next_op
        self._next_op += 1
        self.actions.append(CallAction(tid, op_id, method, args))
        return op_id

    def steps(self, tid, op_id, *steps):
        """``(loc, value)`` writes and ``BEGIN``/``END`` commit-block marks."""
        for step in steps:
            if step == BEGIN:
                self.actions.append(BeginCommitBlockAction(tid, op_id))
            elif step == END:
                self.actions.append(EndCommitBlockAction(tid, op_id))
            else:
                loc, value = step
                self.actions.append(
                    WriteAction(tid, op_id, loc, self._values.get(loc), value)
                )
                self._values[loc] = value

    def commit(self, tid, op_id, method, result):
        """Log the commit; returns its seq."""
        self.actions.append(CommitAction(tid, op_id))
        seq = len(self.actions) - 1
        self.actions.append(ReturnAction(tid, op_id, method, result))
        return seq

    def op(self, tid, method, args, result, *steps):
        op_id = self.call(tid, method, args)
        self.steps(tid, op_id, *steps)
        return self.commit(tid, op_id, method, result)

    def write_new_entry(self, tid, handle, entry_id, data):
        """WRITE's first branch: a new entry published on the dirty list."""
        return self.op(tid, "write", (handle, data), True, *_new_entry(
            handle, entry_id, data
        ))

    def flush(self, tid, *steps):
        return self.op(tid, "flush", (), None, *steps)


def _entry(entry_id, handle, field):
    return f"cache.ent{entry_id}@{handle}.{field}"


def _new_entry(handle, entry_id, data):
    return [
        *((_entry(entry_id, handle, f"data[{i}]"), byte) for i, byte in enumerate(data)),
        BEGIN,
        (_entry(entry_id, handle, "published"), True),
        (f"cache.dirty[{handle}]", entry_id),
        END,
    ]


def _flushed(handle, entry_id, data):
    """FLUSH of one dirty entry: bytes to the chunk, entry to the clean list."""
    return [
        (f"chunk[{handle}].data", data),
        (f"cache.dirty[{handle}]", None),
        (f"cache.clean[{handle}]", entry_id),
    ]


def _trailing_commits(log):
    """Commits on handle h2 only: they never touch the corrupted h0."""
    return [
        log.write_new_entry(2, "h2", 9, (7, 7)),
        log.flush(2, *_flushed("h2", 9, (7, 7))),
    ]


def _clean_entry_differs_from_chunk():
    log = _CacheLog()
    log.write_new_entry(0, "h0", 1, (1, 2))
    # a flush that writes bytes other than the entry's to the chunk
    corrupt = log.flush(
        1, ("chunk[h0].data", (9, 9)), ("cache.dirty[h0]", None),
        ("cache.clean[h0]", 1),
    )
    return log, [], [corrupt, *_trailing_commits(log)], CLEAN_MATCHES_CHUNK


def _entry_on_both_lists():
    log = _CacheLog()
    log.write_new_entry(0, "h0", 1, (1, 2))
    # a flush that moves the entry to the clean list but leaves it dirty
    corrupt = log.flush(1, ("chunk[h0].data", (1, 2)), ("cache.clean[h0]", 1))
    return log, [], [corrupt, *_trailing_commits(log)], IN_ONE_LIST


def _entry_on_neither_list():
    log = _CacheLog()
    log.write_new_entry(0, "h0", 1, (1, 2))
    # a flush that takes the entry off the dirty list and drops it
    corrupt = log.flush(1, ("chunk[h0].data", (1, 2)), ("cache.dirty[h0]", None))
    return log, [], [corrupt, *_trailing_commits(log)], IN_ONE_LIST


def _corruption_inside_open_block():
    log = _CacheLog()
    log.write_new_entry(0, "h0", 1, (1, 2))
    log.flush(0, *_flushed("h0", 1, (1, 2)))
    # thread 1 opens a commit block and, inside it, takes h0's published
    # clean entry off the clean list
    op_id = log.call(1, "write", ("h1", (3, 4)))
    log.steps(
        1, op_id,
        (_entry(2, "h1", "data[0]"), 3), (_entry(2, "h1", "data[1]"), 4),
        BEGIN,
        (_entry(2, "h1", "published"), True),
        ("cache.clean[h0]", None),
    )
    # thread 0 commits while the block is open: the block is rolled back
    silent = log.flush(0)
    log.steps(1, op_id, ("cache.dirty[h1]", 2), END)
    corrupt = log.commit(1, op_id, "write", True)
    return log, [silent], [corrupt, *_trailing_commits(log)], IN_ONE_LIST


CORRUPTIONS = {
    "clean-entry-differs-from-chunk": _clean_entry_differs_from_chunk,
    "entry-on-both-lists": _entry_on_both_lists,
    "entry-on-neither-list": _entry_on_neither_list,
    "corruption-inside-open-block": _corruption_inside_open_block,
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_seeded_corruption_is_reported_at_its_commit(case):
    log, silent, failing, invariant = CORRUPTIONS[case]()
    first = _check(log.actions)
    assert _kinds_and_seqs(first) == [(ViolationKind.INVARIANT, failing[0])]
    assert invariant in first.first_violation.message
    assert first.first_violation.details["units"] == ["h0"]
    # collecting all: the broken handle is reported at every later check,
    # though no later commit touches it; the silent commits stay silent
    every = _check(log.actions, stop_at_first=False)
    assert _kinds_and_seqs(every) == [
        (ViolationKind.INVARIANT, seq) for seq in failing
    ]
    assert not set(silent) & {violation.seq for violation in every.violations}
    for stop_at_first in (True, False):
        assert _kinds_and_seqs(
            _check(log.actions, stop_at_first=stop_at_first, per_unit=False)
        ) == _kinds_and_seqs(first if stop_at_first else every)


# -- checkpoints carry the invariant state -----------------------------------


def _verdict(checker):
    return json.dumps(checker.finish().to_dict(), sort_keys=True)


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_resume_at_every_cut_matches_the_straight_run(case):
    """A cut between the corrupting write and its commit needs the dirty
    units; a cut after it needs the failing units, since the later commits
    never touch h0; a cut before it needs the unit index, which lists the
    entry cells invariant (ii) reads."""
    actions = CORRUPTIONS[case]()[0].actions
    straight = _checker(stop_at_first=False)
    straight.feed(actions)
    expected = _verdict(straight)
    for cut in range(len(actions) + 1):
        first = _checker(stop_at_first=False)
        first.feed(actions[:cut])
        checkpoint = Checkpoint.from_bytes(first.checkpoint().to_bytes())
        resumed = _checker(stop_at_first=False)
        resumed.restore(checkpoint)
        resumed.feed(actions[checkpoint.resume_seq:])
        assert _verdict(resumed) == expected, cut


# -- cost per commit ----------------------------------------------------------


def _mean_units_checked(calls):
    make_checker, _ = session_checkers("cache")
    means = []
    for seed in range(3):
        recorder = MetricsRecorder(max_events=0)
        checker = make_checker()
        checker.obs = recorder
        checker.feed(run_program(
            "cache", buggy=False, num_threads=4, calls_per_thread=calls, seed=seed
        ).log)
        assert checker.finish().ok
        means.append(recorder.histograms["invariants.units_checked"].mean)
    return sum(means) / len(means)


def test_units_checked_per_commit_does_not_grow_with_the_log():
    short, long = _mean_units_checked(75), _mean_units_checked(300)
    assert 0 < long <= 1.2 * short, (short, long)
