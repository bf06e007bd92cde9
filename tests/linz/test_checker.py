"""Unit tests for the annotation-free linearizability checker."""

import json
from collections import Counter

import pytest

from repro.core.actions import CallAction, ReturnAction
from repro.core.log import Log
from repro.harness import run_program
from repro.linz import (
    HistoryError,
    LinzChecker,
    SearchBudgetExceeded,
    check_linearizability,
    extract_history,
    linz_config,
    strict_lookup_divergence_log,
)
from repro.multiset import MultisetSpec
from repro.multiset.spec import SUCCESS
from repro.obs import MetricsRecorder


def _log(actions):
    log = Log()
    for action in actions:
        log.append(action)
    return log


def _call(tid, op_id, method, *args):
    return CallAction(tid=tid, op_id=op_id, method=method, args=args)


def _ret(tid, op_id, method, result):
    return ReturnAction(tid=tid, op_id=op_id, method=method, result=result)


def test_sequential_history_is_linearizable():
    log = _log([
        _call(0, 0, "insert", 1), _ret(0, 0, "insert", SUCCESS),
        _call(0, 1, "lookup", 1), _ret(0, 1, "lookup", True),
        _call(0, 2, "delete", 1), _ret(0, 2, "delete", True),
        _call(0, 3, "lookup", 1), _ret(0, 3, "lookup", False),
    ])
    outcome = check_linearizability(log, MultisetSpec)
    assert outcome.ok
    assert outcome.linearization == [0, 1, 2, 3]
    assert outcome.completed == 4


def test_overlapping_reordering_found():
    # lookup(7) -> True overlaps the insert(7) whose effect it sees: the
    # witness must linearize the insert before the lookup despite the
    # lookup being called first.
    log = _log([
        _call(0, 0, "lookup", 7),
        _call(1, 1, "insert", 7), _ret(1, 1, "insert", SUCCESS),
        _ret(0, 0, "lookup", True),
    ])
    outcome = check_linearizability(log, MultisetSpec)
    assert outcome.ok
    assert outcome.linearization == [1, 0]


def test_strict_lookup_divergence_log_violates_strict_spec():
    outcome = check_linearizability(
        strict_lookup_divergence_log(), MultisetSpec
    )
    assert not outcome.ok
    violation = outcome.first_violation
    assert violation.kind.value == "linearizability"
    assert "lookup" in str(violation)
    assert outcome.detection_method_count is not None
    # the schema round-trips through JSON
    json.dumps(outcome.to_dict())


def test_strict_lookup_divergence_log_ok_under_permissive_spec():
    outcome = check_linearizability(
        strict_lookup_divergence_log(),
        lambda: MultisetSpec(permissive_lookup=True),
    )
    assert outcome.ok
    assert sorted(outcome.linearization) == [0, 1, 2, 3, 4]


def test_incomplete_mutator_is_optional_and_usable():
    # the insert never returned, but the lookup saw its effect: the only
    # witness linearizes the incomplete insert (candidate result SUCCESS).
    log = _log([
        _call(1, 0, "insert", 3),
        _call(0, 1, "lookup", 3), _ret(0, 1, "lookup", True),
    ])
    outcome = check_linearizability(log, MultisetSpec)
    assert outcome.ok
    assert outcome.incomplete_ops == 1
    assert outcome.linearization == [0, 1]

    # ... and skippable: the lookup here requires the insert NOT to have
    # taken effect.
    log = _log([
        _call(1, 0, "insert", 3),
        _call(0, 1, "lookup", 3), _ret(0, 1, "lookup", False),
    ])
    outcome = check_linearizability(log, MultisetSpec)
    assert outcome.ok
    assert outcome.linearization == [1]


def test_incomplete_observer_is_dropped():
    log = _log([
        _call(0, 0, "lookup", 9),  # no return: unconstrainable, dropped
        _call(1, 1, "insert", 9), _ret(1, 1, "insert", SUCCESS),
    ])
    outcome = check_linearizability(log, MultisetSpec)
    assert outcome.ok
    assert outcome.incomplete_ops == 1
    assert outcome.linearization == [1]


def test_memo_agrees_with_unmemoized_search():
    histories = [(strict_lookup_divergence_log(), MultisetSpec, False)]
    for program, calls in [("java-vector", 4), ("java-vector", 12),
                           ("stringbuffer", 12)]:
        run = run_program(program, num_threads=3, calls_per_thread=calls,
                          seed=1)
        histories.append((run.log, linz_config(program).linz_spec_factory,
                          True))
    for log, spec_factory, linearizable in histories:
        with_memo = check_linearizability(log, spec_factory, memo=True)
        without = check_linearizability(log, spec_factory, memo=False)
        assert with_memo.ok == without.ok is linearizable
        assert with_memo.stats["memo"] is True
        assert without.stats["memo"] is False
        assert without.stats["memo_hits"] == 0


def _overlapping_inserts(width, rounds=1):
    """``rounds`` sequential rounds of ``width`` fully-overlapping commuting
    inserts ending in an unsatisfiable lookup: the search must exhaust
    every order."""
    actions = []
    for first in range(0, width * rounds, width):
        ops = range(first, first + width)
        actions += [_call(op % width, op, "insert", op) for op in ops]
        actions += [_ret(op % width, op, "insert", SUCCESS) for op in ops]
    last = width * rounds
    actions += [
        _call(width, last, "lookup", 999),
        _ret(width, last, "lookup", True),
    ]
    return _log(actions)


def test_memo_prunes_commuting_reconvergence():
    for rounds in (1, 2):
        log = _overlapping_inserts(5, rounds)
        with_memo = check_linearizability(log, MultisetSpec, memo=True)
        without = check_linearizability(log, MultisetSpec, memo=False)
        assert not with_memo.ok and not without.ok
        assert with_memo.stats["memo_hits"] > 0
        assert without.stats["nodes"] >= 5 * with_memo.stats["nodes"]


def test_search_budget_surfaces_as_error_not_verdict():
    with pytest.raises(SearchBudgetExceeded):
        check_linearizability(
            _overlapping_inserts(6), MultisetSpec, memo=False, max_nodes=50
        )


def test_malformed_log_raises_history_error():
    with pytest.raises(HistoryError):
        extract_history(_log([_ret(0, 0, "insert", SUCCESS)]))
    with pytest.raises(HistoryError):
        extract_history(_log([
            _call(0, 0, "insert", 1), _call(0, 0, "insert", 2),
        ]))


def test_obs_counters_and_span_recorded():
    obs = MetricsRecorder()
    checker = LinzChecker(MultisetSpec, obs=obs)
    checker.check(strict_lookup_divergence_log())
    assert obs.counters["linz.checks"] == 1
    assert obs.counters["linz.nodes"] >= 1
    assert obs.counters["linz.exhausted_searches"] == 1
    assert "linz.search_depth" in obs.histograms
    assert "linz.pending_width" in obs.histograms


def _counting_multiset(calls):
    """A MultisetSpec factory whose instances count clone, describe and
    state_fingerprint calls into ``calls``."""

    class CountingSpec(MultisetSpec):
        def clone(self):
            calls["clone"] += 1
            return super().clone()

        def describe(self):
            calls["describe"] += 1
            return super().describe()

        def state_fingerprint(self):
            calls["state_fingerprint"] += 1
            return super().state_fingerprint()

    return CountingSpec


def test_search_without_a_failed_node_never_describes_or_fingerprints():
    calls = Counter()
    run = run_program("multiset-vector", num_threads=4, calls_per_thread=12,
                      seed=3)
    outcome = check_linearizability(run.log, _counting_multiset(calls))
    assert outcome.ok
    assert outcome.stats["nodes"] > 20 and outcome.stats["memo_entries"] == 0
    assert calls["describe"] == 0
    assert calls["state_fingerprint"] == 0
    assert calls["clone"] == outcome.stats["spec_clones"]


def test_failed_search_describes_its_frontier_once():
    calls = Counter()
    outcome = check_linearizability(
        _overlapping_inserts(4, rounds=2), _counting_multiset(calls)
    )
    assert not outcome.ok
    assert calls["describe"] == 1
    assert calls["clone"] == outcome.stats["spec_clones"]
    assert outcome.detection_method_count == 9
