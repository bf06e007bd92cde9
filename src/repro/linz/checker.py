"""Annotation-free linearizability checking by memoized linearization search.

Where refinement checking (:mod:`repro.core.refinement`) trusts the
programmer-annotated commit actions to *name* the witness interleaving,
this checker reconstructs one: it searches for an order of the history's
operations that (a) respects real time -- an operation linearizes somewhere
between its call and its return -- and (b) replays through the same atomic
:class:`~repro.core.spec.Specification`, with every mutator's observed
return value accepted and every observer's observed result allowed.  If no
such order exists the execution is not linearizable and a typed
``linearizability`` violation is reported.

The search (Wing-Gong style, with the standard state-memoization
refinement) walks the call/return event sequence with a single
deterministic cursor:

* a **call** event just opens the operation (it becomes *pending*);
* a **return** event is consumable only once its operation has been
  linearized -- otherwise the cursor blocks and some pending operation must
  be linearized first;
* at a blocked cursor the checker branches over the pending **mutators**
  (cloning the spec, pruning any branch whose observed result the spec
  rejects via :class:`~repro.core.spec.SpecReject`);
* pending **observers are never branched on**: an observer is linearized
  *eagerly* the moment the current spec state allows its observed result.
  Because observers are state-pure this is both sound and complete -- if a
  valid completion linearizes a currently-matching observer later, moving
  it to now changes no spec state and invalidates nothing -- so observer
  returns only ever *prune* (a pending observer whose result no reachable
  state allows eventually blocks the cursor for good).

Explored-and-failed states are memoized on ``(cursor position,
linearized-but-unreturned set, spec-state fingerprint)`` pairs
(:meth:`~repro.core.spec.Specification.state_fingerprint`), so overlapping
search prefixes that reconverge -- e.g. commuting mutators -- are explored
once.  The pending set needs no key of its own: it is a function of the
cursor position and the linearized set.  A node's key is built only when
the node fails, or once some node has failed, and the deepest blocked node
(the *frontier*) is described only when the whole search fails, so a node
of a search that never backtracks costs the same however long the history.

Incomplete operations (a call whose return the log lost) are *optional*:
an incomplete observer can never constrain anything and is dropped; an
incomplete mutator either never took effect (the implicit skip branch) or
is linearized under each plausible return value, taken from
:meth:`~repro.core.spec.Specification.candidate_results` (evaluated on the
spec clone at the candidate point) with the results observed for the same
method elsewhere in the history as the fallback.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.actions import Signature
from ..core.plan import CheckPlan, SearchBudgetExceeded
from ..core.refinement import Violation, ViolationKind
from ..core.spec import OBSERVER, SpecReject, allows
from ..obs import NULL_RECORDER, Recorder
from .history import CALL, History, Operation, extract_history


@dataclass
class LinzOutcome:
    """Result of one linearizability check."""

    violations: List[Violation] = field(default_factory=list)
    operations: int = 0               # operations in the history
    completed: int = 0                # operations with a recorded return
    incomplete_ops: int = 0           # calls whose return the log lost
    methods_checked: int = 0          # == completed (parity with CheckOutcome)
    detection_method_count: Optional[int] = None  # returns before the frontier
    linearization: Optional[List[int]] = None     # witness order (op ids)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def summary(self) -> str:
        search = self.stats
        cost = (
            f"{search.get('nodes', 0)} nodes, "
            f"{search.get('memo_hits', 0)} memo hits"
        )
        if self.ok:
            return (
                f"linearizable: {self.completed} operations "
                f"({self.incomplete_ops} incomplete) [{cost}]"
            )
        return (
            f"NOT linearizable; first inexplicable return after "
            f"{self.detection_method_count} operations: "
            f"{self.first_violation} [{cost}]"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the ``linz`` verdict schema)."""
        return {
            "ok": self.ok,
            "mode": "linz",
            "operations": self.operations,
            "completed": self.completed,
            "incomplete": self.incomplete_ops,
            "methods_checked": self.methods_checked,
            "detection_method_count": self.detection_method_count,
            "violations": [violation.to_dict() for violation in self.violations],
            "linearization": self.linearization,
            "search": dict(self.stats),
        }


class LinzChecker:
    """Search for a valid linearization of a log's call/return history.

    Parameters
    ----------
    spec_factory:
        Builds a fresh atomic :class:`~repro.core.spec.Specification`; the
        same factories the refinement checker uses work unchanged.
    memo:
        Memoize failed search states (on when unset; the benchmark ablation
        turns it off).
    max_nodes:
        Node budget; exceeding it raises :class:`SearchBudgetExceeded`.
    candidate_results:
        ``fn(spec, method, args) -> iterable`` overriding the per-spec
        candidate protocol for incomplete mutators.
    obs:
        A :class:`repro.obs.Recorder`; the search reports one
        ``linz.search`` span plus node/memo/prune counters and
        search-depth / pending-width histograms.
    """

    def __init__(
        self,
        spec_factory: Callable,
        *,
        memo: bool = True,
        max_nodes: int = 2_000_000,
        candidate_results: Optional[Callable] = None,
        obs: Optional[Recorder] = None,
    ):
        self.spec_factory = spec_factory
        self.memo = memo
        self.max_nodes = max_nodes
        self.candidate_results = candidate_results
        self.obs: Recorder = obs if obs is not None else NULL_RECORDER

    # -- candidate results for incomplete mutators ---------------------------

    def _candidates(self, spec, op: Operation, history: History) -> List[Any]:
        if self.candidate_results is not None:
            found = self.candidate_results(spec, op.method, op.args)
            return list(found) if found is not None else []
        found = spec.candidate_results(op.method, op.args)
        if found is not None:
            return list(found)
        return history.observed_results(op.method)

    # -- the search ----------------------------------------------------------

    def check(self, log) -> LinzOutcome:
        """Check ``log`` (a Log, an action iterable, or a prepared
        :class:`~repro.linz.history.History`)."""
        history = log if isinstance(log, History) else extract_history(log)
        spec = self.spec_factory()
        kinds = {
            method: spec.method_kind(method)
            for method in {op.method for op in history.operations.values()}
        }
        # Incomplete observers can neither change state nor be required:
        # drop them from the event sequence entirely.
        events = [
            (kind, op) for kind, op in history.events
            if op.complete or kinds[op.method] != OBSERVER
        ]
        outcome = LinzOutcome(
            operations=len(history),
            completed=len(history.completed),
            incomplete_ops=len(history.incomplete),
            methods_checked=len(history.completed),
        )
        obs = self.obs
        if obs.enabled:
            with obs.span(
                "linz.search", cat="linz", operations=len(history),
                memo=self.memo,
            ):
                order, frontier = self._search(events, spec, history, outcome)
        else:
            order, frontier = self._search(events, spec, history, outcome)
        if order is not None:
            outcome.linearization = order
        else:
            outcome.violations.append(
                self._violation(outcome, history, frontier)
            )
        if obs.enabled:
            stats = outcome.stats
            obs.count("linz.checks")
            obs.count("linz.nodes", stats["nodes"])
            obs.count("linz.memo_hits", stats["memo_hits"])
            obs.count("linz.prunes", stats["prunes"])
            obs.observe("linz.search_depth", stats["max_depth"])
            obs.observe("linz.pending_width", stats["max_pending"])
        return outcome

    def _violation(self, outcome: LinzOutcome, history: History,
                   frontier) -> Violation:
        """The violation for a failed search; ``frontier`` is the deepest
        blocked node, ``(blocked return's operation, pending set, spec)``."""
        if frontier is None:
            # Exhausted without ever blocking: only possible when the very
            # first branch point has no viable operation.
            return Violation(
                kind=ViolationKind.LINZ, seq=0,
                message="no valid linearization of the history exists",
            )
        op, pending, spec = frontier
        returns = sorted(done.return_seq for done in history.completed)
        outcome.detection_method_count = bisect_right(returns, op.return_seq)
        return Violation(
            kind=ViolationKind.LINZ,
            seq=op.return_seq if op.return_seq is not None else op.call_seq,
            message=(
                f"no linearization explains {op.describe()} "
                f"(thread {op.tid}, op {op.op_id}): every admissible order "
                "of the overlapping operations was searched"
            ),
            signature=Signature(op.tid, op.method, op.args, op.result),
            details={
                "method": op.method,
                "args": op.args,
                "result": op.result,
                "pending": sorted(
                    history.operations[oid].describe() for oid in pending
                ),
                "spec_state": spec.describe(),
            },
        )

    def _search(self, events, spec0, history: History, outcome: LinzOutcome):
        """Depth-first search for a witness order.

        Returns ``(order, None)`` when one exists, else ``(None, frontier)``
        with the deepest blocked node for :meth:`_violation`.  A node's spec
        never changes once the node is entered -- mutators run only on a
        fresh :meth:`~repro.core.spec.Specification.clone`, observers are
        state-pure -- so the frontier keeps a reference to it, and a node's
        memo key can wait until some node has failed.
        """
        n = len(events)
        ops = history.operations
        kinds = {
            method: spec0.method_kind(method)
            for method in {op.method for op in ops.values()}
        }
        memo = self.memo
        memo_failed = set()
        stats = {
            "nodes": 0, "memo_hits": 0, "prunes": 0, "spec_clones": 0,
            "max_pending": 0, "max_depth": 0, "memo": memo,
            "memo_entries": 0,
        }
        outcome.stats = stats
        frontier_i = -1
        frontier = None
        order: List[int] = []
        obs = self.obs
        # Depth bounds: one frame per linearized operation.
        limit = len(ops) * 2 + 2000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)

        def memo_key(i: int, linearized: frozenset, spec):
            fingerprint = spec.state_fingerprint()
            return None if fingerprint is None else (i, linearized, fingerprint)

        def explore(i: int, pending: frozenset, linearized: frozenset,
                    spec) -> bool:
            nonlocal frontier_i, frontier
            mark = len(order)
            # Deterministic advance + eager observer linearization, to a
            # fixpoint: neither consumes search budget nor clones the spec.
            while True:
                while i < n:
                    kind, op = events[i]
                    if kind == CALL:
                        pending = pending | {op.op_id}
                    elif op.op_id in linearized:
                        linearized = linearized - {op.op_id}
                    else:
                        break
                    i += 1
                if i >= n:
                    return True
                moved = False
                for oid in sorted(pending):
                    op = ops[oid]
                    if kinds[op.method] != OBSERVER:
                        continue
                    allowed = spec.run_observer(op.method, op.args)
                    if allows(allowed, op.result):
                        pending = pending - {oid}
                        linearized = linearized | {oid}
                        order.append(oid)
                        moved = True
                if not moved:
                    break
            if len(pending) > stats["max_pending"]:
                stats["max_pending"] = len(pending)
            if len(order) > stats["max_depth"]:
                stats["max_depth"] = len(order)
            # A lookup in an empty failed set always misses: until some node
            # fails, no node needs its key.
            key = None
            if memo_failed:
                key = memo_key(i, linearized, spec)
                if key is not None and key in memo_failed:
                    stats["memo_hits"] += 1
                    del order[mark:]
                    return False
            stats["nodes"] += 1
            if stats["nodes"] > self.max_nodes:
                raise SearchBudgetExceeded(stats["nodes"], self.max_nodes)
            _, blocked = events[i]
            if i > frontier_i:
                frontier_i = i
                frontier = (blocked, pending, spec)
            # Branch over pending mutators; the blocked return's own
            # operation first (it must linearize before the cursor moves).
            candidates = sorted(
                (oid for oid in pending if kinds[ops[oid].method] != OBSERVER),
                key=lambda oid: (
                    oid != blocked.op_id,
                    ops[oid].return_seq if ops[oid].complete else n,
                    oid,
                ),
            )
            for oid in candidates:
                op = ops[oid]
                results = (
                    [op.result] if op.complete
                    else self._candidates(spec, op, history)
                )
                for result in results:
                    clone = spec.clone()
                    stats["spec_clones"] += 1
                    try:
                        clone.run_mutator(op.method, op.args, result)
                    except SpecReject:
                        stats["prunes"] += 1
                        continue
                    order.append(oid)
                    if explore(i, pending - {oid}, linearized | {oid}, clone):
                        return True
                    # The failed explore() restored order to its own mark;
                    # drop the mutator we appended for this branch.
                    order.pop()
            if memo:
                if key is None:
                    key = memo_key(i, linearized, spec)
                if key is not None:
                    memo_failed.add(key)
                    stats["memo_entries"] = len(memo_failed)
            del order[mark:]
            return False

        if explore(0, frozenset(), frozenset(), spec0):
            return order, None
        if obs.enabled:
            obs.count("linz.exhausted_searches")
        return None, frontier


def check_linearizability(
    log,
    spec_factory: Callable,
    *,
    memo: bool = True,
    max_nodes: int = 2_000_000,
    obs: Optional[Recorder] = None,
) -> LinzOutcome:
    """One-shot convenience: search ``log`` (or a prepared
    :class:`~repro.linz.history.History`) against ``spec_factory``."""
    plan = CheckPlan(
        linz=True, linz_spec_factory=spec_factory, memo=memo,
        max_nodes=max_nodes, obs=obs,
    )
    return plan.linz_checker().check(log)
