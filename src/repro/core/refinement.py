"""The runtime refinement checker: I/O refinement and view refinement.

This is the verification half of VYRD (paper sections 4 and 5).  The checker
consumes the log strictly in order and maintains:

* the **spec instance**, driven one atomic method at a time in commit-action
  order (the witness interleaving);
* for view mode, the **replayed implementation state**
  (:class:`~repro.core.replay.ReplayState`) and the incremental
  implementation view;
* **observer windows** (:mod:`~repro.core.observer`).

Processing rules per action type:

``Call``
    open an execution record; observers additionally open a window.
``Write`` / ``Replay``
    advance the replayed state and dirty the view (view mode only) and the
    units of every per-unit invariant.
``Commit`` (with ``op_id``)
    the heart of I/O refinement: look up the execution's return value
    (the checker waits until the return is available -- the "look ahead in
    the implementation's execution" of section 2), execute the spec mutator
    with it, extend observer windows, and in view mode compare
    ``viewI``/``viewS`` and evaluate invariants.
``Commit`` (``op_id is None``)
    an internal worker-thread commit (compression thread): the spec does not
    move; the view comparison checks the update left the abstract state
    unchanged (section 7.2.3).
``Return``
    close the execution; observers are checked against their window;
    mutators must have committed exactly once.

The checker is incremental: :meth:`RefinementChecker.feed` accepts any prefix
extension of the log, so the same object serves offline checking (feed the
whole log, then :meth:`finish`) and the online verification thread (feed the
tail as it grows).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional

from .actions import (
    AcquireAction,
    Action,
    BeginCommitBlockAction,
    CallAction,
    CommitAction,
    EndCommitBlockAction,
    ReadAction,
    ReleaseAction,
    ReplayAction,
    ReturnAction,
    Signature,
    WriteAction,
    ignore_record,
    subclass_entry,
)
from ..obs import NULL_RECORDER, Recorder
from .checkpoint import Checkpoint, CheckpointError
from .invariants import Invariant, UnitInvariantState
from .log import Log, LogView
from .observer import ObserverTracker
from .replay import ReplayState
from .spec import MUTATOR, OBSERVER, VIEW_ABSENT, SpecError, SpecReject, Specification
from .view import ImplView

IO_MODE = "io"
VIEW_MODE = "view"


class ViolationKind(Enum):
    """Classification of refinement violations and tool-usage errors."""

    IO = "io-refinement"               # spec rejected a mutator's return value
    OBSERVER = "observer-window"       # observer result outside its window (I/O refinement)
    VIEW = "view-refinement"           # viewI != viewS at a commit action
    INVARIANT = "invariant"            # a registered invariant failed
    INSTRUMENTATION = "instrumentation"  # missing/double commits, bad blocks
    LINZ = "linearizability"           # no valid linearization exists (repro.linz)


@dataclass
class Violation:
    """One detected violation, with enough context to debug it."""

    kind: ViolationKind
    seq: int                      # log position where detection happened
    message: str
    signature: Optional[Signature] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        sig = f" [{self.signature}]" if self.signature else ""
        return f"{self.kind.value}@{self.seq}{sig}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (details stringified, they may hold
        arbitrary log values)."""
        return {
            "kind": self.kind.value,
            "seq": self.seq,
            "message": self.message,
            "problem": str(self),
            "signature": str(self.signature) if self.signature else None,
            "details": {key: repr(value) for key, value in self.details.items()},
        }


@dataclass
class CheckOutcome:
    """Result of checking one log."""

    violations: List[Violation] = field(default_factory=list)
    methods_checked: int = 0          # return actions processed
    commits_executed: int = 0         # mutator commits driven into the spec
    internal_commits: int = 0         # worker-thread (op-less) commits
    actions_processed: int = 0
    detection_method_count: Optional[int] = None  # methods before 1st violation
    incomplete: bool = False          # log ended mid-execution
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def summary(self) -> str:
        if self.ok:
            return (
                f"OK: {self.methods_checked} methods, "
                f"{self.commits_executed} commits checked"
            )
        return (
            f"{len(self.violations)} violation(s); first after "
            f"{self.detection_method_count} methods: {self.first_violation}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (for the CLI's ``--json`` and scripting)."""
        return {
            "ok": self.ok,
            "methods_checked": self.methods_checked,
            "commits_executed": self.commits_executed,
            "internal_commits": self.internal_commits,
            "actions_processed": self.actions_processed,
            "detection_method_count": self.detection_method_count,
            "incomplete": self.incomplete,
            "violations": [violation.to_dict() for violation in self.violations],
            "stats": {key: repr(value) for key, value in self.stats.items()},
        }


@dataclass
class _OpRecord:
    op_id: int
    tid: int
    method: str
    args: tuple
    call_seq: int
    kind: str
    commits: int = 0


def _view_diff(view_impl: dict, view_spec: dict, limit: int = 6) -> Dict[str, Any]:
    """Small, readable diff between two dict-shaped views."""
    if not isinstance(view_impl, dict) or not isinstance(view_spec, dict):
        return {"viewI": view_impl, "viewS": view_spec}
    only_impl = {}
    only_spec = {}
    differ = {}
    for key in view_impl:
        if key not in view_spec:
            if len(only_impl) < limit:
                only_impl[key] = view_impl[key]
        elif view_impl[key] != view_spec[key]:
            if len(differ) < limit:
                differ[key] = (view_impl[key], view_spec[key])
    for key in view_spec:
        if key not in view_impl and len(only_spec) < limit:
            only_spec[key] = view_spec[key]
    return {
        "only_in_viewI": only_impl,
        "only_in_viewS": only_spec,
        "differing (viewI, viewS)": differ,
    }


class ViewComparator:
    """Persistent differential ``viewI``/``viewS`` comparator.

    Instead of recomputing ``spec.view()`` and running a full-dict
    comparison at every commit (O(structure size)), the comparator keeps a
    running set of *mismatched* canonical keys and reconciles, per commit,
    only the keys either side reports as touched: the impl view's
    ``last_touched_keys`` (dirty units ∪ rolled-back ``extra_dirty_locs``,
    already folded in by ``refresh``) and the spec's drained
    ``view_delta()``.  ``viewI == viewS`` iff the mismatch set is empty.

    **Invariant:** a key is in ``mismatched`` exactly when the materialized
    views disagree on it -- because a key's value can only change when its
    side reports it touched, and every touched key is re-evaluated.  The
    checker's final full check (:meth:`RefinementChecker.finish`)
    cross-checks this invariant at the end of every run.

    When either side cannot report deltas (``spec.view_delta()`` returns
    ``None``, or the impl view has no materialized value), the comparator
    transparently falls back to the full comparison, so every registered
    program keeps working unchanged.
    """

    def __init__(self, spec: Specification, impl_view: ImplView, enabled: bool = True):
        self.spec = spec
        self.impl_view = impl_view
        self.differential = bool(
            enabled
            and getattr(impl_view, "supports_delta", False)
            and spec.view_delta() is not None
        )
        self.mismatched: set = set()
        #: keys reconciled by the most recent compare (histogrammed by obs)
        self.last_keys_compared = 0
        #: spec keys drained by the most recent compare
        self.last_spec_keys_dirtied = 0
        if self.differential:
            self._reconcile_full()

    def _reconcile_full(self) -> None:
        """Rebuild the mismatch set from whole views (init / restore only)."""
        view_impl = self.impl_view.value()
        view_spec = self.spec.view()
        self.mismatched = {
            key
            for key in set(view_impl) | set(view_spec)
            if view_impl.get(key, VIEW_ABSENT) != view_spec.get(key, VIEW_ABSENT)
        }

    def compare(self, view_impl: dict) -> "tuple[bool, Optional[dict]]":
        """Reconcile against the freshly refreshed ``view_impl``.

        Returns ``(ok, diff)`` where ``diff`` describes the disagreement
        when ``ok`` is False.
        """
        if not self.differential:
            view_spec = self.spec.view()
            if isinstance(view_impl, dict) and isinstance(view_spec, dict):
                self.last_keys_compared = len(view_impl) + len(view_spec)
                self.last_spec_keys_dirtied = len(view_spec)
            if view_impl != view_spec:
                return False, _view_diff(view_impl, view_spec)
            return True, None
        spec_delta = self.spec.view_delta() or set()
        self.last_spec_keys_dirtied = len(spec_delta)
        touched = set(spec_delta)
        touched.update(getattr(self.impl_view, "last_touched_keys", ()))
        self.last_keys_compared = len(touched)
        mismatched = self.mismatched
        spec_view_at = self.spec.view_at
        for key in touched:
            if view_impl.get(key, VIEW_ABSENT) == spec_view_at(key):
                mismatched.discard(key)
            else:
                mismatched.add(key)
        if mismatched:
            return False, self._diff(view_impl)
        return True, None

    def _diff(self, view_impl: dict, limit: int = 6) -> dict:
        """Same three-bucket shape as ``_view_diff``, restricted to (a sample
        of) the mismatched keys, plus the total mismatch count."""
        only_impl, only_spec, differ = {}, {}, {}
        for key in itertools.islice(iter(self.mismatched), limit):
            impl_val = view_impl.get(key, VIEW_ABSENT)
            spec_val = self.spec.view_at(key)
            if spec_val is VIEW_ABSENT:
                only_impl[key] = impl_val
            elif impl_val is VIEW_ABSENT:
                only_spec[key] = spec_val
            else:
                differ[key] = (impl_val, spec_val)
        return {
            "only_in_viewI": only_impl,
            "only_in_viewS": only_spec,
            "differing (viewI, viewS)": differ,
            "mismatched_keys": len(self.mismatched),
        }

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> dict:
        return {"differential": self.differential, "mismatched": set(self.mismatched)}

    def load_state(self, payload: dict, spec: Specification) -> None:
        self.spec = spec
        self.differential = bool(payload["differential"])
        self.mismatched = set(payload["mismatched"])


class RefinementChecker:
    """Incremental I/O / view refinement checker over a VYRD log.

    Parameters
    ----------
    spec:
        A fresh :class:`~repro.core.spec.Specification`; the checker owns and
        mutates it.
    mode:
        ``"io"`` or ``"view"``.
    impl_view:
        Required in view mode: the :class:`~repro.core.view.ImplView`
        computing ``viewI`` from the replayed state.
    invariants:
        :class:`~repro.core.invariants.Invariant` objects evaluated at every
        commit in view mode.  They read the replayed state, which io mode
        does not keep, so io mode refuses them.  An invariant with a
        per-unit form is evaluated only over the units written since the
        last state check.
    replay_registry:
        ``tag -> routine(state, payload)`` for coarse-grained log entries.
    stop_at_first:
        Stop processing at the first violation (the paper's
        time-to-detection methodology); set ``False`` to collect all.
    view_at:
        When to compare ``viewI``/``viewS`` in view mode: ``"commit"`` (the
        paper's choice -- at every commit action) or ``"quiescent"`` (only
        at quiescent states, where no method execution is in flight).  The
        latter is the commit-atomicity baseline the paper contrasts itself
        against in section 8: "most industrial-scale concurrent data
        structures are built to be used by large numbers of threads
        continuously and during any realistic execution, quiescent points
        are very rare" -- a claim the ablation benchmark quantifies.
    differential:
        In view mode, use the persistent :class:`ViewComparator` to
        reconcile only dirtied keys per commit (O(delta)) when both sides
        support the protocol; ``False`` forces the full per-commit
        comparison (the ablation baseline).
    """

    def __init__(
        self,
        spec: Specification,
        mode: str = IO_MODE,
        impl_view: Optional[ImplView] = None,
        invariants: Iterable[Invariant] = (),
        replay_registry: Optional[dict] = None,
        stop_at_first: bool = True,
        view_at: str = "commit",
        obs: Optional[Recorder] = None,
        differential: bool = True,
    ):
        if mode not in (IO_MODE, VIEW_MODE):
            raise ValueError(f"unknown mode {mode!r}")
        if view_at not in ("commit", "quiescent"):
            raise ValueError(f"unknown view_at {view_at!r}")
        if mode == VIEW_MODE and impl_view is None:
            raise ValueError("view mode requires an impl_view")
        self.invariants = list(invariants)
        if mode == IO_MODE and self.invariants:
            raise ValueError("io mode checks no invariants; use view mode")
        self.spec = spec
        self.mode = mode
        self.impl_view = impl_view
        # per invariant: its running per-unit evaluation, or None (full form)
        self._invariant_states = [
            UnitInvariantState(invariant) if invariant.per_unit else None
            for invariant in self.invariants
        ]
        self._unit_invariants = tuple(
            unit_state for unit_state in self._invariant_states
            if unit_state is not None
        )
        self.stop_at_first = stop_at_first
        self.view_at = view_at
        self.obs: Recorder = obs if obs is not None else NULL_RECORDER
        self._track_state = mode == VIEW_MODE
        self.replay = ReplayState(replay_registry) if self._track_state else None
        self._comparator = (
            ViewComparator(spec, impl_view, enabled=differential)
            if mode == VIEW_MODE
            else None
        )

        self.outcome = CheckOutcome()
        self._buffer: deque = deque()
        self._next_seq = 0
        self._returns: Dict[int, ReturnAction] = {}
        self._ops: Dict[int, _OpRecord] = {}
        self._observers = ObserverTracker(spec)
        self._open_ops = 0  # executions called but not yet returned
        self._stopped = False
        self._finished = False

    # -- feeding ----------------------------------------------------------------

    def feed(self, actions: Iterable[Action]) -> None:
        """Append new log records (any prefix extension) and process what can
        be processed."""
        obs = self.obs
        if obs.enabled:
            with obs.span("checker.feed", cat="checker"):
                self._ingest(actions)
        else:
            self._ingest(actions)

    def _ingest(self, actions: Iterable[Action]) -> None:
        """Register the feed's returns, then process each record straight
        from the feed.  Only a mutator's commit whose return has not been
        fed yet waits: it and every later record park in the lookahead
        buffer, which :meth:`_drain` empties once the return arrives."""
        if not isinstance(actions, (list, tuple, Log, LogView)):
            actions = list(actions)  # one-shot iterable: two passes below
        returns = self._returns
        for action in actions:
            if isinstance(action, ReturnAction):
                returns[action.op_id] = action
        start = self._next_seq
        self._next_seq = start + len(actions)
        buffer = self._buffer
        if buffer:
            self._drain()  # the returns just registered may release it
        if buffer or self._stopped:
            buffer.extend(zip(itertools.count(start), actions))
            return
        process_of = _PROCESS.get
        commit = RefinementChecker._process_commit
        seq = taken = start
        try:
            for action in actions:
                process = process_of(type(action))
                if process is None:
                    process = subclass_entry(
                        _PROCESS, action, RefinementChecker._process_unknown
                    )
                if process is commit and self._awaits_return(action):
                    break
                taken += 1
                process(self, seq, action)
                seq += 1
                if self._stopped:
                    break
        finally:
            # ``seq - start`` records were processed; the rest of the feed
            # (past a handler that raised, too) parks in order
            self.outcome.actions_processed += seq - start
            if taken < self._next_seq:
                buffer.extend(
                    zip(itertools.count(taken), actions[taken - start:])
                )

    @property
    def stopped(self) -> bool:
        """True once a violation stopped processing (``stop_at_first``)."""
        return self._stopped

    # -- draining -----------------------------------------------------------------

    def _drain(self) -> None:
        """Process parked records until a commit still waits for its return."""
        buffer = self._buffer
        while buffer and not self._stopped:
            seq, action = buffer[0]
            process = _PROCESS.get(type(action))
            if process is None:
                process = subclass_entry(
                    _PROCESS, action, RefinementChecker._process_unknown
                )
            if (process is RefinementChecker._process_commit
                    and self._awaits_return(action)):
                return
            buffer.popleft()
            process(self, seq, action)
            self.outcome.actions_processed += 1

    def _awaits_return(self, action: CommitAction) -> bool:
        """A mutator's commit whose return has not been fed yet: it waits
        for the return value (the online lookahead of section 2)."""
        if action.op_id is None or action.op_id in self._returns:
            return False
        record = self._ops.get(action.op_id)
        return record is not None and record.kind == MUTATOR

    def _violate(
        self,
        kind: ViolationKind,
        seq: int,
        message: str,
        signature: Optional[Signature] = None,
        **details,
    ) -> None:
        violation = Violation(kind, seq, message, signature, details)
        self.outcome.violations.append(violation)
        if self.outcome.detection_method_count is None:
            self.outcome.detection_method_count = self.outcome.methods_checked
        if self.stop_at_first:
            self._stopped = True

    # -- per-action processing --------------------------------------------------------
    # One handler per record type (``_PROCESS``); Read, Acquire and Release
    # records are atomicity-analysis events that refinement ignores.

    def _process_write(self, seq: int, action: WriteAction) -> None:
        if self._track_state:
            loc = action.loc
            self.replay.apply_write(action.tid, loc, action.old, action.new)
            if self.obs.enabled:
                self.obs.count("replay.writes")
            if self.impl_view is not None:
                self.impl_view.on_write(loc)
            for unit_state in self._unit_invariants:
                unit_state.on_write(loc)

    def _process_replay(self, seq: int, action: ReplayAction) -> None:
        if self._track_state:
            if self.obs.enabled:
                with self.obs.span(
                    "checker.replay", cat="checker", tid=action.tid,
                    tag=action.tag,
                ):
                    written = self.replay.apply_replay(
                        action.tid, action.tag, action.payload
                    )
            else:
                written = self.replay.apply_replay(
                    action.tid, action.tag, action.payload
                )
            if self.impl_view is not None:
                for loc in written:
                    self.impl_view.on_write(loc)
            for unit_state in self._unit_invariants:
                for loc in written:
                    unit_state.on_write(loc)

    def _process_begin_block(self, seq: int, action: BeginCommitBlockAction) -> None:
        if self._track_state:
            try:
                self.replay.begin_block(action.tid)
            except ValueError as exc:
                self._violate(ViolationKind.INSTRUMENTATION, seq, str(exc))

    def _process_end_block(self, seq: int, action: EndCommitBlockAction) -> None:
        if self._track_state:
            try:
                self.replay.end_block(action.tid)
            except ValueError as exc:
                self._violate(ViolationKind.INSTRUMENTATION, seq, str(exc))

    def _process_unknown(self, seq: int, action: Action) -> None:
        self._violate(
            ViolationKind.INSTRUMENTATION, seq, f"unknown action {action!r}"
        )

    def _process_call(self, seq: int, action: CallAction) -> None:
        try:
            kind = self.spec.method_kind(action.method)
        except SpecError as exc:
            self._violate(ViolationKind.INSTRUMENTATION, seq, str(exc))
            return
        record = _OpRecord(
            action.op_id, action.tid, action.method, action.args, seq, kind
        )
        self._ops[action.op_id] = record
        self._open_ops += 1
        if kind == OBSERVER:
            self._observers.open(
                action.op_id, action.tid, action.method, action.args, seq
            )

    def _process_commit(self, seq: int, action: CommitAction) -> None:
        if action.op_id is None:
            self.outcome.internal_commits += 1
            self._check_views_and_invariants(seq, action.tid, signature=None)
            return
        record = self._ops.get(action.op_id)
        if record is None:
            self._violate(
                ViolationKind.INSTRUMENTATION,
                seq,
                f"commit for unknown execution op_id={action.op_id}",
            )
            return
        if record.kind == OBSERVER:
            self._violate(
                ViolationKind.INSTRUMENTATION,
                seq,
                f"observer {record.method} has a commit action; observers must "
                "not be annotated (section 4.3)",
            )
            return
        record.commits += 1
        if record.commits > 1:
            self._violate(
                ViolationKind.INSTRUMENTATION,
                seq,
                f"execution of {record.method} committed more than once",
            )
            return
        result = self._returns[record.op_id].result
        signature = Signature(record.tid, record.method, record.args, result)
        obs = self.obs
        try:
            if obs.enabled:
                with obs.span(
                    "checker.witness_commit", cat="checker", tid=record.tid,
                    method=record.method,
                ):
                    self.spec.run_mutator(record.method, record.args, result)
            else:
                self.spec.run_mutator(record.method, record.args, result)
        except SpecReject as reject:
            self._violate(
                ViolationKind.IO,
                seq,
                f"specification rejects {signature}: {reject.reason}",
                signature,
                spec_state=self.spec.describe(),
                commit_index=self.outcome.commits_executed,
            )
            return
        self.outcome.commits_executed += 1
        if obs.enabled:
            obs.count("checker.commits_checked")
            with obs.span(
                "checker.observer_reeval", cat="checker", tid=record.tid
            ):
                self._observers.on_commit()
        else:
            self._observers.on_commit()
        self._check_views_and_invariants(seq, action.tid, signature)

    def _check_views_and_invariants(
        self, seq: int, tid: int, signature: Optional[Signature],
        where: str = "commit action",
    ) -> None:
        if not self._track_state or self._stopped:
            return
        if self.view_at == "quiescent" and where == "commit action":
            # commit-atomicity baseline: *all* state checks (view and
            # invariants) wait for a quiescent point
            return
        obs = self.obs
        state = self.replay.effective(tid)
        if obs.enabled:
            obs.count("replay.overlays")
            obs.observe("replay.overlay_locs", state.overlay_size)
        # locations rolled back by other threads' open commit blocks: the
        # view and the per-unit invariants revisit their units
        shadowed = self.replay.open_block_locs(excluding_tid=tid)
        if obs.enabled:
            with obs.span("checker.view_refresh", cat="checker", tid=tid):
                view_impl = self.impl_view.refresh(state, shadowed)
            recomputed = getattr(self.impl_view, "last_recomputed", None)
            if recomputed is not None:
                obs.observe("view.units_recomputed", recomputed)
        else:
            view_impl = self.impl_view.refresh(state, shadowed)
        comparator = self._comparator
        ok, diff = comparator.compare(view_impl)
        if obs.enabled:
            obs.observe("view.keys_compared", comparator.last_keys_compared)
            obs.observe(
                "spec_view.keys_dirtied", comparator.last_spec_keys_dirtied
            )
        if not ok:
            self._violate(
                ViolationKind.VIEW,
                seq,
                f"viewI differs from viewS at {where}",
                signature,
                diff=diff,
            )
            return
        units_checked = 0
        for invariant, unit_state in zip(self.invariants, self._invariant_states):
            if unit_state is None:
                if invariant.holds(state, self.spec):
                    continue
                details = {}
            else:
                units_checked += unit_state.evaluate(state, self.spec, shadowed)
                if not unit_state.failing:
                    continue
                details = {"units": sorted(unit_state.failing, key=repr)[:6]}
            self._violate(
                ViolationKind.INVARIANT,
                seq,
                f"invariant {invariant.name!r} violated at commit action",
                signature,
                **details,
            )
            break
        if obs.enabled and self._unit_invariants:
            obs.observe("invariants.units_checked", units_checked)

    def _process_return(self, seq: int, action: ReturnAction) -> None:
        self.outcome.methods_checked += 1
        # The execution is over: drop its lookahead entries, so on a long
        # log _ops/_returns stay bounded by the number of *open* executions
        # rather than growing with every method ever checked.
        self._returns.pop(action.op_id, None)
        record = self._ops.pop(action.op_id, None)
        if record is None:
            self._violate(
                ViolationKind.INSTRUMENTATION,
                seq,
                f"return for unknown execution op_id={action.op_id}",
            )
            return
        self._open_ops -= 1
        signature = Signature(record.tid, record.method, record.args, action.result)
        if record.kind == OBSERVER:
            window = self._observers.close(action.op_id, action.result)
            if self.obs.enabled:
                self.obs.observe("observer.window_size", len(window.answers))
            if not window.accepts(action.result):
                self._violate(
                    ViolationKind.OBSERVER,
                    seq,
                    f"observer result {action.result!r} is not consistent with "
                    f"any commit point in its window",
                    signature,
                    allowed=window.answers,
                    spec_state=self.spec.describe(),
                )
        elif record.commits == 0:
            self._violate(
                ViolationKind.INSTRUMENTATION,
                seq,
                f"mutator {record.method} returned without a commit action "
                "(every execution path needs exactly one, section 4.1)",
                signature,
            )
        if (
            self.view_at == "quiescent"
            and self.mode == VIEW_MODE
            and self._open_ops == 0
            and not self._stopped
        ):
            # A quiescent state (section 8's commit-atomicity baseline):
            # nothing is mid-method, so compare states here.
            self._check_views_and_invariants(
                seq, action.tid, signature, where="quiescent state"
            )

    # -- checkpointing -----------------------------------------------------------------

    def _config_fingerprint(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "view_at": self.view_at,
            "stop_at_first": self.stop_at_first,
            "spec_type": type(self.spec).__name__,
            "impl_view_type": type(self.impl_view).__name__ if self.impl_view else None,
            "invariants": sorted(inv.name for inv in self.invariants),
            "unit_invariants": sorted(
                unit_state.invariant.name for unit_state in self._unit_invariants
            ),
        }

    def checkpoint(self, meta: Optional[Dict[str, Any]] = None) -> Checkpoint:
        """Capture everything needed to resume checking at ``_next_seq``.

        The checkpoint carries data only (spec instance, view caches,
        comparator state, per-unit invariant state, replayed state, observer
        windows, the lookahead buffer); code -- view factories, replay
        routines, invariants -- is rebuilt by constructing a fresh checker
        from the same program registry and calling :meth:`restore` on it.
        """
        payload: Dict[str, Any] = {
            "config": self._config_fingerprint(),
            "next_seq": self._next_seq,
            "spec": self.spec,
            "outcome": self.outcome,
            "buffer": list(self._buffer),
            "returns": dict(self._returns),
            "ops": dict(self._ops),
            "open_ops": self._open_ops,
            "stopped": self._stopped,
            "finished": self._finished,
            "observers": self._observers.state_dict(),
            "replay": self.replay.state_dict() if self.replay is not None else None,
            "impl_view": (
                self.impl_view.state_dict() if self.impl_view is not None else None
            ),
            "comparator": (
                self._comparator.state_dict() if self._comparator is not None else None
            ),
            "unit_invariants": [
                unit_state.state_dict() for unit_state in self._unit_invariants
            ],
        }
        full_meta = {"resume_seq": self._next_seq}
        if meta:
            full_meta.update(meta)
        return Checkpoint(payload=payload, meta=full_meta)

    def restore(self, checkpoint: Checkpoint) -> None:
        """Load a checkpoint into this freshly constructed checker.

        The checker must have been built with the same configuration (same
        program registry entry) and must not have processed anything yet;
        feed it the log records from ``checkpoint.resume_seq`` onward.
        """
        if self._next_seq != 0 or self.outcome.actions_processed != 0:
            raise CheckpointError("restore() requires a freshly constructed checker")
        payload = checkpoint.payload
        config = payload.get("config")
        if config != self._config_fingerprint():
            raise CheckpointError(
                "checkpoint configuration does not match this checker: "
                f"saved {config!r}, running {self._config_fingerprint()!r}"
            )
        self.spec = payload["spec"]
        self.outcome = payload["outcome"]
        self._next_seq = payload["next_seq"]
        self._buffer = deque(payload["buffer"])
        self._returns = dict(payload["returns"])
        self._ops = dict(payload["ops"])
        self._open_ops = payload["open_ops"]
        self._stopped = payload["stopped"]
        self._finished = payload["finished"]
        self._observers.load_state(payload["observers"], self.spec)
        if self.replay is not None and payload["replay"] is not None:
            self.replay.load_state(payload["replay"])
        if self.impl_view is not None and payload["impl_view"] is not None:
            self.impl_view.load_state(payload["impl_view"])
        if self._comparator is not None and payload["comparator"] is not None:
            self._comparator.load_state(payload["comparator"], self.spec)
        for unit_state, saved in zip(self._unit_invariants, payload["unit_invariants"]):
            unit_state.load_state(saved)

    # -- finishing ---------------------------------------------------------------------

    def _check_unit_invariant_drift(self) -> None:
        """One full evaluation of every per-unit invariant over the final
        state must agree with its reconciled failing set; a disagreement
        means ``unit_of`` misses a location the invariant reads.  This only
        ever reports INSTRUMENTATION, never INVARIANT."""
        state = self.replay.effective(None)
        shadowed = self.replay.open_block_locs(None)
        drifted = []
        for unit_state in self._unit_invariants:
            unit_state.evaluate(state, self.spec, shadowed)
            if unit_state.invariant.holds(state, self.spec) == bool(unit_state.failing):
                drifted.append(unit_state.invariant.name)
        if drifted:
            self.outcome.stats["invariant_drift"] = drifted
            self._violate(
                ViolationKind.INSTRUMENTATION,
                self._next_seq,
                "invariant unit map incomplete: per-unit evaluation of "
                f"{', '.join(map(repr, drifted))} disagrees with the full check",
            )

    def finish(self) -> CheckOutcome:
        """Declare the log complete and return the final outcome.

        The final full check, in view mode: the incremental view is
        cross-checked against a from-scratch recomputation and the spec
        view, and every per-unit invariant's failing set against one full
        evaluation."""
        if self._finished:
            return self.outcome
        self._finished = True
        self._drain()
        if self._buffer and not self._stopped:
            self.outcome.incomplete = True
            self.outcome.stats["unprocessed_actions"] = len(self._buffer)
        if (
            self.mode == VIEW_MODE
            and not self._stopped
            and not self.outcome.incomplete
        ):
            state = self.replay.effective(None)
            full = self.impl_view.compute_full(state)
            incremental = self.impl_view.refresh(
                state, self.replay.open_block_locs(None)
            )
            if full != incremental:
                self.outcome.stats["incremental_drift"] = _view_diff(incremental, full)
                self._violate(
                    ViolationKind.INSTRUMENTATION,
                    self._next_seq,
                    "incremental view drifted from full recomputation "
                    "(unit_of/supp(view) mapping is incomplete)",
                )
            elif full != self.spec.view():
                self._violate(
                    ViolationKind.VIEW,
                    self._next_seq,
                    "final quiescent viewI differs from viewS",
                    diff=_view_diff(full, self.spec.view()),
                )
            elif self._comparator is not None and self._comparator.differential:
                # The views agree in full -- the differential comparator's
                # running mismatch set must agree too, or its dirty-key
                # bookkeeping (spec _touch calls / view last_touched_keys)
                # is incomplete.
                self._comparator.compare(self.impl_view.value())
                if self._comparator.mismatched:
                    self.outcome.stats["comparator_drift"] = sorted(
                        map(repr, self._comparator.mismatched)
                    )
                    self._violate(
                        ViolationKind.INSTRUMENTATION,
                        self._next_seq,
                        "differential comparator drifted from full comparison "
                        "(a spec mutator or view is under-reporting touched keys)",
                    )
        if (
            self._unit_invariants
            and not self._stopped
            and not self.outcome.incomplete
        ):
            self._check_unit_invariant_drift()
        self.outcome.stats.setdefault("pending_observers", self._observers.pending_count())
        return self.outcome


#: Record type -> handler, in the order a subclass is matched against; any
#: other record is an instrumentation violation.
_PROCESS = {
    CallAction: RefinementChecker._process_call,
    WriteAction: RefinementChecker._process_write,
    ReplayAction: RefinementChecker._process_replay,
    BeginCommitBlockAction: RefinementChecker._process_begin_block,
    EndCommitBlockAction: RefinementChecker._process_end_block,
    CommitAction: RefinementChecker._process_commit,
    ReturnAction: RefinementChecker._process_return,
    ReadAction: ignore_record,
    AcquireAction: ignore_record,
    ReleaseAction: ignore_record,
}


def check_log(
    log: Log,
    spec: Specification,
    mode: str = IO_MODE,
    impl_view: Optional[ImplView] = None,
    invariants: Iterable[Invariant] = (),
    replay_registry: Optional[dict] = None,
    stop_at_first: bool = True,
    view_at: str = "commit",
    differential: bool = True,
) -> CheckOutcome:
    """Offline convenience: check a complete log in one call."""
    from .plan import CheckPlan  # late: plan -> refinement

    plan = CheckPlan(
        mode=mode,
        spec_factory=lambda: spec,
        view_factory=(lambda: impl_view) if impl_view is not None else None,
        invariants=tuple(invariants),
        replay_registry=replay_registry,
        stop_at_first=stop_at_first,
        view_at=view_at,
        differential=differential,
    )
    return plan.check(log).refinement
