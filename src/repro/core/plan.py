"""One check plan behind every entry point.

In the paper one verification thread consumes the log and checks it,
online or offline (section 4.2).  A :class:`CheckPlan` is that thread's
configuration: which checkers run, over which spec, view, invariants and
detectors, and what the tracer must log for them.  It is the only code that
constructs a :class:`~repro.core.refinement.RefinementChecker`, a
:class:`~repro.races.RaceChecker` or a :class:`~repro.linz.LinzChecker`.

``plan.checker()`` returns a :class:`PlanChecker`: one composite with
``feed``, ``finish``, ``checkpoint`` and ``restore`` over whichever members
the plan enables.  ``feed`` goes to the incremental members (refinement and
races); the linearizability search stays offline, so ``finish`` searches the
history the composite was fed.

The plan also owns the rules every entry point shares:

* **members per mode** -- :meth:`CheckPlan.in_mode` and
  :meth:`CheckPlan.for_program`;
* **spec per side** under a linz variant, and the ``check --mode both``
  agreement rule (:meth:`CheckPlan.agreement`);
* **log flags** -- :attr:`CheckPlan.log_flags`;
* **errors** -- :data:`CHECK_ERRORS` and :func:`problem_of`: how an error
  that leaves no verdict becomes a typed problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import Recorder
from .checkpoint import Checkpoint, CheckpointError
from .instrument import IO_LEVEL, VIEW_LEVEL
from .log import LogFormatError
from .refinement import IO_MODE, VIEW_MODE, CheckOutcome, RefinementChecker

#: Plan modes :meth:`CheckPlan.for_program` accepts: the two refinement
#: modes, the linearizability search alone, or I/O refinement and the
#: search cross-validated.
LINZ = "linz"
BOTH = "both"


class SearchBudgetExceeded(Exception):
    """The linearization search exceeded its node budget.

    Deliberately *not* a violation: an exhausted budget proves nothing
    about the history either way, so it must surface as a hard error
    (CLI exit code 2), never as a verdict.
    """

    def __init__(self, nodes: int, max_nodes: int):
        self.nodes = nodes
        self.max_nodes = max_nodes
        super().__init__(
            f"linearization search exceeded {max_nodes} nodes "
            f"(memoization off or state space too wide); raise max_nodes "
            "or enable memoization"
        )


class HistoryError(Exception):
    """The log's call/return records do not form a history (tool misuse:
    a return without a call, or a duplicated operation id)."""


#: Errors that end a check without a verdict: a damaged log, an exhausted
#: search budget, a log with no linz history, a file that cannot be read.
CHECK_ERRORS = (LogFormatError, SearchBudgetExceeded, HistoryError, OSError)


def problem_of(exc: BaseException) -> Dict[str, Any]:
    """The typed problem object for one of :data:`CHECK_ERRORS`."""
    problem: Dict[str, Any] = {
        "ok": False, "problem": str(exc), "error_type": type(exc).__name__,
    }
    if isinstance(exc, LogFormatError):
        problem["offset"] = exc.offset
        problem["record_index"] = exc.record_index
    return problem


@dataclass(frozen=True)
class CheckPlan:
    """Everything a check needs; each member is enabled by its own fields.

    * refinement, when ``mode`` is set: ``spec_factory``, ``view_factory``
      (view mode), ``invariants``, ``replay_registry``, ``stop_at_first``,
      ``view_at`` and ``differential`` (see
      :class:`~repro.core.refinement.RefinementChecker`);
    * races, when ``races`` names detectors (any spelling
      :func:`~repro.races.normalize_detectors` accepts, normalized):
      ``atomic_locs``;
    * linearizability, when ``linz`` is set: ``linz_spec_factory``
      (defaults to ``spec_factory``), ``memo`` and ``max_nodes``;
    * ``divergence``: the documented reason the refinement and linz
      verdicts may disagree (``check --mode both``).
    """

    mode: Optional[str] = None
    spec_factory: Optional[Callable] = None
    view_factory: Optional[Callable] = None
    invariants: Tuple = ()
    replay_registry: Optional[dict] = None
    stop_at_first: bool = True
    view_at: str = "commit"
    differential: bool = True
    races: Optional[Tuple[str, ...]] = None
    atomic_locs: Tuple[str, ...] = ()
    linz: bool = False
    linz_spec_factory: Optional[Callable] = None
    memo: bool = True
    max_nodes: int = 2_000_000
    divergence: Optional[str] = None
    obs: Optional[Recorder] = None

    def __post_init__(self):
        if self.races:
            from ..races import normalize_detectors  # late: races -> core

            object.__setattr__(self, "races", normalize_detectors(self.races))

    @classmethod
    def for_program(
        cls,
        name: str,
        mode: str = VIEW_MODE,
        *,
        races=None,
        variant: str = "default",
        stop_at_first: bool = True,
        max_nodes: int = 2_000_000,
    ) -> "CheckPlan":
        """The plan for a registry program in ``mode`` (``"io"``,
        ``"view"``, ``"linz"`` or ``"both"``), rebuilt from its name alone.

        Under a linz ``variant`` each side uses its own spec: the search the
        variant's linz spec, the I/O refinement of ``"both"`` the variant's
        refinement spec (the registry's by default)."""
        from ..harness.workload import PROGRAMS  # late: harness -> core

        entry = PROGRAMS[name]
        built = entry.build(False, 1)
        plan = cls(
            mode=VIEW_MODE, spec_factory=built.spec_factory,
            view_factory=built.view_factory, invariants=tuple(built.invariants),
            replay_registry=built.replay_registry, stop_at_first=stop_at_first,
            races=races, atomic_locs=tuple(entry.atomic_locs),
        )
        if mode not in (LINZ, BOTH):
            return plan.in_mode(mode)
        from ..linz import linz_config  # late: linz -> harness -> core

        config = linz_config(name, variant)
        return replace(
            plan.in_mode(IO_MODE),
            mode=IO_MODE if mode == BOTH else None,
            spec_factory=config.refinement_spec_factory or built.spec_factory,
            linz=True, linz_spec_factory=config.linz_spec_factory,
            max_nodes=max_nodes, divergence=config.expected_divergence,
        )

    def in_mode(self, mode: str, view_at: str = "commit") -> "CheckPlan":
        """This plan with its refinement member switched to ``mode``.

        View mode carries the view and the invariants, io mode neither, so
        an io plan logs at io level.  The switch drops what io mode does
        not use; a plan *built* in io mode with invariants is refused when
        its checker is made (:class:`~repro.core.refinement.RefinementChecker`).
        """
        view = mode == VIEW_MODE
        return replace(
            self, mode=mode, view_at=view_at,
            view_factory=self.view_factory if view else None,
            invariants=self.invariants if view else (),
        )

    @property
    def log_flags(self) -> Dict[str, Any]:
        """What the tracer must record for these members: view mode needs
        view-level logging, the race detectors need lock and read
        events."""
        sync = bool(self.races)
        return {
            "log_level": VIEW_LEVEL if self.mode == VIEW_MODE else IO_LEVEL,
            "log_locks": sync,
            "log_reads": sync,
        }

    # -- the members -----------------------------------------------------------

    def refinement_checker(self) -> RefinementChecker:
        """A fresh incremental refinement checker."""
        return RefinementChecker(
            self.spec_factory(),
            mode=self.mode,
            impl_view=self.view_factory() if self.view_factory else None,
            invariants=self.invariants,
            replay_registry=self.replay_registry,
            stop_at_first=self.stop_at_first,
            view_at=self.view_at,
            obs=self.obs,
            differential=self.differential,
        )

    def race_checker(self):
        """A fresh incremental :class:`~repro.races.RaceChecker`."""
        from ..races import RaceChecker

        return RaceChecker(detectors=self.races, atomic_locs=self.atomic_locs)

    def linz_checker(self):
        """A :class:`~repro.linz.LinzChecker` over the linz spec."""
        from ..linz.checker import LinzChecker

        return LinzChecker(
            self.linz_spec_factory or self.spec_factory,
            memo=self.memo, max_nodes=self.max_nodes, obs=self.obs,
        )

    def checker(self) -> "PlanChecker":
        """One composite checker over every member this plan enables."""
        return PlanChecker(
            refinement=self.refinement_checker() if self.mode else None,
            races=self.race_checker() if self.races else None,
            linz=self.linz_checker() if self.linz else None,
        )

    def check(self, log) -> "PlanOutcome":
        """Check a complete log in one call."""
        checker = self.checker()
        checker.feed(log)
        return checker.finish()

    def agreement(self, outcome: "PlanOutcome") -> Dict[str, Any]:
        """``check --mode both``: the refinement and linz verdicts must
        agree, unless they split the documented way -- refinement OK and a
        linearizability violation, for a plan carrying a ``divergence``
        (a permissive refinement spec accepting a genuinely
        non-linearizable execution).  Any other split is a finding, and so
        is any unexplained violation."""
        ref, linz = outcome.refinement, outcome.linz
        agree = ref.ok == linz.ok
        expected = self.divergence if ref.ok and not linz.ok else None
        problem = None
        if not agree and expected is None:
            ref_verdict = "OK" if ref.ok else str(ref.first_violation)
            linz_verdict = "OK" if linz.ok else str(linz.first_violation)
            problem = (
                f"verdict-disagreement: refinement={ref_verdict}; "
                f"linearizability={linz_verdict}"
            )
        elif not linz.ok and expected is None:
            problem = str(linz.first_violation)
        elif not ref.ok:
            problem = str(ref.first_violation)
        return {
            "ok": problem is None,
            "agree": agree,
            "expected_divergence": expected,
            "problem": problem,
        }


@dataclass
class PlanOutcome:
    """The verdict of each member a plan enabled (``None`` for the rest)."""

    refinement: Optional[CheckOutcome] = None
    races: Optional[Any] = None  # RaceOutcome
    linz: Optional[Any] = None  # LinzOutcome


class PlanChecker:
    """One checker over a plan's members, fed and checkpointed as one.

    ``refinement`` and ``races`` consume every :meth:`feed` (a member that
    stopped is skipped); when ``linz`` is set the fed records are kept and
    :meth:`finish` searches them.  The serve daemon wraps whatever its
    checker factories build in one of these.
    """

    def __init__(self, refinement=None, races=None, linz=None):
        self.refinement = refinement
        self.races = races
        self.linz = linz
        self.history: Optional[list] = [] if linz is not None else None
        self.fed = 0  # records fed so far: the resume seq of a checkpoint
        self._incremental = tuple(
            member for member in (refinement, races) if member is not None
        )
        self._outcome: Optional[PlanOutcome] = None

    @property
    def stopped(self) -> bool:
        """True once every incremental member has stopped; the offline
        linz search never keeps the checker awake."""
        return all(member.stopped for member in self._incremental)

    def feed(self, actions) -> None:
        """Append the next records (a sized sequence, in log order)."""
        for member in self._incremental:
            if not member.stopped:
                member.feed(actions)
        if self.history is not None:
            self.history.extend(actions)
        self.fed += len(actions)

    def finish(self) -> PlanOutcome:
        """Declare the log complete; every member's verdict (idempotent).
        Raises :class:`SearchBudgetExceeded` when the search gives up."""
        if self._outcome is None:
            self._outcome = PlanOutcome(
                self.refinement.finish() if self.refinement is not None else None,
                self.races.finish() if self.races is not None else None,
                self.linz.check(self.history) if self.linz is not None else None,
            )
        return self._outcome

    # -- checkpointing ---------------------------------------------------------

    def _members(self) -> list:
        return [
            name for name in ("refinement", "races", "linz")
            if getattr(self, name) is not None
        ]

    def checkpoint(self, meta: Optional[Dict[str, Any]] = None) -> Checkpoint:
        """Every member's state at :attr:`fed`: the refinement checker's own
        checkpoint payload, the race detectors' state (it pickles whole)
        and the history the linz search will need."""
        payload = {
            "members": self._members(),
            "fed": self.fed,
            "refinement": (
                self.refinement.checkpoint().payload
                if self.refinement is not None else None
            ),
            "races": (
                self.races.state_dict() if self.races is not None else None
            ),
            "history": self.history,
        }
        return Checkpoint(payload=payload, meta={"resume_seq": self.fed, **(meta or {})})

    def restore(self, checkpoint: Checkpoint) -> None:
        """Load a checkpoint into this freshly built checker; then feed it
        the records from ``checkpoint.resume_seq`` on.  A checkpoint of a
        different member set or configuration is a :class:`CheckpointError`."""
        if self.fed:
            raise CheckpointError("restore() requires a freshly built checker")
        payload = checkpoint.payload
        if payload.get("members") != self._members():
            raise CheckpointError(
                f"checkpoint members {payload.get('members')!r} do not "
                f"match this checker's {self._members()!r}"
            )
        if self.refinement is not None:
            self.refinement.restore(Checkpoint(payload=payload["refinement"]))
        if self.races is not None:
            self.races.load_state(payload["races"])
        if self.history is not None:
            self.history = list(payload["history"])
        self.fed = payload["fed"]
