"""The VYRD facade: wiring instrumentation, logging and checking together.

Typical use::

    from repro import Vyrd, Kernel

    vyrd = Vyrd(
        spec_factory=lambda: MultisetSpec(),
        mode="view",
        impl_view_factory=lambda: multiset_view("A"),
    )
    kernel = Kernel(seed=11, tracer=vyrd.tracer)
    ds = VectorMultiset(size=8)
    vds = vyrd.wrap(ds)
    ... spawn threads that `yield from vds.insert(ctx, x)` ...
    kernel.run()
    outcome = vyrd.check_offline()

Two checking deployments, mirroring paper section 4.2 / Table 3:

* **offline** -- run the program first, check the completed log afterwards
  (:meth:`Vyrd.check_offline`); the "VYRD alone" column of Table 3.
* **online** -- spawn a daemon *verification thread* into the same kernel
  (:meth:`Vyrd.start_online`); it consumes the log tail while application
  threads run, interleaved by the scheduler exactly like the paper's separate
  verifier thread; the "Prog + logging and VYRD" column of Table 3.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..concurrency.kernel import Kernel, SimThread
from ..obs import NULL_RECORDER, Recorder
from .instrument import InstrumentedDataStructure, VyrdTracer
from .invariants import Invariant
from .log import Log
from .plan import CheckPlan, PlanOutcome
from .refinement import IO_MODE, VIEW_MODE, CheckOutcome, RefinementChecker
from .spec import Specification
from .view import ImplView


class Vyrd:
    """One verification session: a log, a tracer and its check plan.

    The plan (:class:`~repro.core.plan.CheckPlan`, ``self.plan``) is built
    once, here, from the arguments below; every checker the session creates
    comes from it.

    Parameters
    ----------
    spec_factory:
        Builds a fresh :class:`Specification` in its initial state.  A
        factory (not an instance) because every checker run consumes one.
    mode:
        ``"io"`` or ``"view"`` refinement.
    impl_view_factory:
        Builds a fresh :class:`ImplView`; required in view mode.
    invariants:
        Runtime invariants evaluated at every commit; view mode only, as
        they read the replayed state.  Giving them in io mode raises
        ``ValueError``.  An io session carries neither them nor the view,
        and logs at io level (:meth:`~repro.core.plan.CheckPlan.in_mode`).
    replay_registry:
        Routines for coarse-grained log entries, ``tag -> fn(state, payload)``.
    log_level:
        Logging granularity override; defaults to what ``mode`` needs
        (``"io"`` logs calls/returns/commits only, ``"view"`` adds writes).
    races:
        Enable dynamic race detection alongside refinement: ``"hb"``
        (vector-clock happens-before), ``"lockset"`` (full Eraser), or
        ``"both"``/``True``.  Implies ``log_locks`` and ``log_reads`` so the
        log carries the synchronization and read events the detectors need.
    atomic_locs:
        Location-name prefixes that are atomic by construction (volatile /
        internally synchronized storage); the race detectors treat their
        accesses as synchronization, not as candidate races.
    linearizability:
        Enable annotation-free linearizability checking for this session
        (:mod:`repro.linz`).  ``True`` checks against ``spec_factory``;
        a callable supplies a different spec factory for the
        linearization search (e.g. a strict variant of a permissive
        refinement spec).  Read the verdict with
        :meth:`check_linearizability`, or from the online verifier's
        :meth:`OnlineVerifier.finish`.
    obs:
        Observability recorder (:mod:`repro.obs`); flows into the tracer and
        every checker this session creates.  Pass the same recorder to the
        :class:`Kernel` so spans are keyed to its step clock.
    log:
        The session's action log; defaults to a fresh in-memory
        :class:`Log`.  Subclasses (e.g. the streaming service's shard tee)
        may be injected to mirror every append elsewhere -- the kernel's
        logging clock still serializes appends, so the override needs no
        locking of its own.
    """

    def __init__(
        self,
        spec_factory: Callable[[], Specification],
        mode: str = IO_MODE,
        impl_view_factory: Optional[Callable[[], ImplView]] = None,
        invariants: Iterable[Invariant] = (),
        replay_registry: Optional[dict] = None,
        log_level: Optional[str] = None,
        log_locks: bool = False,
        log_reads: bool = False,
        races=None,
        atomic_locs: Iterable[str] = (),
        linearizability=False,
        obs: Optional[Recorder] = None,
        log: Optional[Log] = None,
    ):
        if mode == VIEW_MODE and impl_view_factory is None:
            raise ValueError("view mode requires impl_view_factory")
        invariants = tuple(invariants)
        if mode == IO_MODE and invariants:
            raise ValueError("io mode checks no invariants; use view mode")
        self.obs: Recorder = obs if obs is not None else NULL_RECORDER
        self.plan = CheckPlan(
            mode=mode,
            spec_factory=spec_factory,
            view_factory=impl_view_factory,
            invariants=invariants,
            replay_registry=dict(replay_registry or {}),
            races=races,
            atomic_locs=tuple(atomic_locs),
            linz=bool(linearizability),
            linz_spec_factory=linearizability if callable(linearizability) else None,
            obs=self.obs,
        ).in_mode(mode)
        flags = self.plan.log_flags
        self.log = log if log is not None else Log()
        self.tracer = VyrdTracer(
            self.log,
            level=log_level if log_level is not None else flags["log_level"],
            log_locks=log_locks or flags["log_locks"],
            log_reads=log_reads or flags["log_reads"],
            obs=self.obs,
        )

    # -- instrumentation -------------------------------------------------------

    def wrap(self, impl, methods: Optional[set] = None) -> InstrumentedDataStructure:
        """Wrap an implementation so its public operations are logged."""
        return InstrumentedDataStructure(impl, self.tracer, methods)

    # -- checking ----------------------------------------------------------------

    def new_checker(self) -> RefinementChecker:
        """A fresh incremental checker bound to this session's configuration."""
        return self.plan.refinement_checker()

    def check_offline(self) -> CheckOutcome:
        """Check the (completed) log from scratch."""
        checker = self.new_checker()
        checker.feed(self.log)
        return checker.finish()

    def new_race_checker(self):
        """A fresh incremental race checker for this session's detectors.

        Requires ``races=...`` at construction (the tracer must have
        recorded synchronization and read events)."""
        if not self.plan.races:
            raise ValueError(
                "race detection not enabled; construct Vyrd(races='both' "
                "/ 'hb' / 'lockset')"
            )
        return self.plan.race_checker()

    def check_races(self):
        """Run the configured race detectors over the (completed) log."""
        checker = self.new_race_checker()
        checker.feed(self.log)
        return checker.finish()

    def check_linearizability(self):
        """Search the (completed) log for a valid linearization.

        Annotation-free: consumes only the call/return history, so it works
        at every log level and needs no commit instrumentation.  Uses the
        session's linearizability spec factory (``linearizability=`` at
        construction, defaulting to ``spec_factory``).
        Returns a :class:`repro.linz.LinzOutcome`.
        """
        return self.plan.linz_checker().check(self.log)

    def check_offline_with_mode(self, mode: str, view_at: str = "commit") -> CheckOutcome:
        """Check the same log under a different refinement mode.

        This is how the paper compares I/O and view refinement "on the same
        trace" (Table 1): one view-level log, two checkers.  Pure I/O mode
        uses neither the replayed state nor the invariants; an io session
        has no view, so switching it to view mode raises ``ValueError``.
        ``view_at="quiescent"`` gives the commit-atomicity baseline of
        section 8 (state comparison only at quiescent points)."""
        checker = self.plan.in_mode(mode, view_at).refinement_checker()
        checker.feed(self.log)
        return checker.finish()

    def start_online(self, kernel: Kernel) -> "OnlineVerifier":
        """Spawn the verification thread into ``kernel`` (daemon).

        Call :meth:`OnlineVerifier.finalize` after ``kernel.run()`` to
        process the remaining log tail and obtain the outcome.
        """
        verifier = OnlineVerifier(self)
        verifier.thread = kernel.spawn(verifier._body, name="vyrd-verifier", daemon=True)
        return verifier


class OnlineVerifier:
    """The separate verification thread of paper section 4.2.

    It runs as a daemon simulated thread: every time the scheduler picks it,
    it atomically consumes all new log records through the session plan's
    composite checker (:class:`~repro.core.plan.PlanChecker`).  Violations
    are therefore detected *during* the run, as close to their commit
    actions as scheduling allows.

    When the session was built with ``races=...``, the same tail feeds the
    race detectors alongside refinement; a session built with
    ``linearizability=...`` keeps the consumed records and searches them.
    :meth:`finish` returns every verdict.
    """

    def __init__(self, session: Vyrd):
        self.session = session
        self.checker = session.plan.checker()
        self.cursor = 0
        self.thread: Optional[SimThread] = None
        self._outcome: Optional[PlanOutcome] = None

    def _consume(self) -> None:
        log = self.session.log
        obs = self.session.obs
        if obs.enabled:
            obs.count("verifier.polls")
        if self.cursor < len(log):
            # `since` returns a copy-free bounded view; advance the cursor to
            # the view's end, not len(log), so records appended while the
            # checkers run are picked up by the next poll.
            fresh = log.since(self.cursor)
            self.cursor = fresh.stop
            if obs.enabled:
                with obs.span(
                    "verifier.consume", cat="verifier", actions=len(fresh)
                ):
                    self.checker.feed(fresh)
            else:
                self.checker.feed(fresh)

    def _done(self) -> bool:
        return self.checker.stopped

    def _body(self, ctx):
        # Park (finish the daemon generator) once every checker has stopped:
        # a stopped checker ignores all further input, so each extra
        # `yield ctx.checkpoint()` would only burn a scheduler slot and
        # perturb application-thread interleavings for the rest of the run.
        while not self._done():
            yield ctx.checkpoint()
            if not self._done():
                self._consume()

    @property
    def detected(self) -> bool:
        """True once the online checker has found a violation."""
        return bool(self.checker.refinement.outcome.violations)

    def finish(self) -> PlanOutcome:
        """Consume whatever the run left in the log and finish every check
        (idempotent).  Stopped members ignore the tail; the linz search
        needs all of it."""
        if self._outcome is None:
            self._consume()
            self._outcome = self.checker.finish()
        return self._outcome

    def finalize(self) -> CheckOutcome:
        """The refinement outcome (see :meth:`finish`)."""
        return self.finish().refinement
