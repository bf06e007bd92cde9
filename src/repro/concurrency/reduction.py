"""Sleep-set schedule reduction driven by the static effect analysis.

Exhaustive exploration (:mod:`repro.concurrency.explore`) enumerates every
interleaving, but most schedules differ only by swaps of *independent*
steps -- steps whose order provably cannot change any view, verdict or
happens-before order.  This module prunes those redundant schedules with
classic sleep sets (Godefroid), fed by two layers of evidence:

* **Static layer** -- the :class:`repro.lint.effects.ClassEffects`
  independence matrix.  A pair of operations may be reduced only when the
  analyzer bounded both footprints (no VY008) and classified the pair
  ``independent`` or ``conditional``; a ``dependent`` pair, an incomplete
  operation, or a step executed outside any ``@operation`` (daemons,
  worker glue) is never reduced.  The static matrix is the *license*:
  no dynamic refinement is consulted for a pair it does not clear.
* **Dynamic layer** -- the concrete step descriptors harvested from the
  run itself (:func:`describe_syscall`).  ``conditional`` pairs (same
  structure, possibly-distinct elements) commute exactly when their
  concrete steps touch different cells and different locks, which the
  descriptors decide per step.

**Why harvested next-steps are sound.**  Sleep sets need to know, at a
decision node, which step each enabled thread *would* take.  On this
substrate that step is already determined: a ready simulated thread is
suspended at a ``yield`` with its resume value fixed (the kernel computes
``send_value`` when the previous syscall executes, not at resume time), so
the next syscall it yields is a function of its own suspended state alone.
The only loophole -- Python-level shared state read while resuming -- is
exactly what VY005/VY008 police: any operation with an unvetted hidden
write has an incomplete footprint and is excluded from reduction.  The
run therefore reveals every enabled thread's pending step at node ``d``
the next time that thread executes (it cannot have changed in between);
a thread that never runs again stays unknown and is conservatively
treated as dependent with everything.

**Sleep-set protocol.**  A frontier entry is ``(prefix, sleep)`` where
``sleep`` maps tids to the (method, descriptor) step already explored in a
sibling subtree.  :class:`ReducedReplayScheduler` replays the prefix,
then at every free decision picks the first *non-sleeping* thread,
snapshots the node's sleep set, and filters the sleep set through each
executed step (an entry survives only steps it is independent of).  After
the run, :meth:`ReducedReplayScheduler.siblings` emits, for every free
depth, the unexplored alternatives exactly as the unreduced frontier
protocol does -- except that alternatives already asleep are *pruned*
(counted, never executed) and each generated sibling inherits
``{u in sleep + earlier-siblings : independent(u, step_into_sibling)}``.
Every entry's sleep set is computed by the run that generated it, so the
exploration frontier (:mod:`repro.concurrency.explore`) hands entries to
any worker with no extra coordination, and reduced campaigns cover the
identical schedule set at every job count.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .kernel import (
    CommitSys,
    Pass,
    ReleaseSys,
    RWBeginReadSys,
    RWBeginWriteSys,
    RWEndReadSys,
    RWEndWriteSys,
    WriteSys,
)
from .memory import SharedCell
from .primitives import Lock
from .schedulers import ReplayScheduler

# Step descriptors: small picklable tuples naming the shared effect of one
# executed kernel step.
PASS = ("pass",)    # pure scheduling point, no effect
EXIT = ("exit",)    # thread finished (changes runnable set, wakes joiners)
OTHER = ("other",)  # replay entries, joins, condition ops, commit blocks

#: A harvested step: (operation method name or None, descriptor).
Step = Tuple[Optional[str], tuple]


def describe_syscall(syscall) -> tuple:
    """Collapse a syscall to the shared effect that decides commutation
    (a yielded cell is its read, a yielded lock its acquire)."""
    if isinstance(syscall, Pass):
        return PASS
    if isinstance(syscall, SharedCell):
        return ("read", syscall.name)
    if isinstance(syscall, WriteSys):
        return ("write", syscall.cell.name, bool(syscall.commit))
    if isinstance(syscall, Lock):
        return ("lock", syscall.name, False)
    if isinstance(syscall, ReleaseSys):
        return ("lock", syscall.lock.name, bool(syscall.commit))
    if isinstance(syscall, (RWBeginReadSys, RWEndReadSys, RWBeginWriteSys)):
        return ("lock", syscall.rwlock.name, False)
    if isinstance(syscall, RWEndWriteSys):
        return ("lock", syscall.rwlock.name, bool(syscall.commit))
    if isinstance(syscall, CommitSys):
        return ("commit",)
    return OTHER


def _commits(descr: tuple) -> bool:
    return descr[0] == "commit" or (
        descr[0] in ("write", "lock") and bool(descr[-1])
    )


def steps_commute(a: tuple, b: tuple) -> bool:
    """Descriptor-level commutation of two concrete steps.

    Commit-carrying steps never commute with each other: commit order is
    the spec's linearization order, and swapping it could change which
    view each commit is checked against.  Everything else commutes iff
    the steps touch disjoint pieces of shared state (a lock and a cell
    are always disjoint; two reads always commute).
    """
    if _commits(a) and _commits(b):
        return False
    ka, kb = a[0], b[0]
    if ka == "commit" or kb == "commit":
        return True  # no memory effect; the commit/commit case is above
    if ka == "lock" and kb == "lock":
        return a[1] != b[1]
    if ka == "lock" or kb == "lock":
        return True  # lock state and cell state are disjoint
    if ka == "read" and kb == "read":
        return True
    return a[1] != b[1]  # at least one write: must be different cells


def current_operation(thread, operations: FrozenSet[str]) -> Optional[str]:
    """The ``@operation`` method ``thread`` is suspended inside, if any.

    Walks the generator's ``yield from`` chain outside-in and returns the
    first frame whose code name is a known operation -- the top-level
    public operation, even when the thread is currently deep in a helper.
    Daemon bodies and worker glue yield no match and come back ``None``
    (opaque: dependent with everything).
    """
    gen = thread.gen
    while gen is not None:
        frame = getattr(gen, "gi_frame", None)
        if frame is None:
            return None
        name = frame.f_code.co_name
        if name in operations:
            return name
        gen = getattr(gen, "gi_yieldfrom", None)
    return None


class StaticReducer:
    """Picklable independence oracle built from one class's effect analysis.

    ``matrix`` maps ordered operation-name pairs ``(a, b)`` with
    ``a <= b`` to the static verdict string; ``opaque`` holds operations
    with incomplete footprints (VY008), which are never reduced.
    """

    __slots__ = ("matrix", "operations", "opaque")

    def __init__(
        self,
        matrix: Dict[Tuple[str, str], str],
        operations: Iterable[str],
        opaque: Iterable[str] = (),
    ):
        self.matrix = dict(matrix)
        self.operations = frozenset(operations)
        self.opaque = frozenset(opaque)

    @classmethod
    def from_effects(cls, effects) -> "StaticReducer":
        """Build from a :class:`repro.lint.effects.ClassEffects`."""
        return cls(
            matrix={
                pair: verdict.verdict
                for pair, verdict in effects.matrix.items()
            },
            operations=effects.operations,
            opaque=effects.incomplete_operations(),
        )

    def allows(self, a: str, b: str) -> bool:
        """May steps of operations ``a`` and ``b`` ever be reduced?"""
        if a in self.opaque or b in self.opaque:
            return False
        verdict = self.matrix.get((min(a, b), max(a, b)))
        return verdict in ("independent", "conditional")

    def independent(self, a: Step, b: Step) -> bool:
        """Do two harvested steps commute (state, verdicts and HB order)?"""
        method_a, descr_a = a
        method_b, descr_b = b
        if descr_a == PASS or descr_b == PASS:
            return True  # a no-op commutes with anything
        if descr_a in (EXIT, OTHER) or descr_b in (EXIT, OTHER):
            return False
        if method_a is None or method_b is None:
            return False  # outside any operation: opaque
        if not self.allows(method_a, method_b):
            return False
        return steps_commute(descr_a, descr_b)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StaticReducer)
            and self.matrix == other.matrix
            and self.operations == other.operations
            and self.opaque == other.opaque
        )

    def __reduce__(self):
        return (
            StaticReducer,
            (self.matrix, self.operations, self.opaque),
        )


class ReducedReplayScheduler(ReplayScheduler):
    """A :class:`ReplayScheduler` that carries a sleep set.

    Replays ``decisions`` exactly (the base class's cursor, clamp and
    trace); beyond them, picks the lowest-tid runnable thread **not in the
    sleep set** (the unreduced fallback is always-first, so with an empty
    sleep set the two enumerate identical trees).  The kernel feeds every
    executed step back through :meth:`on_step` (see
    ``Kernel._step_listener``), which is what keeps the sleep set filtered
    and the per-depth step log aligned with ``trace``.
    """

    def __init__(
        self,
        decisions=(),
        sleep: Optional[Dict[int, Step]] = None,
        reducer: Optional[StaticReducer] = None,
    ):
        super().__init__(decisions)
        self.reducer = reducer or StaticReducer({}, ())
        self._entry_sleep: Dict[int, Step] = dict(sleep or {})
        self._sleep: Dict[int, Step] = {}
        self._armed = False
        # per-depth executed step (tid, method, descr); one entry per trace
        # entry except a final step whose execution raised
        self.steps: List[tuple] = []
        # per *free* depth: (depth, runnable tids, sleep snapshot, chosen)
        self.nodes: List[tuple] = []
        # nodes where every enabled choice was asleep: the subtree is
        # provably redundant, but the in-flight run must still finish, so
        # one sleeper is woken; counted for visibility
        self.sleep_blocked = 0

    # -- scheduling ---------------------------------------------------------

    def pick(self, runnable: Sequence, step: int):
        if self._cursor < len(self.decisions):
            return super().pick(runnable, step)
        if not self._armed:
            # The inherited sleep set describes the node *after* the
            # scripted prefix; activate it only once the prefix -- and
            # the prefix's own step filtering -- is behind us.
            self._armed = True
            self._sleep = dict(self._entry_sleep)
        index = next(
            (j for j, t in enumerate(runnable) if t.tid not in self._sleep),
            None,
        )
        if index is None:
            self.sleep_blocked += 1
            index = 0
            self._sleep.pop(runnable[0].tid, None)
        self.nodes.append(
            (
                len(self.trace),
                tuple(t.tid for t in runnable),
                dict(self._sleep),
                index,
            )
        )
        self.trace.append((index, len(runnable)))
        return runnable[index]

    def on_step(self, thread, syscall) -> None:
        """Kernel hook: one executed step, atomically after its effect."""
        descr = EXIT if syscall is None else describe_syscall(syscall)
        method = None
        if self._armed and descr not in (EXIT, PASS):
            method = current_operation(thread, self.reducer.operations)
        self.steps.append((thread.tid, method, descr))
        if self._sleep:
            self._sleep.pop(thread.tid, None)
            executed = (method, descr)
            self._sleep = {
                tid: slept
                for tid, slept in self._sleep.items()
                if self.reducer.independent(slept, executed)
            }

    # -- frontier generation ------------------------------------------------

    def siblings(self) -> Tuple[List[tuple], int]:
        """Unexplored alternatives below this run, with their sleep sets.

        Returns ``(entries, pruned)``: ``entries`` are ``(prefix, sleep)``
        frontier pairs for every free-depth alternative the sleep sets did
        not remove; ``pruned`` counts the sibling subtrees they did.
        """
        indices = [i for i, _ in self.trace]
        # Reverse sweep: next_at[d][tid] = the step tid executes next at
        # depth >= d -- i.e. the step it was already committed to at every
        # node from its previous step up to d.
        next_at: Dict[int, Dict[int, Step]] = {}
        pending: Dict[int, Step] = {}
        for d in range(len(self.steps) - 1, -1, -1):
            tid, method, descr = self.steps[d]
            pending[tid] = (method, descr)
            next_at[d] = dict(pending)
        entries: List[tuple] = []
        pruned = 0
        for depth, tids, zset, chosen_index in self.nodes:
            harvested = next_at.get(depth, {})
            explored: List[Tuple[int, Step]] = []
            if depth < len(self.steps):
                _, method, descr = self.steps[depth]
                explored.append((tids[chosen_index], (method, descr)))
            for alt in range(len(tids)):
                if alt == chosen_index:
                    continue
                tid_alt = tids[alt]
                if tid_alt in zset:
                    # already explored (as a step of an earlier sibling's
                    # subtree) and nothing dependent ran since: redundant
                    pruned += 1
                    continue
                if alt < chosen_index:
                    continue  # only reachable via scripted-index clamping
                step_alt = harvested.get(tid_alt)
                sleep_alt: Dict[int, Step] = {}
                if step_alt is not None:
                    for tid_u, step_u in list(zset.items()) + explored:
                        if tid_u == tid_alt:
                            continue
                        if self.reducer.independent(step_u, step_alt):
                            sleep_alt[tid_u] = step_u
                entries.append((indices[:depth] + [alt], sleep_alt))
                if step_alt is not None:
                    explored.append((tid_alt, step_alt))
        return entries, pruned
