"""Executable specifications: method-atomic, deterministic transition systems.

Paper section 3.2 requires specifications to be *method-atomic* (a single
method executes at a time, to completion) and *deterministic* (given the
start state, the method, its arguments **and its return value**, the final
state is unique).  Note what determinism does *not* forbid: a method may have
several allowed return values at a given state -- e.g. ``Insert`` may return
``success`` or ``failure`` -- as long as each return value determines the
next state.  This is exactly how the paper's Fig. 1 multiset spec is written:
the spec *consumes* the implementation's observed return value and either
accepts it (updating state accordingly) or rejects it (a refinement
violation).

Writing a spec
--------------
Subclass :class:`Specification`; decorate each method with
:func:`mutator` or :func:`observer`:

* A **mutator** receives the positional arguments of the call plus the
  observed return value as the keyword argument ``result``.  It must either
  update the spec state consistently with ``result`` and return normally, or
  raise :class:`SpecReject` when no spec transition with that return value
  exists.
* An **observer** receives only the call arguments and returns the value (or
  an :class:`AnyOf` set of values) the spec allows at the current state.
  Observers must not modify state.

Specs used for *view refinement* additionally implement :meth:`view`,
returning the canonical abstraction ``viewS`` of the current state
(section 5).

:class:`AtomizedSpec` implements section 4.4: when no separate spec exists,
an *atomized* interpretation of the implementation itself -- every method run
to completion in isolation -- serves as the specification.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional

MUTATOR = "mutator"
OBSERVER = "observer"


def _canon(value: Any) -> Any:
    """Canonical, hashable image of a spec-state value.

    Containers are rewritten structurally (dicts and Counters sorted by key
    repr, sets sorted by element repr, sequences tupled) so two spec
    instances in the same abstract state produce equal images regardless of
    insertion order.  Raises ``TypeError`` for values it cannot canonicalize
    -- the caller treats that as "no fingerprint" rather than guessing."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, dict):
        return ("d",) + tuple(sorted(
            ((repr(key), _canon(item)) for key, item in value.items()),
            key=lambda pair: pair[0],
        ))
    if isinstance(value, (set, frozenset)):
        return ("s",) + tuple(sorted(repr(item) for item in value))
    if isinstance(value, (list, tuple, deque)):
        return ("l",) + tuple(_canon(item) for item in value)
    raise TypeError(f"cannot canonicalize {type(value).__name__} state")


class _ViewAbsentType:
    """Picklable singleton: "this key is absent from the canonical view".

    Distinguishes a missing key from a key mapped to ``None`` in
    :meth:`Specification.view_at`, and survives pickling (checkpoints) as
    the *same* object so ``is``/``==`` checks keep working after restore.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<view-absent>"

    def __reduce__(self):
        return (_view_absent, ())


def _view_absent() -> "_ViewAbsentType":
    return VIEW_ABSENT


VIEW_ABSENT = _ViewAbsentType()


class SpecError(Exception):
    """A specification object is malformed or misused (tool-usage error)."""


class SpecReject(Exception):
    """The spec has no transition matching ``(method, args, result)``.

    Raised by mutator methods; the checker converts it into an I/O-refinement
    violation carrying :attr:`reason`.
    """

    def __init__(self, reason: str = ""):
        self.reason = reason
        super().__init__(reason or "specification rejected the observed return value")


class AnyOf:
    """A set of allowed observer return values (spec nondeterminism).

    Example: a ``size`` observer during concurrent inserts might return
    ``AnyOf({2, 3})``.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Any]):
        self.values = frozenset(values)

    def __contains__(self, value: Any) -> bool:
        return value in self.values

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, AnyOf) and self.values == other.values

    def __hash__(self) -> int:
        return hash(("AnyOf", self.values))

    def __repr__(self) -> str:
        return f"AnyOf({set(self.values)!r})"


def allows(allowed: Any, result: Any) -> bool:
    """True if observer result ``result`` matches spec answer ``allowed``."""
    if isinstance(allowed, AnyOf):
        return result in allowed
    return allowed == result


def mutator(fn: Callable) -> Callable:
    """Mark a spec method as a mutator (receives ``result`` keyword)."""
    fn._vyrd_kind = MUTATOR
    return fn


def observer(fn: Callable) -> Callable:
    """Mark a spec method as an observer (must not modify spec state)."""
    fn._vyrd_kind = OBSERVER
    return fn


class Specification:
    """Base class for executable specifications.

    Subclasses define decorated methods and, for view refinement,
    :meth:`view`.  A spec instance is single-use per checked log: the checker
    drives it from its initial state through the witness interleaving.

    Dirty-key protocol (differential view comparison)
    -------------------------------------------------
    A spec may additionally report *which* canonical view keys each mutator
    touched, mirroring ``ContributionView.on_write`` on the implementation
    side, so the checker reconciles only the changed keys per commit instead
    of comparing whole views.  To opt in, set ``tracks_view_delta = True``,
    call :meth:`_touch` from every mutator with the affected keys, and
    override :meth:`view_at` with an O(1) single-key lookup.  Specs that do
    not opt in keep working: ``view_delta()`` returns ``None`` and the
    checker falls back to full comparison.
    """

    #: True when every mutator records its touched canonical keys via
    #: :meth:`_touch`, enabling O(delta) differential view comparison.
    tracks_view_delta = False

    def _touch(self, *keys: Any) -> None:
        """Record canonical view keys the running mutator may have changed."""
        dirty = self.__dict__.get("_dirty_view_keys")
        if dirty is None:
            dirty = self.__dict__["_dirty_view_keys"] = set()
        dirty.update(keys)

    def view_delta(self) -> Optional[set]:
        """Keys whose canonical value may have changed since the last drain.

        Returns ``None`` when the spec does not track deltas (the checker
        then falls back to full view comparison).  Draining is destructive:
        each touched key is reported exactly once.
        """
        if not self.tracks_view_delta:
            return None
        dirty = self.__dict__.get("_dirty_view_keys")
        if not dirty:
            return set()
        self.__dict__["_dirty_view_keys"] = set()
        return dirty

    def view_at(self, key: Any) -> Any:
        """Canonical value at ``key``, or :data:`VIEW_ABSENT`.

        The default derives it from :meth:`view` (O(structure)); specs that
        set ``tracks_view_delta`` should override with an O(1) lookup so the
        per-commit reconcile stays proportional to the delta.
        """
        return self.view().get(key, VIEW_ABSENT)

    def method_kind(self, name: str) -> str:
        """Return ``"mutator"`` or ``"observer"`` for public method ``name``."""
        fn = getattr(self, name, None)
        kind = getattr(fn, "_vyrd_kind", None)
        if kind is None:
            raise SpecError(f"{type(self).__name__} has no spec method {name!r}")
        return kind

    def methods(self) -> Dict[str, str]:
        """All spec methods as a ``name -> kind`` mapping."""
        found = {}
        for name in dir(self):
            if name.startswith("_"):
                continue
            kind = getattr(getattr(self, name), "_vyrd_kind", None)
            if kind is not None:
                found[name] = kind
        return found

    def run_mutator(self, name: str, args, result) -> None:
        """Execute mutator ``name`` with the observed return value.

        Raises :class:`SpecReject` if the spec disallows ``result`` here.
        """
        if self.method_kind(name) != MUTATOR:
            raise SpecError(f"{name!r} is not a mutator of {type(self).__name__}")
        getattr(self, name)(*args, result=result)

    def run_observer(self, name: str, args) -> Any:
        """Evaluate observer ``name``; returns a value or :class:`AnyOf`."""
        if self.method_kind(name) != OBSERVER:
            raise SpecError(f"{name!r} is not an observer of {type(self).__name__}")
        return getattr(self, name)(*args)

    def view(self) -> Any:
        """Canonical abstraction ``viewS`` of the current spec state.

        Only required for view refinement.  Must return a value comparable
        with ``==`` against the implementation view.
        """
        raise SpecError(f"{type(self).__name__} does not define a view")

    def clone(self) -> "Specification":
        """An independent copy of this spec, in the same state.

        The linearizability search clones the node's spec once per branch
        and runs one mutator on the clone, so the contract is: after any
        mutator runs on the clone, the original's :meth:`state_fingerprint`
        and :meth:`describe` are unchanged, and the two share no mutable
        public attribute.  The default deep-copies, which holds for every
        spec.  A spec whose state is a few containers of immutable values
        overrides it with :meth:`_clone_with`, copying only those
        containers; a subclass that adds mutable state must then override
        ``clone`` again.
        """
        return copy.deepcopy(self)

    def _clone_with(self, **state: Any) -> "Specification":
        """A :meth:`clone` that shares every attribute with this spec except
        ``state`` (the fresh containers the caller passes by attribute name)
        and the pending view delta, which is copied."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, **state)
        dirty = self.__dict__.get("_dirty_view_keys")
        if dirty is not None:
            twin.__dict__["_dirty_view_keys"] = set(dirty)
        return twin

    def state_fingerprint(self) -> Optional[Any]:
        """Hashable canonical digest of the current spec state.

        Two instances in the same abstract state must produce equal
        fingerprints, and two instances with equal fingerprints must have
        the same futures: every sequence of mutator and observer calls
        accepted (and answered) by one is accepted and answered alike by
        the other.  The linearizability search prunes a node whose
        ``(cursor, linearized set, fingerprint)`` once failed, so a
        collision between states with different futures can turn a
        linearizable history into a reported violation.  The default
        canonicalizes every public attribute (configuration such as a
        capacity included); bookkeeping attributes (``_dirty_view_keys``
        etc.) are excluded.  Returns ``None`` when the state does not
        canonicalize, which disables memoization for that state.
        """
        try:
            return _canon({
                key: value for key, value in self.__dict__.items()
                if not key.startswith("_")
            })
        except TypeError:
            return None

    def candidate_results(self, method: str, args: tuple) -> Optional[Iterable]:
        """Plausible return values for an *incomplete* call of ``method``.

        A recovered log prefix may end with a call whose return record was
        lost.  If the operation is a mutator, whether it took effect -- and
        with which result -- is unknowable from the log, so the
        linearizability checker branches over every candidate result (plus
        the implicit "never took effect" branch).  The checker invokes this
        on the spec clone at the candidate linearization point, so the
        answer may depend on the current state (e.g. a queue's
        ``try_dequeue`` can only have returned the current front).

        Return ``None`` (the default) to let the checker fall back to the
        results observed for the same method elsewhere in the history.
        """
        return None

    def describe(self) -> str:
        """Short human-readable state description for violation reports."""
        return repr(self.__dict__)


class AtomizedSpec(Specification):
    """Use an atomized interpretation of an implementation as the spec.

    Section 4.4: the implementation's own code, forced to run each method
    atomically (one method at a time, to completion, no interleaving), acts
    as the specification.  Mutator methods "take the return value as an
    argument": here, the atomized run produces its own result, which is
    reconciled with the observed one:

    * equal -> accept;
    * observed result in ``no_op_results`` (results that, per the spec's
      contract, may arise only from concurrent resource contention and must
      leave the state unchanged -- e.g. ``InsertPair``'s ``failure``) ->
      accept and roll the atomized state back to the pre-call snapshot;
    * otherwise -> :class:`SpecReject`.

    Requirements on the wrapped implementation object:

    * public methods are generator functions ``m(ctx, *args)`` (the same
      code that runs concurrently);
    * ``snapshot()`` / ``restore(snap)`` capture and reinstate its shared
      state (used for rollback of allowed no-op results);
    * a ``VYRD_METHODS`` mapping ``name -> "mutator" | "observer"``;
    * optionally ``view_atomic()`` returning ``viewS`` for view refinement.
    """

    def __init__(
        self,
        impl: Any,
        methods: Optional[Dict[str, str]] = None,
        no_op_results: FrozenSet[Any] = frozenset(),
        max_steps: int = 1_000_000,
    ):
        self._impl = impl
        self._methods = dict(methods if methods is not None else impl.VYRD_METHODS)
        self._no_op_results = frozenset(no_op_results)
        self._max_steps = max_steps

    def method_kind(self, name: str) -> str:
        try:
            return self._methods[name]
        except KeyError:
            raise SpecError(f"atomized spec has no method {name!r}")

    def methods(self) -> Dict[str, str]:
        return dict(self._methods)

    def _run_atomic(self, name: str, args) -> Any:
        """Run one method of the implementation to completion, atomically."""
        from ..concurrency import Kernel, RoundRobinScheduler

        kernel = Kernel(scheduler=RoundRobinScheduler(), max_steps=self._max_steps)
        thread = kernel.spawn(getattr(self._impl, name), *args, name=f"atomized-{name}")
        kernel.run()
        return thread.result

    def run_mutator(self, name: str, args, result) -> None:
        if self.method_kind(name) != MUTATOR:
            raise SpecError(f"{name!r} is not a mutator of the atomized spec")
        snapshot = self._impl.snapshot()
        atomic_result = self._run_atomic(name, args)
        if atomic_result == result:
            return
        if result in self._no_op_results:
            self._impl.restore(snapshot)
            return
        raise SpecReject(
            f"atomized {name}{tuple(args)!r} returned {atomic_result!r}, "
            f"implementation returned {result!r}"
        )

    def run_observer(self, name: str, args) -> Any:
        if self.method_kind(name) != OBSERVER:
            raise SpecError(f"{name!r} is not an observer of the atomized spec")
        return self._run_atomic(name, args)

    def view(self) -> Any:
        view_fn = getattr(self._impl, "view_atomic", None)
        if view_fn is None:
            raise SpecError(
                f"{type(self._impl).__name__} does not define view_atomic(); "
                "atomized view refinement is unavailable"
            )
        return view_fn()

    def state_fingerprint(self) -> Optional[Any]:
        # The state lives inside an arbitrary implementation object; there is
        # no reliable canonical image, so memoized searches degrade to plain
        # depth-first enumeration.
        return None

    def describe(self) -> str:
        return f"atomized({type(self._impl).__name__})"
