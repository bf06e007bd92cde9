"""Implementation views: computing ``viewI`` from the replayed state.

View refinement (paper section 5) compares, at every mutator commit action, a
canonical abstraction of the implementation state (``viewI``) against the
same abstraction of the spec state (``viewS``).  The programmer specifies how
``viewI`` is computed from shared-variable names and values; this module
provides the two standard shapes:

* :class:`FunctionView` -- a full recomputation ``fn(state)`` at every
  commit.  Simple, and the baseline for the incremental-vs-full ablation
  benchmark.
* :class:`ContributionView` -- the incremental scheme of paper section 6.4.
  The view value is assembled from independent *units* (an array slot, a
  cache entry, a tree data node).  Each logged write dirties only the unit
  its location belongs to (``unit_of``), and at a commit only dirty units are
  recomputed (``contribute``).  This avoids "re-traversing the entire program
  state at each verification step".

Canonical values are dictionaries so they compare with ``==``:

* ``aggregate="list"`` -- ``{key: tuple(sorted(values))}``; a *map-shaped*
  view (B-link tree contents, cache+store contents).  A key contributed by
  two units shows up as a length-2 tuple, which is how duplicate-data-node
  bugs become visible.
* ``aggregate="count"`` -- ``{key: total}``; a *bag-shaped* view (multiset
  contents).

Helpers :func:`canonical_map` and :func:`canonical_bag` build the matching
``viewS`` values inside spec ``view()`` methods.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Mapping, Optional, Tuple


def canonical_map(mapping: Mapping) -> Dict[Hashable, tuple]:
    """Spec-side canonical value matching a ``aggregate="list"`` view."""
    return {key: (value,) for key, value in mapping.items()}


def canonical_bag(counts: Mapping[Hashable, int]) -> Dict[Hashable, int]:
    """Spec-side canonical value matching an ``aggregate="count"`` view.

    Zero counts are dropped so that "absent" and "present zero times"
    compare equal.
    """
    return {key: count for key, count in counts.items() if count}


def _sort_key(value: Any):
    return (type(value).__name__, repr(value))


class UnitMemo(dict):
    """``loc -> unit_of(loc)``, each location mapped on its first lookup.

    A write then costs one dict lookup instead of one ``unit_of`` call,
    which parses the location name.  This is only sound because
    ``unit_of`` must be a pure function of the location name.  The memo is
    derived data, so no checkpoint carries it.
    """

    __slots__ = ("unit_of",)

    def __init__(self, unit_of: Callable[[str], Optional[Hashable]]):
        super().__init__()
        self.unit_of = unit_of

    def __missing__(self, loc: str) -> Optional[Hashable]:
        unit = self[loc] = self.unit_of(loc)
        return unit


class ImplView:
    """Interface for implementation views.

    ``on_write`` observes every replayed fine-grained write (and every
    location a coarse replay routine touched).  ``refresh`` returns the
    up-to-date canonical value given the current (possibly rolled-back)
    effective state.  ``compute_full`` recomputes from scratch, ignoring all
    caches -- the checker cross-checks it against ``refresh`` at the end of a
    run to guard against incremental drift.

    Views that maintain a materialized value additionally support the
    *differential* protocol used by the checker's ``ViewComparator``: they
    set ``supports_delta = True``, expose the materialized value via
    ``value()``, and populate ``last_touched_keys`` with the canonical keys
    whose aggregate the most recent ``refresh`` recomputed.  They also
    implement ``state_dict``/``load_state`` so checkpoints can suspend and
    resume the caches.
    """

    #: True when ``refresh`` maintains a materialized value and reports the
    #: canonical keys it touched (enables differential view comparison).
    supports_delta = False
    #: canonical keys whose aggregate the last ``refresh`` recomputed
    last_touched_keys: frozenset = frozenset()

    def on_write(self, loc: str) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def refresh(self, state, extra_dirty_locs: Iterable[str] = ()) -> Any:
        raise NotImplementedError

    def compute_full(self, state) -> Any:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable cache state (stateless views return ``{}``)."""
        return {}

    def load_state(self, payload: Dict[str, Any]) -> None:
        """Reinstate caches captured by :meth:`state_dict`."""


class FunctionView(ImplView):
    """Recompute the whole view with ``fn(state)`` at every commit.

    ``state`` is a :class:`~repro.core.replay.EffectiveState`.  This is the
    non-incremental baseline; prefer :class:`ContributionView` for large
    structures.
    """

    def __init__(self, fn: Callable[[Any], Any]):
        self._fn = fn

    def on_write(self, loc: str) -> None:
        pass

    def refresh(self, state, extra_dirty_locs: Iterable[str] = ()) -> Any:
        return self._fn(state)

    def compute_full(self, state) -> Any:
        return self._fn(state)


class ContributionView(ImplView):
    """Incrementally maintained view assembled from per-unit contributions.

    Parameters
    ----------
    unit_of:
        Maps a shared-variable name to the unit it belongs to, or ``None``
        when the variable is outside ``supp(view)`` (writes to it never
        dirty the view).  This encodes the paper's static dependency
        analysis of the view computation.  It must be a pure function of
        the name: the view calls it once per distinct location and
        memoizes the answer (:class:`UnitMemo`).
    contribute:
        ``contribute(state, unit) -> (key, value) | None``.  ``None`` means
        the unit currently contributes nothing (empty slot, evicted entry,
        freed node).
    aggregate:
        ``"list"`` (map-shaped) or ``"count"`` (bag-shaped); see module doc.
    """

    supports_delta = True

    def __init__(
        self,
        unit_of: Callable[[str], Optional[Hashable]],
        contribute: Callable[[Any, Hashable], Optional[Tuple[Hashable, Any]]],
        aggregate: str = "list",
    ):
        if aggregate not in ("list", "count"):
            raise ValueError(f"unknown aggregate mode {aggregate!r}")
        self._unit_of = UnitMemo(unit_of)
        self._contribute = contribute
        self._aggregate = aggregate
        self._dirty: set = set()
        # unit -> (key, value) contribution currently folded into the view
        self._contribs: Dict[Hashable, Tuple[Hashable, Any]] = {}
        # key -> {unit: value}
        self._by_key: Dict[Hashable, Dict[Hashable, Any]] = {}
        # materialized canonical value
        self._value: Dict[Hashable, Any] = {}
        #: units recomputed by the most recent refresh (observability reads
        #: this to histogram incremental-view work per commit)
        self.last_recomputed: int = 0
        #: canonical keys whose aggregate the most recent refresh touched
        self.last_touched_keys: set = set()

    # -- dirtiness ------------------------------------------------------------

    def on_write(self, loc: str) -> None:
        unit = self._unit_of[loc]
        if unit is not None:
            self._dirty.add(unit)

    def _mark_locs(self, locs: Iterable[str]) -> set:
        units = set()
        for loc in locs:
            unit = self._unit_of[loc]
            if unit is not None:
                units.add(unit)
        return units

    # -- maintenance -----------------------------------------------------------

    def _remove_contribution(self, unit: Hashable) -> None:
        contribution = self._contribs.pop(unit, None)
        if contribution is None:
            return
        key, _ = contribution
        units = self._by_key.get(key)
        if units is not None:
            units.pop(unit, None)
            if not units:
                del self._by_key[key]
            self._refresh_key(key)

    def _add_contribution(self, unit: Hashable, key: Hashable, value: Any) -> None:
        self._contribs[unit] = (key, value)
        self._by_key.setdefault(key, {})[unit] = value
        self._refresh_key(key)

    def _refresh_key(self, key: Hashable) -> None:
        units = self._by_key.get(key)
        if not units:
            self._value.pop(key, None)
        elif self._aggregate == "list":
            self._value[key] = tuple(sorted(units.values(), key=_sort_key))
        else:
            self._value[key] = sum(units.values())

    def refresh(self, state, extra_dirty_locs: Iterable[str] = ()) -> Dict[Hashable, Any]:
        """Bring the view up to date against ``state`` and return it.

        ``extra_dirty_locs`` carries the locations currently rolled back by
        open commit blocks: their cached contributions were computed against
        different values, so they are recomputed here *and stay dirty* for
        the next refresh (they will read different values again once the
        blocks close).
        """
        extra_units = self._mark_locs(extra_dirty_locs)
        todo = self._dirty | extra_units
        self.last_recomputed = len(todo)
        touched = self.last_touched_keys = set()
        for unit in todo:
            previous = self._contribs.get(unit)
            if previous is not None:
                touched.add(previous[0])
            self._remove_contribution(unit)
            contribution = self._contribute(state, unit)
            if contribution is not None:
                key, value = contribution
                touched.add(key)
                self._add_contribution(unit, key, value)
        # Units shadowed by open blocks must be revisited at the next commit.
        self._dirty = set(extra_units)
        return self._value

    def value(self) -> Dict[Hashable, Any]:
        """The current materialized view (without refreshing)."""
        return self._value

    def state_dict(self) -> Dict[str, Any]:
        return {
            "dirty": set(self._dirty),
            "contribs": dict(self._contribs),
            "by_key": {key: dict(units) for key, units in self._by_key.items()},
            "value": dict(self._value),
        }

    def load_state(self, payload: Dict[str, Any]) -> None:
        self._dirty = set(payload["dirty"])
        self._contribs = dict(payload["contribs"])
        self._by_key = {key: dict(units) for key, units in payload["by_key"].items()}
        self._value = dict(payload["value"])
        self.last_recomputed = 0
        self.last_touched_keys = set()

    def compute_full(self, state) -> Dict[Hashable, Any]:
        """From-scratch recomputation over every unit present in ``state``."""
        fresh: Dict[Hashable, Dict[Hashable, Any]] = {}
        units = set()
        for loc in state:
            unit = self._unit_of[loc]
            if unit is not None:
                units.add(unit)
        for unit in units:
            contribution = self._contribute(state, unit)
            if contribution is not None:
                key, value = contribution
                fresh.setdefault(key, {})[unit] = value
        if self._aggregate == "list":
            return {
                key: tuple(sorted(values.values(), key=_sort_key))
                for key, values in fresh.items()
            }
        return {key: sum(values.values()) for key, values in fresh.items()}


class _ReadRecorder:
    """Read-only state wrapper that records every location accessed."""

    __slots__ = ("_state", "reads")

    def __init__(self, state):
        self._state = state
        self.reads: set = set()

    def __getitem__(self, loc):
        self.reads.add(loc)
        return self._state[loc]

    def get(self, loc, default=None):
        self.reads.add(loc)
        try:
            return self._state[loc]
        except KeyError:
            return default

    def __contains__(self, loc):
        self.reads.add(loc)
        return loc in self._state


class DependencyView(ImplView):
    """Incremental view over a *linked* structure with dynamic read-deps.

    :class:`ContributionView` needs a static ``unit_of`` mapping: every
    location belongs to at most one unit, known up front.  That breaks down
    for pointer structures like the B-link tree, where a data node
    contributes to the view only while some *reachable* leaf references it,
    and reachability itself changes as nodes split.  This class handles that
    shape with two dynamic mechanisms:

    * **Discovery** -- units are anchor locations (tree node records) found
      by following links from fixed ``roots``.  ``expand(reader, unit)``
      returns ``(pairs, links)``: the unit's ``(key, value)`` view
      contributions and the anchor locations it links to.  Link reference
      counts keep the reachable set exact: a unit whose last incoming link
      disappears is evicted along with its contributions.
    * **Read dependencies** -- ``expand`` receives a recording ``reader``;
      every location it touches is remembered, so a later write to *any* of
      those locations (its own record, a referenced data node) dirties
      exactly the units whose cached contribution read it.

    A refresh therefore costs O(units actually affected), while remaining
    faithful to reachability semantics: a data node written before the
    publishing leaf write (no commit block involved) enters the view only
    once a reachable leaf references it.

    Reachability is maintained with reference counts, so the link graph must
    be **acyclic** (true for B-link right-links, which always point to a
    strictly greater node): a cycle detached from the roots would keep
    itself alive.  The checker's final full check guards against any such
    drift.

    ``sort_key=None`` sorts aggregated values natively (matching views that
    previously used plain ``sorted``); pass a key function for mixed-type
    values.
    """

    supports_delta = True

    def __init__(
        self,
        roots: Iterable[str],
        expand: Callable[[Any, str], Tuple[Iterable[Tuple[Hashable, Any]], Iterable[str]]],
        aggregate: str = "list",
        sort_key: Optional[Callable[[Any], Any]] = _sort_key,
    ):
        if aggregate not in ("list", "count"):
            raise ValueError(f"unknown aggregate mode {aggregate!r}")
        self._roots = tuple(roots)
        self._expand = expand
        self._aggregate = aggregate
        self._sort_key = sort_key
        self._known: set = set(self._roots)
        self._dirty: set = set(self._roots)
        # unit -> locations its cached expansion read (and the inverse index)
        self._reads_of: Dict[str, set] = {}
        self._dep_index: Dict[str, set] = {}
        # unit -> tuple of (key, value) pairs currently folded into the view
        self._pairs: Dict[str, tuple] = {}
        # unit -> tuple of link targets; target -> incoming-link refcount
        self._links: Dict[str, tuple] = {}
        self._refs: Dict[str, int] = {}
        # key -> {unit: [values]} and the materialized canonical value
        self._by_key: Dict[Hashable, Dict[str, list]] = {}
        self._value: Dict[Hashable, Any] = {}
        self.last_recomputed: int = 0
        self.last_touched_keys: set = set()

    # -- dirtiness ------------------------------------------------------------

    def on_write(self, loc: str) -> None:
        dependents = self._dep_index.get(loc)
        if dependents:
            self._dirty.update(dependents)

    def _units_reading(self, locs: Iterable[str]) -> set:
        units: set = set()
        for loc in locs:
            dependents = self._dep_index.get(loc)
            if dependents:
                units.update(dependents)
        return units

    # -- maintenance -----------------------------------------------------------

    def _sorted(self, values: list) -> tuple:
        if self._sort_key is None:
            return tuple(sorted(values))
        return tuple(sorted(values, key=self._sort_key))

    def _refresh_key(self, key: Hashable) -> None:
        units = self._by_key.get(key)
        if not units:
            self._value.pop(key, None)
        elif self._aggregate == "list":
            merged: list = []
            for values in units.values():
                merged.extend(values)
            self._value[key] = self._sorted(merged)
        else:
            self._value[key] = sum(sum(values) for values in units.values())

    def _drop_pairs(self, unit: str, touched: set) -> None:
        for key, _ in self._pairs.pop(unit, ()):
            units = self._by_key.get(key)
            if units is not None and unit in units:
                del units[unit]
                if not units:
                    del self._by_key[key]
                touched.add(key)
                self._refresh_key(key)

    def _drop_deps(self, unit: str) -> None:
        for loc in self._reads_of.pop(unit, ()):
            dependents = self._dep_index.get(loc)
            if dependents is not None:
                dependents.discard(unit)
                if not dependents:
                    del self._dep_index[loc]

    def _evict(self, unit: str, touched: set) -> None:
        """A unit lost its last incoming link: remove it and cascade."""
        if unit not in self._known or unit in self._roots:
            return
        self._known.discard(unit)
        self._dirty.discard(unit)
        self._drop_pairs(unit, touched)
        self._drop_deps(unit)
        for target in self._links.pop(unit, ()):
            self._refs[target] = self._refs.get(target, 1) - 1
            if self._refs.get(target, 0) <= 0:
                self._refs.pop(target, None)
                self._evict(target, touched)

    def _recompute(self, state, unit: str, queue: list, touched: set) -> None:
        reader = _ReadRecorder(state)
        pairs, links = self._expand(reader, unit)
        pairs = tuple(pairs)
        links = tuple(links)
        self.last_recomputed += 1
        # dependencies
        old_reads = self._reads_of.get(unit, set())
        for loc in old_reads - reader.reads:
            dependents = self._dep_index.get(loc)
            if dependents is not None:
                dependents.discard(unit)
                if not dependents:
                    del self._dep_index[loc]
        for loc in reader.reads - old_reads:
            self._dep_index.setdefault(loc, set()).add(unit)
        self._reads_of[unit] = reader.reads
        # contributions
        self._drop_pairs(unit, touched)
        if pairs:
            self._pairs[unit] = pairs
            for key, value in pairs:
                self._by_key.setdefault(key, {}).setdefault(unit, []).append(value)
            for key, _ in pairs:
                touched.add(key)
                self._refresh_key(key)
        # links: discover newly referenced units, evict unreferenced ones
        old_links = self._links.get(unit, ())
        if links:
            self._links[unit] = links
        else:
            self._links.pop(unit, None)
        for target in set(links) - set(old_links):
            self._refs[target] = self._refs.get(target, 0) + 1
            if target not in self._known:
                self._known.add(target)
                queue.append(target)
        for target in set(old_links) - set(links):
            self._refs[target] = self._refs.get(target, 1) - 1
            if self._refs.get(target, 0) <= 0:
                self._refs.pop(target, None)
                self._evict(target, touched)

    def refresh(self, state, extra_dirty_locs: Iterable[str] = ()) -> Dict[Hashable, Any]:
        """Recompute affected units (and any newly discovered ones).

        As with :class:`ContributionView`, units whose cached expansion read
        a location currently shadowed by an open commit block stay dirty for
        the next refresh.
        """
        extra_units = self._units_reading(extra_dirty_locs)
        todo = list(self._dirty | extra_units)
        self.last_recomputed = 0
        touched = self.last_touched_keys = set()
        processed: set = set()
        while todo:
            unit = todo.pop()
            if unit in processed or unit not in self._known:
                continue
            processed.add(unit)
            self._recompute(state, unit, todo, touched)
        self._dirty = set(unit for unit in extra_units if unit in self._known)
        return self._value

    def value(self) -> Dict[Hashable, Any]:
        """The current materialized view (without refreshing)."""
        return self._value

    def compute_full(self, state) -> Dict[Hashable, Any]:
        """From-scratch walk of the link closure, ignoring every cache."""
        fresh: Dict[Hashable, list] = {}
        seen: set = set()
        frontier = list(self._roots)
        while frontier:
            unit = frontier.pop()
            if unit in seen:
                continue
            seen.add(unit)
            pairs, links = self._expand(_ReadRecorder(state), unit)
            for key, value in pairs:
                fresh.setdefault(key, []).append(value)
            frontier.extend(links)
        if self._aggregate == "list":
            return {key: self._sorted(values) for key, values in fresh.items()}
        return {key: sum(values) for key, values in fresh.items()}

    def state_dict(self) -> Dict[str, Any]:
        return {
            "known": set(self._known),
            "dirty": set(self._dirty),
            "reads_of": {unit: set(reads) for unit, reads in self._reads_of.items()},
            "pairs": dict(self._pairs),
            "links": dict(self._links),
            "refs": dict(self._refs),
            "by_key": {
                key: {unit: list(values) for unit, values in units.items()}
                for key, units in self._by_key.items()
            },
            "value": dict(self._value),
        }

    def load_state(self, payload: Dict[str, Any]) -> None:
        self._known = set(payload["known"])
        self._dirty = set(payload["dirty"])
        self._reads_of = {unit: set(reads) for unit, reads in payload["reads_of"].items()}
        self._dep_index = {}
        for unit, reads in self._reads_of.items():
            for loc in reads:
                self._dep_index.setdefault(loc, set()).add(unit)
        self._pairs = dict(payload["pairs"])
        self._links = dict(payload["links"])
        self._refs = dict(payload["refs"])
        self._by_key = {
            key: {unit: list(values) for unit, values in units.items()}
            for key, units in payload["by_key"].items()
        }
        self._value = dict(payload["value"])
        self.last_recomputed = 0
        self.last_touched_keys = set()


def prefix_unit(prefix: str, stop: str = ".") -> Callable[[str], Optional[str]]:
    """Build a ``unit_of`` function for names like ``prefix[...]...``.

    Locations starting with ``prefix`` map to their name truncated at the
    first ``stop`` character *after* the prefix (so ``A[3].elt`` and
    ``A[3].valid`` share the unit ``A[3]``); other locations map to ``None``.
    """

    def unit_of(loc: str) -> Optional[str]:
        if not loc.startswith(prefix):
            return None
        index = loc.find(stop, len(prefix))
        return loc if index < 0 else loc[:index]

    return unit_of
