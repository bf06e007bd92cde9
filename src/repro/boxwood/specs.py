"""Specifications for the Boxwood modules (paper section 7.2).

* :class:`StoreSpec` -- the abstract data store provided by
  Cache + Chunk Manager: a map from handles to byte arrays.  ``flush``,
  ``evict`` and ``reclaim_clean`` are *structural* operations whose spec
  transition is the identity: the cache exists purely for performance, so
  flushing or evicting must never change the abstract store.
* :class:`BLinkTreeSpec` -- the B-link tree's abstract state: a map from
  keys to ``(data, version)`` pairs, where the version counts successive
  overwrites of a live key (fresh insertions start at version 1).  This
  matches the paper's view definition ("the sorted list of all the
  (key, data) pairs in the tree, along with their version numbers",
  section 7.2.4); sortedness is canonical in the dict comparison.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core import VIEW_ABSENT, SpecReject, Specification, canonical_map, mutator, observer


class StoreSpec(Specification):
    """Abstract handle -> byte-array store for Cache + Chunk Manager."""

    tracks_view_delta = True

    def __init__(self):
        self.store: Dict[str, Tuple[int, ...]] = {}

    def clone(self) -> "StoreSpec":
        return self._clone_with(store=dict(self.store))

    @mutator
    def write(self, handle, buffer, *, result):
        if result is not True:
            raise SpecReject(f"write must return True, got {result!r}")
        self.store[handle] = tuple(buffer)
        self._touch(handle)

    @mutator
    def flush(self, *, result):
        if result is not None:
            raise SpecReject(f"flush returns nothing, got {result!r}")

    @mutator
    def evict(self, handle, *, result):
        if result is not None:
            raise SpecReject(f"evict returns nothing, got {result!r}")

    @mutator
    def reclaim_clean(self, *, result):
        if result is not None:
            raise SpecReject(f"reclaim_clean returns nothing, got {result!r}")

    def candidate_results(self, method, args):
        """Plausible returns for incomplete operations in recovered logs."""
        if method == "write":
            return (True,)
        if method in ("flush", "evict", "reclaim_clean"):
            return (None,)
        return None

    @observer
    def read(self, handle):
        return self.store.get(handle)

    def view(self) -> dict:
        return canonical_map(self.store)

    def view_at(self, handle):
        return (self.store[handle],) if handle in self.store else VIEW_ABSENT

    def describe(self) -> str:
        return f"store = {self.store!r}"


class BLinkTreeSpec(Specification):
    """Abstract key -> (data, version) map for the B-link tree."""

    tracks_view_delta = True

    def __init__(self):
        self.pairs: Dict[object, Tuple[object, int]] = {}

    def clone(self) -> "BLinkTreeSpec":
        return self._clone_with(pairs=dict(self.pairs))

    @mutator
    def insert(self, key, data, *, result):
        if result is not True:
            raise SpecReject(f"insert must return True, got {result!r}")
        if key in self.pairs:
            _, version = self.pairs[key]
            self.pairs[key] = (data, version + 1)
        else:
            self.pairs[key] = (data, 1)
        self._touch(key)

    @mutator
    def delete(self, key, *, result):
        if result is True:
            if key not in self.pairs:
                raise SpecReject(f"delete({key!r}) succeeded on an absent key")
            del self.pairs[key]
            self._touch(key)
        elif result is False:
            if key in self.pairs:
                raise SpecReject(
                    f"delete({key!r}) failed but the key is present; the "
                    "B-link tree's locked descent cannot miss present keys"
                )
        else:
            raise SpecReject(f"delete must return a bool, got {result!r}")

    def candidate_results(self, method, args):
        """Plausible returns for incomplete operations in recovered logs."""
        if method == "insert":
            return (True,)
        if method == "delete":
            return (True, False)
        return None

    @observer
    def lookup(self, key):
        pair = self.pairs.get(key)
        return None if pair is None else pair[0]

    def view(self) -> dict:
        return canonical_map(self.pairs)

    def view_at(self, key):
        return (self.pairs[key],) if key in self.pairs else VIEW_ABSENT

    def describe(self) -> str:
        return f"pairs = {self.pairs!r}"
