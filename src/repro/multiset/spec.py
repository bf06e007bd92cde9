"""Multiset specification (paper Fig. 1 and section 2.1).

The spec state is the multiset contents ``M``.  Following the paper:

* ``Insert(x)`` / ``InsertPair(x, y)`` may terminate successfully or
  exceptionally (``FAILURE``); exceptional terminations must leave ``M``
  unchanged.  In particular it is a refinement violation if only one of
  ``x``/``y`` of an ``InsertPair`` lands in the multiset.
* ``LookUp(x)`` is an observer returning whether ``x in M``.
* ``Delete(x)`` removes one occurrence and reports success.  Scan-based
  implementations (the vector multiset) may *fail* to find an element that
  was inserted concurrently behind their scan, so the default spec allows a
  spurious ``False``; the tree multiset uses lock coupling and commits its
  failure decision while holding the relevant node lock, so it is checked
  against the strict spec (``strict_delete=True``).

A note on strict ``LookUp`` checking (``permissive_lookup=False``): the
vector multiset's scan-based lookup is genuinely *non-linearizable* when the
same key occupies two slots -- a concurrent delete can remove the occurrence
ahead of the scan while another insert of the same key commits behind it, so
lookup misses a key that is in ``M`` at every point of its window.  Strict
observer checking correctly flags that execution.  It is sound (no false
alarms on the correct implementation) as long as no key is ever inserted
again after a different, earlier insertion of it could interleave with a
delete -- the multiset harness enforces single-insertion keys for exactly
this reason.  ``permissive_lookup=True`` instead allows a spurious ``False``
whenever ``x in M`` (it never allows a spurious ``True``: observing ``True``
requires reading a committed valid bit), for free-form workloads.

This spec is deliberately *more permissive than atomicity*: the executions
with exceptional terminations it accepts are not equivalent to any atomic
execution of the implementation -- the paper's core argument for refinement
over atomicity (section 1).
"""

from __future__ import annotations

from collections import Counter

from ..core import (
    VIEW_ABSENT,
    AnyOf,
    SpecReject,
    Specification,
    canonical_bag,
    mutator,
    observer,
)

SUCCESS = "success"
FAILURE = "failure"


class MultisetSpec(Specification):
    """Executable, method-atomic, deterministic multiset specification."""

    tracks_view_delta = True

    def __init__(self, strict_delete: bool = False, permissive_lookup: bool = False):
        self.m: Counter = Counter()
        self.strict_delete = strict_delete
        self.permissive_lookup = permissive_lookup

    def clone(self) -> "MultisetSpec":
        return self._clone_with(m=Counter(self.m))

    # -- mutators ----------------------------------------------------------

    @mutator
    def insert(self, x, *, result):
        if result == SUCCESS:
            self.m[x] += 1
            self._touch(x)
        elif result != FAILURE:
            raise SpecReject(f"insert may return success/failure, not {result!r}")

    @mutator
    def insert_pair(self, x, y, *, result):
        if result == SUCCESS:
            self.m[x] += 1
            self.m[y] += 1
            self._touch(x, y)
        elif result != FAILURE:
            raise SpecReject(
                f"insert_pair may return success/failure, not {result!r}"
            )

    @mutator
    def delete(self, x, *, result):
        if result is True:
            if self.m[x] <= 0:
                raise SpecReject(f"delete({x!r}) succeeded but {x!r} is not in M")
            self.m[x] -= 1
            if self.m[x] == 0:
                del self.m[x]
            self._touch(x)
        elif result is False:
            if self.strict_delete and self.m[x] > 0:
                raise SpecReject(
                    f"delete({x!r}) failed but {x!r} is in M and this "
                    "implementation cannot miss present elements"
                )
        else:
            raise SpecReject(f"delete must return a bool, not {result!r}")

    def candidate_results(self, method, args):
        """Plausible returns for incomplete operations in recovered logs
        (see :meth:`repro.core.spec.Specification.candidate_results`)."""
        if method in ("insert", "insert_pair"):
            return (SUCCESS, FAILURE)
        if method == "delete":
            return (True, False)
        return None

    # -- observers -----------------------------------------------------------

    @observer
    def lookup(self, x):
        if self.m[x] > 0:
            if self.permissive_lookup:
                return AnyOf({True, False})
            return True
        return False

    # -- view ------------------------------------------------------------------

    def view(self):
        """``viewS``: the multiset contents as a canonical bag."""
        return canonical_bag(self.m)

    def view_at(self, x):
        count = self.m.get(x, 0)
        return count if count else VIEW_ABSENT

    def describe(self) -> str:
        return f"M = {dict(self.m)!r}"
