"""Specification of the bounded FIFO queue."""

from __future__ import annotations

from collections import deque

from ..core import VIEW_ABSENT, SpecReject, Specification, mutator, observer
from .queue import EMPTY


class QueueSpec(Specification):
    """A bounded FIFO: blocking operations always succeed (their waiting is
    invisible to the spec -- they commit only once the slot/item exists);
    ``try_`` variants report full/empty deterministically at their commit."""

    tracks_view_delta = True

    def __init__(self, capacity: int = 4):
        self.capacity = capacity
        self.items: deque = deque()

    def clone(self) -> "QueueSpec":
        return self._clone_with(items=deque(self.items))

    @mutator
    def enqueue(self, item, *, result):
        if result is not None:
            raise SpecReject(f"enqueue returns nothing, got {result!r}")
        if len(self.items) >= self.capacity:
            raise SpecReject("enqueue committed on a full queue")
        self.items.append(item)
        self._touch("queue")

    @mutator
    def dequeue(self, *, result):
        if not self.items:
            raise SpecReject("dequeue committed on an empty queue")
        front = self.items[0]
        if result != front:
            raise SpecReject(
                f"dequeue returned {result!r} but the front of the queue "
                f"is {front!r} (duplicate or out-of-order delivery)"
            )
        self.items.popleft()
        self._touch("queue")

    @mutator
    def try_enqueue(self, item, *, result):
        if result is True:
            if len(self.items) >= self.capacity:
                raise SpecReject("try_enqueue succeeded on a full queue")
            self.items.append(item)
            self._touch("queue")
        elif result is False:
            if len(self.items) < self.capacity:
                raise SpecReject("try_enqueue failed with room available")
        else:
            raise SpecReject(f"try_enqueue must return a bool, got {result!r}")

    @mutator
    def try_dequeue(self, *, result):
        if result == EMPTY:
            if self.items:
                raise SpecReject("try_dequeue reported empty on a non-empty queue")
            return
        if not self.items:
            raise SpecReject("try_dequeue returned an item from an empty queue")
        front = self.items[0]
        if result != front:
            raise SpecReject(
                f"try_dequeue returned {result!r} but the front is {front!r}"
            )
        self.items.popleft()
        self._touch("queue")

    def candidate_results(self, method, args):
        """Plausible returns for incomplete operations in recovered logs;
        the ``try_dequeue`` candidates are state-dependent (the current
        front is the only item it could have taken)."""
        if method == "enqueue":
            return (None,)
        if method == "dequeue":
            return (self.items[0],) if self.items else ()
        if method == "try_enqueue":
            return (True, False)
        if method == "try_dequeue":
            front = (self.items[0],) if self.items else ()
            return (EMPTY, *front)
        return None

    @observer
    def size_of(self):
        return len(self.items)

    def view(self) -> dict:
        return {"queue": tuple(self.items)}

    def view_at(self, key):
        return tuple(self.items) if key == "queue" else VIEW_ABSENT

    def describe(self) -> str:
        return f"queue = {list(self.items)!r}"
