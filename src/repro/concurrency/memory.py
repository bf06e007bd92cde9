"""Shared memory for simulated threads.

Shared state is modelled as named :class:`SharedCell` objects.  Simulated
threads access a cell only through ``yield cell.read()`` /
``yield cell.write(value)`` syscalls, which makes every shared access an
explicit preemption point *and* gives the kernel a single place to report
writes to the VYRD tracer (the fine-grained logging level of paper
section 6.2).

Cell *names* are the stable identifiers that appear in the log
(``"A[3].elt"``, ``"cache.dirty[h7]"``...).  The checker's
:class:`repro.core.replay.ReplayState` reconstructs implementation state as a
mapping from these names to logged values, so view functions are written
against names, never against live objects.

Values stored in cells should be immutable (numbers, strings, tuples,
``bytes``, frozen dataclasses): the log records them by reference.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List

from .kernel import _HANDLERS, Kernel, SimThread, WriteSys


class SharedCell:
    """A single named shared variable.

    ``read``/``write`` return syscalls to be yielded by simulated threads;
    a read carries nothing but its cell, so the cell itself is the read
    syscall.  ``peek``/``poke`` access the value directly -- they bypass
    both the scheduler and the log, and exist for initialization and for
    test assertions *after* a run, never for use inside thread bodies.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str, value: Any = None):
        self.name = name
        self._value = value

    def read(self) -> "SharedCell":
        return self

    def write(self, value: Any, commit: bool = False) -> WriteSys:
        return WriteSys(self, value, commit)

    def peek(self) -> Any:
        return self._value

    def poke(self, value: Any) -> None:
        self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedCell {self.name}={self._value!r}>"


def _sys_read(kernel: Kernel, thread: SimThread, cell: SharedCell) -> None:
    """A yielded cell: send its value back (and report the read if the
    tracer records reads)."""
    thread.send_value = cell._value
    if kernel._log_reads:
        kernel.tracer.on_read(thread.tid, cell)


_HANDLERS[SharedCell] = _sys_read


class SharedArray:
    """A fixed-size array of shared cells named ``base[i]``.

    Supports ``len``, indexing (returning the :class:`SharedCell`) and
    iteration.  Example::

        elts = SharedArray("A.elt", 8, init=None)
        v = yield elts[3].read()
    """

    __slots__ = ("base", "cells")

    def __init__(self, base: str, size: int, init: Any = None, init_fn: Callable[[int], Any] = None):
        self.base = base
        if init_fn is not None:
            self.cells: List[SharedCell] = [
                SharedCell(f"{base}[{i}]", init_fn(i)) for i in range(size)
            ]
        else:
            self.cells = [SharedCell(f"{base}[{i}]", init) for i in range(size)]

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, index: int) -> SharedCell:
        return self.cells[index]

    def __iter__(self) -> Iterator[SharedCell]:
        return iter(self.cells)

    def peek_all(self) -> list:
        """Snapshot of all values (for post-run assertions)."""
        return [cell.peek() for cell in self.cells]


class CellFactory:
    """Mints uniquely named cells under a common prefix.

    Dynamic structures (tree nodes, cache entries) allocate cells at runtime;
    the factory guarantees name uniqueness, which the replay state relies on.
    """

    __slots__ = ("prefix", "_counter")

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._counter = 0

    def fresh(self, suffix: str = "", value: Any = None) -> SharedCell:
        """Return a new cell named ``prefix.suffix#<n>`` (or ``prefix#<n>``)."""
        self._counter += 1
        tag = f"{self.prefix}.{suffix}#{self._counter}" if suffix else f"{self.prefix}#{self._counter}"
        return SharedCell(tag, value)

    def named(self, name: str, value: Any = None) -> SharedCell:
        """Return a new cell with an exact (caller-guaranteed-unique) name."""
        return SharedCell(f"{self.prefix}.{name}", value)
