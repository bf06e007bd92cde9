"""Specifications for the Java library ports (paper section 7.4.1).

Both specs are method-atomic and deterministic; exceptional terminations are
special return values (``IOOBE``), which the specs never produce -- observing
one is an I/O refinement violation, exactly how the paper's tests expose the
``lastIndexOf`` bug.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core import VIEW_ABSENT, SpecReject, Specification, mutator, observer
from .vector import IOOBE


class VectorSpec(Specification):
    """Specification of the verified ``java.util.Vector`` subset."""

    tracks_view_delta = True

    def __init__(self, capacity: int = 32):
        self.capacity = capacity
        self.items: list = []

    def clone(self) -> "VectorSpec":
        return self._clone_with(items=list(self.items))

    @mutator
    def add_element(self, obj, *, result):
        if result is True:
            if len(self.items) >= self.capacity:
                raise SpecReject("add_element succeeded on a full vector")
            self.items.append(obj)
            self._touch("contents")
        elif result is False:
            if len(self.items) < self.capacity:
                raise SpecReject("add_element failed though the vector has room")
        else:
            raise SpecReject(f"add_element must return a bool, not {result!r}")

    @mutator
    def remove_all_elements(self, *, result):
        if result is not None:
            raise SpecReject(f"remove_all_elements returns nothing, got {result!r}")
        self.items.clear()
        self._touch("contents")

    def candidate_results(self, method, args):
        """Plausible returns for incomplete operations in recovered logs."""
        if method == "add_element":
            return (True, False)
        if method == "remove_all_elements":
            return (None,)
        return None

    @observer
    def size(self):
        return len(self.items)

    @observer
    def element_at(self, index: int):
        if index < 0 or index >= len(self.items):
            return IOOBE
        return self.items[index]

    @observer
    def last_index_of(self, obj):
        for i in range(len(self.items) - 1, -1, -1):
            if self.items[i] == obj:
                return i
        return -1

    def view(self) -> dict:
        return {"contents": tuple(self.items)}

    def view_at(self, key):
        return tuple(self.items) if key == "contents" else VIEW_ABSENT

    def describe(self) -> str:
        return f"vector = {self.items!r}"


class StringBufferSpec(Specification):
    """Specification of the named-buffer system: each buffer is a string."""

    tracks_view_delta = True

    def __init__(self, names: Tuple[str, ...] = ("dst", "src"), capacity: int = 64):
        self.capacity = capacity
        self.strings: Dict[str, str] = {name: "" for name in names}

    def clone(self) -> "StringBufferSpec":
        return self._clone_with(strings=dict(self.strings))

    @mutator
    def append_str(self, buf, text, *, result):
        current = self.strings[buf]
        fits = len(current) + len(text) <= self.capacity
        if result is True:
            if not fits:
                raise SpecReject("append_str succeeded past capacity")
            self.strings[buf] = current + text
            self._touch(buf)
        elif result is False:
            if fits:
                raise SpecReject("append_str failed though the buffer has room")
        else:
            raise SpecReject(f"append_str must return a bool, not {result!r}")

    @mutator
    def append_buffer(self, dst, src, *, result):
        addition = self.strings[src]
        current = self.strings[dst]
        fits = len(current) + len(addition) <= self.capacity
        if result is True:
            if not fits:
                raise SpecReject("append_buffer succeeded past capacity")
            self.strings[dst] = current + addition
            self._touch(dst)
        elif result is False:
            if fits:
                raise SpecReject("append_buffer failed though the buffer has room")
        else:
            raise SpecReject(f"append_buffer must return a bool, not {result!r}")

    @mutator
    def delete(self, buf, start, end, *, result):
        current = self.strings[buf]
        valid = 0 <= start <= end and start <= len(current)
        if result is True:
            if not valid:
                raise SpecReject(f"delete({start}, {end}) succeeded on {current!r}")
            end = min(end, len(current))
            self.strings[buf] = current[:start] + current[end:]
            self._touch(buf)
        elif result is False:
            if valid:
                raise SpecReject(f"delete({start}, {end}) failed on {current!r}")
        else:
            raise SpecReject(f"delete must return a bool, not {result!r}")

    def candidate_results(self, method, args):
        """Plausible returns for incomplete operations in recovered logs."""
        if method in ("append_str", "append_buffer", "delete"):
            return (True, False)
        return None

    @observer
    def to_string(self, buf):
        return self.strings[buf]

    @observer
    def length_of(self, buf):
        return len(self.strings[buf])

    def view(self) -> dict:
        return dict(self.strings)

    def view_at(self, buf):
        return self.strings[buf] if buf in self.strings else VIEW_ABSENT

    def describe(self) -> str:
        return f"buffers = {self.strings!r}"
