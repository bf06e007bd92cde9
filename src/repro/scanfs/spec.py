"""Specification of the Scan-like file system: a map from names to contents."""

from __future__ import annotations

from typing import Dict, Tuple

from ..core import VIEW_ABSENT, SpecReject, Specification, mutator, observer


class FsSpec(Specification):
    """name -> content-tuple map; capacity-aware (one block per file)."""

    tracks_view_delta = True

    def __init__(self, num_blocks: int = 16, max_content: int = 7):
        self.num_blocks = num_blocks
        self.max_content = max_content
        self.files: Dict[str, Tuple[int, ...]] = {}

    def clone(self) -> "FsSpec":
        return self._clone_with(files=dict(self.files))

    @mutator
    def create(self, name, *, result):
        exists = name in self.files
        full = len(self.files) >= self.num_blocks
        if result is True:
            if exists:
                raise SpecReject(f"create({name!r}) succeeded but the file exists")
            if full:
                raise SpecReject(f"create({name!r}) succeeded on a full disk")
            self.files[name] = ()
            self._touch(name)
        elif result is False:
            if not exists and not full:
                raise SpecReject(f"create({name!r}) failed with room available")
        else:
            raise SpecReject(f"create must return a bool, got {result!r}")

    @mutator
    def write_file(self, name, content, *, result):
        content = tuple(content)
        possible = name in self.files and len(content) <= self.max_content
        if result is True:
            if not possible:
                raise SpecReject(
                    f"write_file({name!r}) succeeded but the spec disallows it"
                )
            self.files[name] = content
            self._touch(name)
        elif result is False:
            if possible:
                raise SpecReject(f"write_file({name!r}) failed but was possible")
        else:
            raise SpecReject(f"write_file must return a bool, got {result!r}")

    @mutator
    def delete(self, name, *, result):
        if result is True:
            if name not in self.files:
                raise SpecReject(f"delete({name!r}) succeeded on an absent file")
            del self.files[name]
            self._touch(name)
        elif result is False:
            if name in self.files:
                raise SpecReject(f"delete({name!r}) failed but the file exists")
        else:
            raise SpecReject(f"delete must return a bool, got {result!r}")

    def candidate_results(self, method, args):
        """Plausible returns for incomplete operations in recovered logs."""
        if method in ("create", "write_file", "delete"):
            return (True, False)
        return None

    @observer
    def read_file(self, name):
        return self.files.get(name)

    def view(self) -> dict:
        return dict(self.files)

    def view_at(self, name):
        return self.files[name] if name in self.files else VIEW_ABSENT

    def describe(self) -> str:
        return f"files = {self.files!r}"
