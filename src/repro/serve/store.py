"""Pluggable log stores: where shard files live.

The streaming service reads and writes shards through a small blob-store
interface instead of raw paths, so the same daemon can ingest from a local
spool directory today and an object store (S3-style) tomorrow.  The
interface is deliberately shaped like what an object store actually offers
-- named blobs, ranged reads, list-by-prefix -- plus the one extra thing a
*streaming* producer needs: an append handle.

Two implementations ship:

* :class:`LocalDirectoryStore` -- blobs are files under a root directory;
  the production path for a single-box deployment.  Appends are real file
  appends; ranged reads are ``seek`` + ``read``, so a tailing reader never
  copies more than the new bytes.
* :class:`ObjectStoreStub` -- an in-memory S3-flavored stub (buckets of
  keys, ``put_object``/``get_object``/``list_objects`` verbs internally).
  It exists to keep the daemon honest about the interface -- everything in
  :mod:`repro.serve` runs against either store -- and as the seam where a
  real ``boto3``-backed store would plug in without touching the daemon.

Small conventions shared by both:

* Names are ``/``-separated logical paths (``session/shard-0000.vlog``).
* ``size`` returns ``None`` for a missing blob -- tailing readers poll it.
* *Flags* are zero-byte blobs used as cross-process signals (the
  backpressure pause flag); they need nothing beyond put/delete/exists.
"""

from __future__ import annotations

import io
import json
import os
import threading
from abc import ABC, abstractmethod
from typing import IO, List, Optional


class LogStore(ABC):
    """Abstract blob store for shard files, manifests and flags."""

    # -- blob primitives ----------------------------------------------------

    @abstractmethod
    def open_append(self, name: str) -> IO[bytes]:
        """A binary handle appending to ``name`` (created if missing)."""

    @abstractmethod
    def open_read(self, name: str) -> IO[bytes]:
        """A fresh binary read handle over the blob's current content."""

    @abstractmethod
    def read_range(self, name: str, start: int, end: Optional[int] = None) -> bytes:
        """Bytes ``[start, end)`` of the blob (to its current size if
        ``end`` is None).  The ranged GET a tailing reader lives on."""

    @abstractmethod
    def size(self, name: str) -> Optional[int]:
        """Current blob size in bytes, or ``None`` if it does not exist."""

    @abstractmethod
    def list(self, prefix: str = "") -> List[str]:
        """Sorted names of all blobs under ``prefix``."""

    @abstractmethod
    def put_bytes(self, name: str, data: bytes) -> None:
        """Create or replace a whole blob."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove a blob (missing blobs are fine -- flags race)."""

    @abstractmethod
    def path(self, name: str) -> Optional[str]:
        """Filesystem path of the blob when it has one (local stores);
        ``None`` for off-box stores."""

    # -- conveniences over the primitives -----------------------------------

    def exists(self, name: str) -> bool:
        return self.size(name) is not None

    def get_bytes(self, name: str) -> bytes:
        with self.open_read(name) as handle:
            return handle.read()

    def put_json(self, name: str, payload: dict) -> None:
        self.put_bytes(
            name,
            json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
        )

    def get_json(self, name: str) -> Optional[dict]:
        if not self.exists(name):
            return None
        return json.loads(self.get_bytes(name).decode("utf-8"))

    # -- flags (zero-byte signal blobs) -------------------------------------

    def set_flag(self, name: str) -> None:
        self.put_bytes(name, b"")

    def clear_flag(self, name: str) -> None:
        self.delete(name)

    def has_flag(self, name: str) -> bool:
        return self.exists(name)


class WrappedStore(LogStore):
    """A store that sends every I/O primitive of ``inner`` through ``_call``.

    The one delegation table behind the retrying store
    (:class:`repro.serve.retry.RetryingStore`) and the brownout injector
    (:class:`repro.faults.inject.FlakyStore`): a subclass overrides only
    ``_call(op, name, fn, *args)``, which must return ``fn(*args)``.
    ``path`` is metadata with no I/O in either shipped store, so it goes
    straight to ``inner``.  The conveniences (``get_json``, ``set_flag``,
    ...) route through the wrapped primitives as on any store.
    """

    def __init__(self, inner: LogStore):
        self.inner = inner

    @abstractmethod
    def _call(self, op: str, name: str, fn, *args):
        """Run ``fn(*args)``, the primitive ``op`` on blob (or prefix) ``name``."""

    def open_append(self, name: str) -> IO[bytes]:
        return self._call("open_append", name, self.inner.open_append, name)

    def open_read(self, name: str) -> IO[bytes]:
        return self._call("open_read", name, self.inner.open_read, name)

    def read_range(self, name: str, start: int,
                   end: Optional[int] = None) -> bytes:
        return self._call(
            "read_range", name, self.inner.read_range, name, start, end
        )

    def size(self, name: str) -> Optional[int]:
        return self._call("size", name, self.inner.size, name)

    def list(self, prefix: str = "") -> List[str]:
        return self._call("list", prefix, self.inner.list, prefix)

    def put_bytes(self, name: str, data: bytes) -> None:
        return self._call("put_bytes", name, self.inner.put_bytes, name, data)

    def delete(self, name: str) -> None:
        return self._call("delete", name, self.inner.delete, name)

    def path(self, name: str) -> Optional[str]:
        return self.inner.path(name)


class LocalDirectoryStore(LogStore):
    """Blobs are files under ``root``; the single-box production store."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _fs(self, name: str) -> str:
        path = os.path.normpath(os.path.join(self.root, name))
        if not path.startswith(self.root + os.sep) and path != self.root:
            raise ValueError(f"blob name escapes the store root: {name!r}")
        return path

    def open_append(self, name: str) -> IO[bytes]:
        path = self._fs(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, "ab")

    def open_read(self, name: str) -> IO[bytes]:
        return open(self._fs(name), "rb")

    def read_range(self, name: str, start: int, end: Optional[int] = None) -> bytes:
        with open(self._fs(name), "rb") as handle:
            handle.seek(start)
            if end is None:
                return handle.read()
            return handle.read(max(0, end - start))

    def size(self, name: str) -> Optional[int]:
        try:
            return os.path.getsize(self._fs(name))
        except OSError:
            return None

    def list(self, prefix: str = "") -> List[str]:
        names = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                name = os.path.relpath(full, self.root).replace(os.sep, "/")
                if name.startswith(prefix):
                    names.append(name)
        return sorted(names)

    def put_bytes(self, name: str, data: bytes) -> None:
        path = self._fs(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)  # atomic publish: readers never see half a blob

    def delete(self, name: str) -> None:
        try:
            os.remove(self._fs(name))
        except OSError:
            pass

    def path(self, name: str) -> Optional[str]:
        return self._fs(name)


class ObjectStoreStub(LogStore):
    """In-memory S3-style object store (one bucket of keyed byte blobs).

    The internal verbs mirror the S3 API shape (``put_object`` /
    ``get_object`` with an optional byte range / ``list_objects``) so a real
    client drops in behind the same :class:`LogStore` surface.  Appends are
    modelled the way an object store forces you to: the handle accumulates
    parts locally and each ``flush`` commits the whole object
    (multipart-upload semantics collapsed to one process) -- which is
    exactly why the daemon's tailing readers only ever use ranged reads of
    committed bytes.

    Thread-safe; shard producers and the daemon may share one stub
    in-process (the unit-test and API-shape configuration -- a *real*
    off-box store is multi-process by nature).
    """

    def __init__(self, bucket: str = "vyrd-logs"):
        self.bucket = bucket
        self._objects: dict = {}
        self._lock = threading.Lock()

    # -- S3-flavored internal verbs -----------------------------------------

    def put_object(self, key: str, body: bytes) -> None:
        with self._lock:
            self._objects[key] = bytes(body)

    def get_object(self, key: str, start: int = 0,
                   end: Optional[int] = None) -> bytes:
        with self._lock:
            body = self._objects[key]
        return body[start:end] if end is not None else body[start:]

    def list_objects(self, prefix: str = "") -> List[str]:
        with self._lock:
            return sorted(k for k in self._objects if k.startswith(prefix))

    def delete_object(self, key: str) -> None:
        with self._lock:
            self._objects.pop(key, None)

    def head_object(self, key: str) -> Optional[int]:
        with self._lock:
            body = self._objects.get(key)
        return None if body is None else len(body)

    # -- LogStore surface ----------------------------------------------------

    class _AppendHandle(io.RawIOBase):
        """Accumulates appended bytes; every flush commits the object."""

        def __init__(self, store: "ObjectStoreStub", key: str):
            super().__init__()
            self._store = store
            self._key = key
            self._parts = [store._objects.get(key, b"")]

        def writable(self) -> bool:
            return True

        def write(self, data) -> int:
            self._parts.append(bytes(data))
            return len(data)

        def flush(self) -> None:
            body = b"".join(self._parts)
            self._parts = [body]
            self._store.put_object(self._key, body)

        def close(self) -> None:
            if not self.closed:
                self.flush()
            super().close()

    def open_append(self, name: str) -> IO[bytes]:
        return self._AppendHandle(self, name)

    def open_read(self, name: str) -> IO[bytes]:
        return io.BytesIO(self.get_object(name))

    def read_range(self, name: str, start: int, end: Optional[int] = None) -> bytes:
        return self.get_object(name, start, end)

    def size(self, name: str) -> Optional[int]:
        return self.head_object(name)

    def list(self, prefix: str = "") -> List[str]:
        return self.list_objects(prefix)

    def put_bytes(self, name: str, data: bytes) -> None:
        self.put_object(name, data)

    def delete(self, name: str) -> None:
        self.delete_object(name)

    def path(self, name: str) -> Optional[str]:
        return None
