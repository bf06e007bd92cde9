"""Action records: the vocabulary of the VYRD log.

The paper models programs as state transition systems whose runs are
sequences of *actions* (section 3.1).  VYRD's instrumentation writes a subset
of those actions into a log; the verification thread replays the log.  This
module defines one record type per logged action kind:

================================  ============================================
Record                            Paper concept
================================  ============================================
:class:`CallAction`               call action ``(t, mu, alpha)``
:class:`ReturnAction`             return action ``(t, mu, rho)``
:class:`CommitAction`             the *commit action* annotation (section 4.1);
                                  ``op_id is None`` for internal worker-thread
                                  commits (e.g. the B-link-tree compression
                                  thread, section 7.2.3)
:class:`WriteAction`              a shared-variable write (fine-grained
                                  logging, section 6.2); carries the old value
                                  so commit-block rollback (section 5.2) needs
                                  no state traversal
:class:`BeginCommitBlockAction`   start of a commit block (section 5.2)
:class:`EndCommitBlockAction`     end of a commit block
:class:`ReplayAction`             a coarse-grained, data-structure-specific
                                  log entry with a programmer-supplied replay
                                  routine (section 6.2)
================================  ============================================

Each method execution (one invocation of a public method) is identified by a
globally unique ``op_id`` linking its call, commit and return records.  The
position of a record in the log is its global sequence number; records do not
store it themselves.

Records are immutable by contract: nothing assigns a field after
construction, and payload values must themselves be immutable so the log is
a faithful snapshot.  The classes are plain (not frozen) dataclasses because
the verification thread builds one record per logged action when it decodes
a log, and a frozen dataclass's ``__init__`` pays an ``object.__setattr__``
call per field; equality and hashing are still over the field values, so a
record may key a dict or sit in a set.

In a log file each record is ``pickle.dumps(record, PAYLOAD_PROTOCOL)``
(:mod:`repro.core.log`), which names its class by the pickle extension code
in :data:`EXTENSION_CODES` (PEP 307) rather than by module and class name.
The codes are part of the log format.  A process must import :mod:`repro`
(which registers them) before it unpickles a record; payloads written before
the codes existed name their class and still load.
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import Any, Dict, Optional, Tuple


class Action:
    """Base class of all log records."""

    __slots__ = ()

    def __reduce__(self):
        # the class and its field values: a smaller pickle than the default
        # slots state, and the one every log payload and signature hashes
        cls = type(self)
        return (cls, _field_values(cls)(self))


def subclass_entry(table: Dict[type, Any], action: Any, default: Any) -> Any:
    """The entry a subclass of a record type gets in a type-keyed table.

    The checkers dispatch each record with one ``table.get(type(action))``;
    a record whose exact type is not a key takes the entry of the first key
    (in table order) it is an instance of, or ``default`` when none is --
    the ``isinstance`` chain the table replaces, in its order.
    """
    for cls, entry in table.items():
        if isinstance(action, cls):
            return entry
    return default


def ignore_record(checker: Any, seq: int, action: Any) -> None:
    """The table entry of a record type a checker has nothing to do for."""


@lru_cache(maxsize=None)
def _field_values(cls: type) -> attrgetter:
    """The getter of ``cls``'s field values, in declaration order.  Every
    record has at least ``tid`` and ``op_id``, so it returns a tuple."""
    return attrgetter(*(f.name for f in fields(cls)))


@dataclass(unsafe_hash=True)
class CallAction(Action):
    """Public-method invocation by application thread ``tid``."""

    tid: int
    op_id: int
    method: str
    args: Tuple[Any, ...]

    __slots__ = ("tid", "op_id", "method", "args")


@dataclass(unsafe_hash=True)
class ReturnAction(Action):
    """Public-method return.  Exceptional termination is modelled by special
    return values (paper section 3), never by Python exceptions."""

    tid: int
    op_id: int
    method: str
    result: Any

    __slots__ = ("tid", "op_id", "method", "result")


@dataclass(unsafe_hash=True)
class CommitAction(Action):
    """The annotated commit action of a method execution.

    ``op_id is None`` marks an *internal* commit performed by a
    data-structure worker thread outside any public method; the view checker
    verifies such commits leave the view unchanged.
    """

    tid: int
    op_id: Optional[int]

    __slots__ = ("tid", "op_id")


@dataclass(unsafe_hash=True)
class WriteAction(Action):
    """A write to the shared variable named ``loc``.

    ``op_id`` is the enclosing method execution (``None`` for internal
    threads).  ``old`` is the value being overwritten -- recorded so that the
    replay state can roll back uncommitted commit-block writes without
    retraversing anything.
    """

    tid: int
    op_id: Optional[int]
    loc: str
    old: Any
    new: Any

    __slots__ = ("tid", "op_id", "loc", "old", "new")


@dataclass(unsafe_hash=True)
class BeginCommitBlockAction(Action):
    tid: int
    op_id: Optional[int]

    __slots__ = ("tid", "op_id")


@dataclass(unsafe_hash=True)
class EndCommitBlockAction(Action):
    tid: int
    op_id: Optional[int]

    __slots__ = ("tid", "op_id")


@dataclass(unsafe_hash=True)
class ReplayAction(Action):
    """Coarse-grained log entry: ``tag`` selects a replay routine registered
    with the checker; ``payload`` is the immutable data that routine needs."""

    tid: int
    op_id: Optional[int]
    tag: str
    payload: Any

    __slots__ = ("tid", "op_id", "tag", "payload")


@dataclass(unsafe_hash=True)
class ReadAction(Action):
    """A shared-variable read (logged only when read logging is enabled;
    needed by the Atomizer-style atomicity baseline's race detection)."""

    tid: int
    op_id: Optional[int]
    loc: str

    __slots__ = ("tid", "op_id", "loc")


def _lock_record_init(self, tid: int, op_id: Optional[int], lock: str,
                      mode: str = "x") -> None:
    """The ``__init__`` of the two lock records, written out because a
    dataclass default for ``mode`` would be a class attribute colliding
    with its slot (``dataclass(slots=True)`` needs Python 3.10)."""
    self.tid = tid
    self.op_id = op_id
    self.lock = lock
    self.mode = mode


@dataclass(unsafe_hash=True, init=False)
class AcquireAction(Action):
    """A lock acquisition (``mode``: ``"x"`` exclusive, ``"r"``/``"w"`` for
    reader-writer locks).  Logged at grant time, outermost level only."""

    tid: int
    op_id: Optional[int]
    lock: str
    mode: str

    __slots__ = ("tid", "op_id", "lock", "mode")
    __init__ = _lock_record_init


@dataclass(unsafe_hash=True, init=False)
class ReleaseAction(Action):
    """A lock release (outermost level only)."""

    tid: int
    op_id: Optional[int]
    lock: str
    mode: str

    __slots__ = ("tid", "op_id", "lock", "mode")
    __init__ = _lock_record_init


@dataclass(unsafe_hash=True)
class SpawnAction(Action):
    """Thread ``tid`` spawned simulated thread ``child_tid``.

    Logged only for *dynamic* spawns (from inside a running simulated
    thread); threads created before ``kernel.run()`` have no logged parent.
    Gives the race detector its fork happens-before edge."""

    tid: int
    op_id: Optional[int]
    child_tid: int

    __slots__ = ("tid", "op_id", "child_tid")


@dataclass(unsafe_hash=True)
class JoinAction(Action):
    """Thread ``tid`` observed the completion of thread ``child_tid`` via
    ``ctx.join`` (the join happens-before edge)."""

    tid: int
    op_id: Optional[int]
    child_tid: int

    __slots__ = ("tid", "op_id", "child_tid")


#: The pickle extension code of each record type, in declaration order, from
#: the range copyreg reserves for private use (240-255).  ``pickle.dumps``
#: writes a record's class as a two-byte ``EXT1`` opcode instead of its
#: module and name, and ``pickle.loads`` takes the class from copyreg's
#: extension cache instead of importing it.  A code is part of the log
#: format: it is never reassigned, and a retired type's code is not reused.
EXTENSION_CODES: Dict[type, int] = {
    CallAction: 240,
    ReturnAction: 241,
    CommitAction: 242,
    WriteAction: 243,
    BeginCommitBlockAction: 244,
    EndCommitBlockAction: 245,
    ReplayAction: 246,
    ReadAction: 247,
    AcquireAction: 248,
    ReleaseAction: 249,
    SpawnAction: 250,
    JoinAction: 251,
}

for _cls, _code in EXTENSION_CODES.items():
    # copyreg refuses a code already registered under another name (a
    # second copy of this module), and re-registering the same is a no-op
    copyreg.add_extension(_cls.__module__, _cls.__qualname__, _code)
del _cls, _code


@dataclass(frozen=True)
class Signature:
    """The signature ``Sign(phi) = (t, mu, alpha, rho)`` of a method execution
    (paper section 3.2)."""

    tid: int
    method: str
    args: Tuple[Any, ...]
    result: Any

    __slots__ = ("tid", "method", "args", "result")

    def __reduce__(self):
        # same manual pickle support as Action: frozen + manual __slots__
        # defeats the default protocol (checkpoints serialize violations,
        # which carry signatures)
        return (type(self), (self.tid, self.method, self.args, self.result))

    def __str__(self) -> str:
        arg_text = ", ".join(repr(a) for a in self.args)
        return f"t{self.tid}:{self.method}({arg_text}) -> {self.result!r}"
