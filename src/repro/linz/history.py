"""Call/return histories: the annotation-free projection of a VYRD log.

Linearizability checking consumes nothing but the *history* of an
execution: which operations were invoked, with which arguments, in which
real-time order, and what they returned.  Every VYRD log level already
records exactly that (``CallAction``/``ReturnAction``), so any log the
pipeline can load -- a hash-chained ``VYRDLOG2`` file (every log written
today, a ``run --save`` log or a serve shard), a read-only ``VYRDLOG1``
file from an older session, or a salvaged prefix from
:func:`repro.core.recover_log` -- yields a history with no commit
annotations required.

:func:`extract_history` performs the projection; :class:`History` holds the
operations plus the call/return *event sequence* in log order, which is the
real-time partial order the search in :mod:`repro.linz.checker` must
respect: operation ``a`` precedes ``b`` iff ``a`` returned before ``b`` was
invoked.

An operation whose return record is missing (the log ended or was torn
mid-execution) is *incomplete*: its effect on the abstract state is
unknowable from the log, so the checker treats it as optional (see the
checker's candidate-result branching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.actions import CallAction, ReturnAction

#: Event tags in :attr:`History.events`.
CALL = "call"
RET = "return"


class HistoryError(Exception):
    """The log's call/return records do not form a history (tool misuse:
    a return without a call, or a duplicated operation id)."""


@dataclass(frozen=True)
class Operation:
    """One invoked operation of the history."""

    op_id: int
    tid: int
    method: str
    args: tuple
    call_seq: int                     # log position of the CallAction
    return_seq: Optional[int] = None  # log position of the ReturnAction
    result: Any = None                # observed return value (complete ops)

    @property
    def complete(self) -> bool:
        return self.return_seq is not None

    def describe(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        suffix = f" -> {self.result!r}" if self.complete else " (no return)"
        return f"{self.method}({rendered}){suffix}"


@dataclass
class History:
    """The call/return projection of one log."""

    operations: Dict[int, Operation] = field(default_factory=dict)
    #: ``(CALL | RET, Operation)`` pairs in log order; incomplete operations
    #: contribute only their CALL event.
    events: List[Tuple[str, Operation]] = field(default_factory=list)

    @property
    def completed(self) -> List[Operation]:
        return [op for op in self.operations.values() if op.complete]

    @property
    def incomplete(self) -> List[Operation]:
        return [op for op in self.operations.values() if not op.complete]

    def observed_results(self, method: str) -> List[Any]:
        """Distinct results observed for ``method`` anywhere in the history,
        in first-observation order (the checker's candidate fallback for
        incomplete mutators)."""
        seen: List[Any] = []
        for op in self.operations.values():
            if op.complete and op.method == method:
                if not any(op.result == prior for prior in seen):
                    seen.append(op.result)
        return seen

    def __len__(self) -> int:
        return len(self.operations)


def extract_history(log) -> History:
    """Project ``log`` (a :class:`~repro.core.Log` or any action iterable)
    onto its call/return history.

    All other action types -- commits, writes, locks, replay entries -- are
    ignored: the point of the linearizability mode is that none of them are
    needed.
    """
    history = History()
    open_ops: Dict[int, Tuple[int, CallAction]] = {}  # op_id -> (seq, call)
    raw_events: List[Tuple[str, int]] = []
    for seq, action in enumerate(log):
        if isinstance(action, CallAction):
            if action.op_id in history.operations or action.op_id in open_ops:
                raise HistoryError(
                    f"duplicate operation id {action.op_id} at log seq {seq}"
                )
            open_ops[action.op_id] = (seq, action)
            raw_events.append((CALL, action.op_id))
        elif isinstance(action, ReturnAction):
            entry = open_ops.pop(action.op_id, None)
            if entry is None:
                raise HistoryError(
                    f"return without a call for operation {action.op_id} "
                    f"({action.method!r}) at log seq {seq}"
                )
            call_seq, call = entry
            if call.method != action.method:
                raise HistoryError(
                    f"operation {action.op_id} called {call.method!r} but "
                    f"returned from {action.method!r} at log seq {seq}"
                )
            history.operations[action.op_id] = Operation(
                op_id=action.op_id, tid=call.tid, method=call.method,
                args=tuple(call.args), call_seq=call_seq, return_seq=seq,
                result=action.result,
            )
            raw_events.append((RET, action.op_id))
    for op_id, (call_seq, call) in open_ops.items():
        history.operations[op_id] = Operation(
            op_id=op_id, tid=call.tid, method=call.method,
            args=tuple(call.args), call_seq=call_seq,
        )
    history.events = [
        (kind, history.operations[op_id]) for kind, op_id in raw_events
    ]
    return history
