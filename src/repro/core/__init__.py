"""VYRD core: logging, specifications, and refinement checking.

The paper's primary contribution.  Sub-modules:

* :mod:`actions`, :mod:`log` -- the action vocabulary and the log.
* :mod:`spec` -- executable specifications (method-atomic, deterministic)
  and the atomized-implementation-as-spec of section 4.4.
* :mod:`interleaving` -- witness-interleaving construction (section 4).
* :mod:`replay`, :mod:`view` -- replayed implementation state, commit-block
  rollback and incremental ``viewI`` computation (sections 5, 6.4).
* :mod:`observer` -- commit-free observer checking (section 4.3).
* :mod:`refinement` -- the I/O and view refinement checkers.
* :mod:`invariants` -- runtime invariant hooks (section 7.2.1).
* :mod:`instrument` -- tracer and data-structure wrapper producing the log.
* :mod:`verifier` -- the :class:`Vyrd` facade and the online verification
  thread (section 4.2).
* :mod:`report` -- violation reports and Fig. 3/6-style trace rendering.
"""

from .actions import (
    AcquireAction,
    Action,
    BeginCommitBlockAction,
    CallAction,
    CommitAction,
    EndCommitBlockAction,
    JoinAction,
    ReadAction,
    ReleaseAction,
    ReplayAction,
    ReturnAction,
    Signature,
    SpawnAction,
    WriteAction,
)
from .exhaustive import (
    ExhaustiveVerification,
    ScheduleViolation,
    replay_schedule,
    verify_all_schedules,
)
from .instrument import (
    InstrumentationError,
    InstrumentedDataStructure,
    VyrdTracer,
    operation,
)
from .interleaving import Execution, WitnessInterleaving, build_witness, respects_program_order
from .invariants import Invariant
from .log import (
    ChainDecoder,
    ChainReport,
    Log,
    LogFormatError,
    LogReader,
    LogView,
    LogWriter,
    RecoveredLog,
    genesis_digest,
    load_log,
    log_signature,
    recover_log,
    save_log,
    validate_well_formed,
    verify_chain,
)
from .checkpoint import Checkpoint, CheckpointError, checkpoint_blob_name
from .observer import ObserverTracker, ObserverWindow
from .refinement import (
    CheckOutcome,
    RefinementChecker,
    ViewComparator,
    Violation,
    ViolationKind,
    check_log,
)
from .replay import ABSENT, EffectiveState, ReplayState
from .report import format_outcome, format_violation, render_trace, render_witness
from .spec import (
    VIEW_ABSENT,
    AnyOf,
    AtomizedSpec,
    SpecError,
    SpecReject,
    Specification,
    allows,
    mutator,
    observer,
)
from .verifier import OnlineVerifier, Vyrd
from .view import (
    ContributionView,
    DependencyView,
    FunctionView,
    ImplView,
    canonical_bag,
    canonical_map,
    prefix_unit,
)

__all__ = [
    "ABSENT",
    "AcquireAction",
    "Action",
    "AnyOf",
    "AtomizedSpec",
    "BeginCommitBlockAction",
    "CallAction",
    "CheckOutcome",
    "Checkpoint",
    "CheckpointError",
    "CommitAction",
    "ContributionView",
    "DependencyView",
    "EffectiveState",
    "EndCommitBlockAction",
    "ExhaustiveVerification",
    "Execution",
    "FunctionView",
    "ImplView",
    "InstrumentationError",
    "InstrumentedDataStructure",
    "Invariant",
    "JoinAction",
    "Log",
    "LogFormatError",
    "LogReader",
    "LogView",
    "LogWriter",
    "RecoveredLog",
    "ObserverTracker",
    "ObserverWindow",
    "OnlineVerifier",
    "ReadAction",
    "RefinementChecker",
    "ReleaseAction",
    "ReplayAction",
    "ReplayState",
    "ReturnAction",
    "ScheduleViolation",
    "Signature",
    "SpawnAction",
    "SpecError",
    "SpecReject",
    "Specification",
    "VIEW_ABSENT",
    "ViewComparator",
    "Violation",
    "ViolationKind",
    "Vyrd",
    "VyrdTracer",
    "WitnessInterleaving",
    "WriteAction",
    "allows",
    "build_witness",
    "canonical_bag",
    "canonical_map",
    "check_log",
    "checkpoint_blob_name",
    "format_outcome",
    "format_violation",
    "load_log",
    "mutator",
    "observer",
    "operation",
    "recover_log",
    "prefix_unit",
    "render_trace",
    "render_witness",
    "replay_schedule",
    "respects_program_order",
    "save_log",
    "validate_well_formed",
    "verify_all_schedules",
]
