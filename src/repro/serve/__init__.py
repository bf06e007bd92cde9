"""`vyrd serve`: streaming verification with sharded, tamper-evident logs.

The subsystem that moves VYRD's online checking out of the producing
process: producers spool every logged action into per-thread, hash-chained
shard files through a pluggable blob store, and a long-lived daemon tails
the shards, merges them back into the canonical history by sequence number,
and runs the refinement/race checkers continuously -- with bounded queues
and a store-level pause flag applying backpressure when checkers lag.

The pipeline is self-healing (ARCHITECTURE §14): producers run under a
salvage-and-restart supervisor, store access retries transient brownouts
with bounded backoff, and a failed checker degrades the session to
record-only mode with offline catch-up verification at drain -- all without
changing a single verdict byte.

* :mod:`store` -- the :class:`LogStore` interface (local directory, S3-style
  object-store stub).
* :mod:`shard` -- chained shard writers, tailing readers, the producer tee.
* :mod:`merge` -- the deterministic sequence-number merge.
* :mod:`daemon` -- :class:`ServeSession`, :func:`serve_campaign`.
* :mod:`producer` -- the producing side (subprocess entry point).
* :mod:`supervise` -- producer salvage/restart supervision.
* :mod:`retry` -- :class:`RetryingStore` transient-failure absorption.
"""

from .daemon import (
    BoundedQueue,
    ServeReport,
    ServeResult,
    ServeSession,
    serve_campaign,
    session_checkers,
)
from .merge import MergeError, StreamMerger
from .producer import produce_session
from .retry import (
    RetryingStore,
    StoreUnavailable,
    TransientStoreError,
)
from .shard import (
    PROLOGUE_SIZE,
    ShardSet,
    ShardTail,
    ShardWriter,
    StoreThrottle,
    TeeLog,
    health_name,
    manifest_name,
    pause_name,
    restarts_name,
    shard_name,
)
from .store import LocalDirectoryStore, LogStore, ObjectStoreStub
from .supervise import (
    ProducerSupervisor,
    ShardSalvage,
    SupervisorState,
    salvage_session,
    salvage_shard,
)

__all__ = [
    "BoundedQueue",
    "LocalDirectoryStore",
    "LogStore",
    "MergeError",
    "ObjectStoreStub",
    "PROLOGUE_SIZE",
    "ProducerSupervisor",
    "RetryingStore",
    "ServeReport",
    "ServeResult",
    "ServeSession",
    "ShardSalvage",
    "ShardSet",
    "ShardTail",
    "ShardWriter",
    "StoreThrottle",
    "StoreUnavailable",
    "StreamMerger",
    "SupervisorState",
    "TeeLog",
    "TransientStoreError",
    "health_name",
    "manifest_name",
    "pause_name",
    "produce_session",
    "restarts_name",
    "salvage_session",
    "salvage_shard",
    "serve_campaign",
    "session_checkers",
    "shard_name",
]
