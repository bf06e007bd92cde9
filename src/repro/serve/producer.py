"""Producer side of the streaming service.

A producer is one process executing one workload-registry program under the
deterministic kernel, with its session log replaced by a :class:`TeeLog`
that spools every append into chained shard files (:mod:`repro.serve.shard`)
as the run executes.  The producer does *no* checking -- verification is the
daemon's job, concurrent with the run, which is the paper's online-VYRD
deployment shape scaled out of the process.

:func:`produce_session` is the in-process driver; :func:`_producer_main` is
the module-level entry point the daemon forks producer subprocesses into
(closures do not cross ``fork``/``spawn`` boundaries, picklable args do).
"""

from __future__ import annotations

from typing import Optional

from .shard import ShardSet, StoreThrottle, TeeLog
from .store import LocalDirectoryStore, LogStore

#: run_program keywords a producer accepts (the picklable workload config).
RUN_KEYS = (
    "buggy", "num_threads", "calls_per_thread", "mode", "max_steps",
    "log_level", "log_locks", "log_reads", "races",
)


def produce_session(
    store: LogStore,
    session: str,
    program: str,
    *,
    seed: int = 0,
    num_shards: int = 2,
    sync: bool = False,
    batch_records: int = 64,
    throttle: bool = True,
    throttle_every: int = 64,
    run_kwargs: Optional[dict] = None,
    resume: Optional[dict] = None,
    die_after: Optional[int] = None,
) -> dict:
    """Run one workload, spooling its log into ``num_shards`` chained shards.

    Returns the session manifest (also published to the store as the
    completion signal).  The produced shards, merged by sequence number,
    are byte-for-byte the run's canonical log.

    ``resume`` maps shard index to the salvaged-prefix entry produced by
    :func:`repro.serve.supervise.salvage_session` -- the producer then
    re-executes deterministically but skips the appends already durable,
    extending each shard's hash chain from its salvaged head.  ``die_after``
    is the supervision fault hook: flush and ``os._exit`` after that many
    appended records (see :class:`~repro.serve.shard.TeeLog`).  A run that
    raises leaves its shards flushed and closed, publishes no manifest and
    re-raises its error.
    """
    from ..harness.runner import run_program  # late import: serve -> harness

    kwargs = dict(run_kwargs or {})
    unknown = set(kwargs) - set(RUN_KEYS)
    if unknown:
        raise ValueError(f"unsupported producer run_kwargs: {sorted(unknown)}")
    shards = ShardSet(
        store, session, num_shards, sync=sync, batch_records=batch_records,
        resume=resume,
    )
    gate = StoreThrottle(store, session) if throttle else None
    tee = TeeLog(shards, gate, throttle_every=throttle_every,
                 die_after=die_after)
    try:
        result = run_program(program, seed=seed, log=tee, **kwargs)
    except BaseException:
        shards.abort()  # no manifest: the session never completed
        raise
    manifest = shards.close(extra={
        "program": program,
        "seed": seed,
        "throttle_waits": gate.waits if gate else 0,
        "run_records": len(result.log),
    })
    return manifest


def _producer_main(
    root: str,
    session: str,
    program: str,
    seed: int,
    num_shards: int,
    sync: bool,
    batch_records: int,
    run_kwargs: Optional[dict],
    resume: Optional[dict] = None,
    die_after: Optional[int] = None,
) -> None:
    """Subprocess entry point: a producer writing to a local spool dir."""
    store = LocalDirectoryStore(root)
    produce_session(
        store, session, program,
        seed=seed, num_shards=num_shards, sync=sync,
        batch_records=batch_records, run_kwargs=run_kwargs,
        resume=resume, die_after=die_after,
    )
