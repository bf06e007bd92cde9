"""Retrying store access: timeouts, bounded backoff, typed exhaustion.

A production blob store browns out: transient 5xx-style errors, latency
spikes, short blackouts.  None of that should kill a verification session
-- the daemon's reads are idempotent (ranged GETs of immutable bytes) and
its writes (checkpoints, health, flags) are replaceable whole blobs, so
every operation is safe to retry.  :class:`RetryingStore` wraps any
:class:`~repro.serve.store.LogStore` and gives each call:

* **bounded retries** -- up to ``retries`` re-attempts after the first
  failure, paced by the one :class:`repro.concurrency.resilient.RetryPolicy`
  (exponential backoff, deterministic seeded jitter);
* **a per-operation deadline** -- ``op_timeout`` seconds across all
  attempts of one call; a retry that would start after the deadline is
  not attempted;
* **a typed terminal error** -- :class:`StoreUnavailable` (never a bare
  backend exception) once the budget is exhausted, carrying the operation
  name, attempt count and the last underlying error as ``__cause__``.

Only *transient* errors are retried (:data:`DEFAULT_RETRYABLE`): the
:class:`TransientStoreError` family a flaky backend raises, plus
connection/timeout shapes.  A missing blob (``KeyError`` /
``FileNotFoundError``) is an answer, not an outage, and passes straight
through -- tailing readers poll on exactly that distinction.
"""

from __future__ import annotations

import time
from typing import Tuple, Type

from ..concurrency.resilient import RetryPolicy
from .store import LogStore, WrappedStore


class TransientStoreError(Exception):
    """A store operation failed in a way that retrying may fix.

    The base class fault injectors (:class:`repro.faults.inject.FlakyStore`)
    and real backends' adapters raise for brownout-shaped failures: request
    throttling, transient 5xx, connection resets, blackout windows.
    """


class StoreUnavailable(Exception):
    """A store operation exhausted its retry budget.

    The one exception :class:`RetryingStore` is allowed to surface for a
    transient-failure storm; the last backend error is chained as
    ``__cause__``.
    """

    def __init__(self, op: str, name: str, attempts: int, elapsed: float,
                 last_error: BaseException):
        super().__init__(
            f"store {op}({name!r}) unavailable after {attempts} attempt(s) "
            f"in {elapsed:.3f}s: {last_error!r}"
        )
        self.op = op
        self.blob = name
        self.attempts = attempts
        self.elapsed = elapsed
        self.last_error = last_error


#: Exception types worth retrying.  Deliberately excludes ``OSError`` at
#: large: ``FileNotFoundError`` is a real answer for a blob that does not
#: exist yet, and tailing readers depend on seeing it immediately.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    TransientStoreError,
    ConnectionError,
    TimeoutError,
)


class RetryingStore(WrappedStore):
    """Wrap a :class:`LogStore` so every call retries transient failures.

    Parameters
    ----------
    inner:
        The wrapped store.
    retries:
        Re-attempts after the first failure (``retries=2`` means up to 3
        attempts per call).
    op_timeout:
        Deadline in seconds for one logical operation across all of its
        attempts; a backoff sleep never extends past it.
    backoff_base / backoff_max / seed:
        Retry pacing: ``policy``, a
        :class:`~repro.concurrency.resilient.RetryPolicy` keyed by the
        operation serial -- replayable brownout recovery.

    Only :data:`DEFAULT_RETRYABLE` errors are retried.  ``stats`` counts
    retries, giveups and total backoff seconds -- the daemon surfaces them
    on :class:`~repro.serve.daemon.ServeResult`.
    """

    def __init__(
        self,
        inner: LogStore,
        *,
        retries: int = 3,
        op_timeout: float = 10.0,
        backoff_base: float = 0.01,
        backoff_max: float = 0.25,
        seed: int = 0,
    ):
        super().__init__(inner)
        self.policy = RetryPolicy(
            max_retries=max(0, retries), backoff_base=backoff_base,
            backoff_max=backoff_max, seed=seed,
        )
        self.op_timeout = op_timeout
        self._serial = 0
        self.stats = {"calls": 0, "retries": 0, "giveups": 0,
                      "backoff_seconds": 0.0}

    def _call(self, op: str, name: str, fn, *args):
        self._serial += 1
        serial = self._serial
        self.stats["calls"] += 1
        deadline = time.monotonic() + self.op_timeout
        attempt = 0
        while True:
            try:
                return fn(*args)
            except DEFAULT_RETRYABLE as exc:
                attempt += 1
                delay = self.policy.delay(serial, attempt)
                if (
                    attempt > self.policy.max_retries
                    or time.monotonic() + delay > deadline
                ):
                    self.stats["giveups"] += 1
                    raise StoreUnavailable(
                        op, name, attempt,
                        self.op_timeout - (deadline - time.monotonic()),
                        exc,
                    ) from exc
                self.stats["retries"] += 1
                self.stats["backoff_seconds"] += delay
                time.sleep(delay)
