"""RetryingStore: bounded retries, typed exhaustion, pass-through answers.

Also the one backoff: the pool, the producer supervisor and the retrying
store all wait :meth:`RetryPolicy.delay`.
"""

import random

import pytest

from repro.concurrency import RetryPolicy
from repro.serve import (
    LocalDirectoryStore,
    ObjectStoreStub,
    ProducerSupervisor,
    RetryingStore,
    StoreUnavailable,
    TransientStoreError,
)


class ScriptedFlaky(ObjectStoreStub):
    """An in-memory store whose next N ops raise a chosen exception."""

    def __init__(self):
        super().__init__()
        self.fail_next = 0
        self.exc = TransientStoreError
        self.calls = 0

    def _trip(self):
        self.calls += 1
        if self.fail_next > 0:
            self.fail_next -= 1
            raise self.exc("scripted failure")

    def size(self, name):
        self._trip()
        return super().size(name)

    def put_bytes(self, name, data):
        self._trip()
        return super().put_bytes(name, data)

    def read_range(self, name, start, end=None):
        self._trip()
        return super().read_range(name, start, end)


def retrying(inner, **kw):
    kw.setdefault("retries", 3)
    kw.setdefault("backoff_base", 0.001)
    kw.setdefault("backoff_max", 0.005)
    return RetryingStore(inner, **kw)


def test_transient_failures_absorbed_within_budget():
    inner = ScriptedFlaky()
    store = retrying(inner)
    inner.fail_next = 2
    store.put_bytes("a", b"payload")
    assert store.read_range("a", 0, None) == b"payload"
    assert store.stats["retries"] == 2
    assert store.stats["giveups"] == 0


def test_exhaustion_raises_typed_store_unavailable():
    inner = ScriptedFlaky()
    store = retrying(inner, retries=2)
    inner.put_bytes("a", b"x")  # bypass the wrapper for setup
    inner.fail_next = 10
    with pytest.raises(StoreUnavailable) as info:
        store.size("a")
    err = info.value
    assert err.op == "size" and err.blob == "a"
    assert err.attempts == 3  # first try + 2 retries
    assert isinstance(err.__cause__, TransientStoreError)
    assert store.stats["giveups"] == 1


def test_never_leaks_bare_backend_exception_on_retryable_kinds():
    inner = ScriptedFlaky()
    inner.exc = ConnectionError
    inner.fail_next = 99
    store = retrying(inner, retries=1)
    with pytest.raises(StoreUnavailable):
        store.put_bytes("a", b"x")


def test_missing_blob_answers_pass_through_unretried():
    """FileNotFoundError/KeyError are answers tailing readers poll on --
    they must surface immediately, not burn the retry budget."""

    class MissingBlobStore(ObjectStoreStub):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def read_range(self, name, start, end=None):
            self.calls += 1
            raise FileNotFoundError(name)

    inner = MissingBlobStore()
    store = retrying(inner)
    with pytest.raises(FileNotFoundError):
        store.read_range("nope", 0, None)
    assert inner.calls == 1
    assert store.stats["retries"] == 0


def test_op_deadline_bounds_the_retry_loop():
    inner = ScriptedFlaky()
    inner.fail_next = 99
    store = retrying(
        inner, retries=50, op_timeout=0.02,
        backoff_base=0.01, backoff_max=0.01,
    )
    with pytest.raises(StoreUnavailable):
        store.size("a")
    assert inner.calls < 10  # the deadline, not the retry count, stopped it


def test_wrapped_store_serves_sessions_identically():
    """A RetryingStore over a clean store is observationally invisible to
    the daemon: same signature, same verdict."""
    from repro.serve import ServeSession, produce_session, session_checkers

    inner = ObjectStoreStub()
    produce_session(
        inner, "s", "multiset-vector", seed=3, num_shards=2,
        run_kwargs=dict(num_threads=3, calls_per_thread=10), throttle=False,
    )
    checker_factory, _ = session_checkers("multiset-vector")

    def serve(store):
        return ServeSession(
            store, "s", 2, checker_factory=checker_factory, timeout=20.0
        ).run()

    bare = serve(inner)
    wrapped = serve(retrying(inner))
    assert bare.ok and wrapped.ok
    assert wrapped.signature == bare.signature
    assert wrapped.outcome.to_dict() == bare.outcome.to_dict()
    assert "store" in wrapped.stats and "store" not in bare.stats


def test_every_retry_delay_is_the_one_seeded_backoff(tmp_path):
    """Every retrying layer waits the one seeded backoff, bit for bit:
    ``base`` doubled per attempt up to ``cap``, stretched by up to 50%
    jitter drawn from ``seed``, ``key`` and the attempt number."""

    def oracle(base, cap, seed, key, n):
        jitter = random.Random(f"{seed}:{key}:{n}").random()
        return min(cap, base * 2.0 ** (n - 1)) * (1 + 0.5 * jitter)

    store = LocalDirectoryStore(str(tmp_path))
    for seed in (0, 7):
        layers = [
            (RetryPolicy(seed=seed), 0.05, 1.0),
            (RetryingStore(ObjectStoreStub(), seed=seed).policy, 0.01, 0.25),
            (ProducerSupervisor(
                store, "s", "multiset-vector", seed, 2).policy, 0.05, 1.0),
        ]
        for policy, base, cap in layers:
            for key in (0, 3, "restart"):
                for n in range(1, 7):  # the cap binds at n = 6
                    assert policy.delay(key, n) == oracle(
                        base, cap, seed, key, n
                    ), (policy, key, n)
    with pytest.raises(ValueError):
        ProducerSupervisor(
            store, "s", "multiset-vector", 0, 2,
            policy=RetryPolicy(timeout=1.0),
        )
