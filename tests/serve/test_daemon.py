"""ServeSession / serve_campaign: the determinism, parity and failure gates.

The load-bearing property: a session streamed through N shards, merged and
checked by the daemon -- with or without backpressure engaged -- yields the
*byte-identical* canonical-order signature and the same verdict as the
single-process, single-log run of the same program and seed.
"""

import os
import threading
import time

import pytest

from repro.core.log import log_signature
from repro.harness.runner import run_program
from repro.serve import (
    LocalDirectoryStore,
    ObjectStoreStub,
    ServeSession,
    manifest_name,
    pause_name,
    produce_session,
    serve_campaign,
    session_checkers,
    shard_name,
)

PROG = "multiset-vector"
WORKLOAD = dict(num_threads=3, calls_per_thread=10)


def direct_reference(seed, **kw):
    run = run_program(PROG, seed=seed, **{**WORKLOAD, **kw})
    return log_signature(list(run.log)), run


def serve_in_process(store, session_name, seed, num_shards=3, **session_kw):
    produce_session(
        store, session_name, PROG, seed=seed, num_shards=num_shards,
        run_kwargs=WORKLOAD, throttle=False,
    )
    session_kw.setdefault("checker_factory", session_checkers(PROG)[0])
    return ServeSession(store, session_name, num_shards, **session_kw).run()


class _Slow:
    """Delegating checker whose every ``feed`` first sleeps ``delay``
    seconds: forces the checker lag that backpressure and shedding act on."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay

    def feed(self, records):
        time.sleep(self.delay)
        return self.inner.feed(records)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def slow_checkers(delay):
    """A checker factory for ``PROG`` building :class:`_Slow` checkers."""
    checker_factory, _ = session_checkers(PROG)
    return lambda: _Slow(checker_factory(), delay)


def test_sharded_serve_matches_single_process_run():
    ref_sig, ref = direct_reference(seed=3)
    result = serve_in_process(ObjectStoreStub(), "s", seed=3)
    assert result.ok and result.complete
    assert result.signature == ref_sig
    assert result.records == len(ref.log)
    assert result.outcome.ok == ref.vyrd.check_offline().ok
    assert result.chain_ok


def test_shard_count_does_not_change_signature():
    signatures = set()
    for num_shards in (1, 2, 4):
        result = serve_in_process(
            ObjectStoreStub(), "s", seed=5, num_shards=num_shards
        )
        assert result.ok
        signatures.add(result.signature)
    assert len(signatures) == 1


class _PauseHandshake(ObjectStoreStub):
    """An object store on which the producer is sure to meet PAUSE.

    The producer's throttle checks after its first ``free_checks`` wait
    until the daemon has raised the flag, so the backlog that raises it
    comes from records already spooled, and the checkers built by
    :meth:`checkers` wait before each feed until a throttle check has found
    the flag up, so the queue cannot drain to the low watermark (where the
    flag drops) before the producer has met it.  A wait that outlasts
    ``timeout`` seconds gives up and is listed in ``stalls``: a broken
    handshake fails the test rather than hanging it.
    """

    def __init__(self, session, free_checks, timeout=20.0):
        super().__init__()
        self.flag = pause_name(session)
        self.free_checks = free_checks
        self.timeout = timeout
        self.checks = 0
        self.raised = threading.Event()
        self.met = threading.Event()
        self.stalls = []

    def set_flag(self, name):
        super().set_flag(name)
        if name == self.flag:
            self.raised.set()

    def has_flag(self, name):  # only the producer's throttle asks
        self.checks += 1
        if self.checks > self.free_checks and not self.raised.wait(self.timeout):
            self.stalls.append("the daemon never raised PAUSE")
        up = super().has_flag(name)
        if up and name == self.flag:
            self.met.set()
        return up

    def checkers(self):
        """A checker factory for ``PROG`` whose checkers wait for ``met``."""
        checker_factory, _ = session_checkers(PROG)
        return lambda: _AfterPause(checker_factory(), self)


class _AfterPause:
    """Delegating checker whose every ``feed`` first waits until the
    producer has met the PAUSE flag of its :class:`_PauseHandshake`."""

    def __init__(self, inner, handshake):
        self.inner = inner
        self.handshake = handshake

    def feed(self, records):
        handshake = self.handshake
        if not handshake.met.wait(handshake.timeout):
            handshake.stalls.append("the producer never met PAUSE")
        return self.inner.feed(records)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def test_live_backpressure_preserves_signature():
    """Producer and daemon run concurrently; a tiny queue plus a stalled
    checker forces the pause flag up, throttling the producer mid-run --
    and nothing about the history may change."""
    ref_sig, _ = direct_reference(seed=3)
    # the ninth throttle check comes after 72 appends, all of them flushed
    # in batches of 4: enough to fill the 16-record queue past its high
    # watermark while the checker waits
    store = _PauseHandshake("s", free_checks=8)
    manifests = {}

    def produce():
        manifests["m"] = produce_session(
            store, "s", PROG, seed=3, num_shards=2, batch_records=4,
            throttle=True, throttle_every=8, run_kwargs=WORKLOAD,
        )

    session = ServeSession(
        store, "s", 2, checker_factory=store.checkers(),
        queue_records=16, batch_records=4, timeout=60.0,
    )
    producer = threading.Thread(target=produce)
    producer.start()
    result = session.run()
    producer.join(60.0)
    assert not producer.is_alive()
    assert store.stalls == []
    assert result.ok, result.error
    assert result.signature == ref_sig
    assert result.stats["pause_raises"] >= 1
    assert manifests["m"]["throttle_waits"] >= 1


def test_checkpointed_session_resumes_with_identical_verdict():
    """A daemon that checkpointed, died and restarted must re-serve the
    session with the same signature and verdict, skipping already-verified
    records; a corrupted blob must fall back to record zero, still with the
    same verdict."""
    from repro.core import checkpoint_blob_name

    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    checker_factory, _ = session_checkers(PROG)

    def serve(**kw):
        return ServeSession(
            store, "s", 2, checker_factory=checker_factory, **kw
        ).run()

    first = serve(checkpoint_every=40)
    assert first.ok and first.stats["checkpoints_saved"] >= 1
    assert store.get_bytes(checkpoint_blob_name("s")) is not None

    resumed = serve(resume=True)
    assert resumed.ok
    assert resumed.stats["resumed_from_seq"] > 0
    assert resumed.signature == first.signature
    assert resumed.outcome.to_dict() == first.outcome.to_dict()

    damaged = bytearray(store.get_bytes(checkpoint_blob_name("s")))
    damaged[-1] ^= 0xFF
    store.put_bytes(checkpoint_blob_name("s"), bytes(damaged))
    fallback = serve(resume=True)
    assert fallback.ok
    assert fallback.stats["resumed_from_seq"] == 0
    assert fallback.stats["checkpoint_rejected"]
    assert fallback.outcome.to_dict() == first.outcome.to_dict()


class _CountingFeed:
    """Delegating checker that counts the records it is fed."""

    def __init__(self, inner):
        self.inner = inner
        self.fed = 0

    def feed(self, records):
        self.fed += len(records)
        return self.inner.feed(records)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_resumed_session_feeds_the_race_member_only_the_tail():
    """The checkpoint covers the race detectors too: a resumed session
    feeds them exactly the records after the resume seq, and both verdicts
    equal the uninterrupted session's."""
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2,
        run_kwargs={**WORKLOAD, "buggy": True, "log_locks": True,
                    "log_reads": True},
        throttle=False,
    )
    checker_factory, race_factory = session_checkers(PROG, races="both")
    fed = []

    def counting_races():
        member = _CountingFeed(race_factory())
        fed.append(member)
        return member

    def serve(**kw):
        return ServeSession(
            store, "s", 2, checker_factory=checker_factory,
            race_checker_factory=counting_races, batch_records=16, **kw,
        ).run()

    straight = serve(checkpoint_every=300)
    assert straight.ok and straight.stats["checkpoints_saved"] >= 1
    resumed = serve(resume=True)
    resume_seq = resumed.stats["resumed_from_seq"]
    assert resumed.ok and 0 < resume_seq < resumed.records
    assert fed[-1].fed == resumed.records - resume_seq
    assert resumed.signature == straight.signature
    assert resumed.outcome.to_dict() == straight.outcome.to_dict()
    assert resumed.race_outcome.to_dict() == straight.race_outcome.to_dict()


def test_resume_without_checkpoint_blob_starts_at_zero():
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=4, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    checker_factory, _ = session_checkers(PROG)
    result = ServeSession(
        store, "s", 2, checker_factory=checker_factory, resume=True
    ).run()
    assert result.ok
    assert result.stats["resumed_from_seq"] == 0
    assert result.stats["checkpoint_rejected"] is None


def test_campaign_forked_producers_match_reference(tmp_path):
    ref_sig, _ = direct_reference(seed=3)
    store = LocalDirectoryStore(str(tmp_path))
    report = serve_campaign(
        PROG, store, sessions=2, base_seed=3, num_shards=2, jobs=2,
        run_kwargs=WORKLOAD,
    )
    assert report.ok
    by_name = {s.session: s for s in report.sessions}
    assert by_name["run-00003"].signature == ref_sig


def test_campaign_detects_violation_like_direct_run(tmp_path):
    workload = dict(buggy=True, num_threads=4, calls_per_thread=12)
    direct = run_program(PROG, seed=7, **workload)
    direct_outcome = direct.vyrd.check_offline()
    store = LocalDirectoryStore(str(tmp_path))
    report = serve_campaign(
        PROG, store, sessions=1, base_seed=7, num_shards=2, jobs=1,
        run_kwargs=workload,
    )
    session = report.sessions[0]
    assert session.ok  # the *stream* is healthy...
    assert session.outcome.ok == direct_outcome.ok  # ...the program is not
    assert session.signature == log_signature(list(direct.log))


def test_serve_race_detection_matches_direct(tmp_path):
    workload = dict(buggy=True, num_threads=4, calls_per_thread=12)
    direct = run_program(PROG, seed=7, races="both", **workload)
    store = LocalDirectoryStore(str(tmp_path))
    report = serve_campaign(
        PROG, store, sessions=1, base_seed=7, num_shards=2, jobs=1,
        races="both", run_kwargs=workload,
    )
    session = report.sessions[0]
    assert session.race_outcome is not None
    assert (
        len(session.race_outcome.races) == len(direct.race_outcome.races)
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="samples resident memory from /proc")
def test_campaign_memory_stays_bounded(tmp_path):
    """The daemon's mean RSS over the late third of a ~5.8k-record campaign
    is at most 1.5x its mean over the early third, and stays below 1 GiB."""
    samples = []
    done = threading.Event()
    page = os.sysconf("SC_PAGE_SIZE")

    def sample():
        while not done.is_set():
            with open("/proc/self/statm") as handle:
                samples.append(int(handle.read().split()[1]) * page)
            done.wait(0.02)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        report = serve_campaign(
            PROG, LocalDirectoryStore(str(tmp_path)), sessions=4,
            num_shards=2, jobs=2,
            run_kwargs=dict(num_threads=3, calls_per_thread=150),
        )
    finally:
        done.set()
        sampler.join(timeout=5.0)
    assert report.ok and not sampler.is_alive()
    assert len(samples) >= 4
    third = len(samples) // 3
    early = sum(samples[:third]) / third
    late = sum(samples[-third:]) / third
    assert late <= 1.5 * early
    assert max(samples) < 2**30


def test_tampered_shard_fails_the_session():
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    name = shard_name("s", 0)
    body = bytearray(store.get_bytes(name))
    body[len(body) // 2] ^= 0x01
    store.put_bytes(name, bytes(body))
    checker_factory, _ = session_checkers(PROG)
    session = ServeSession(
        store, "s", 2, checker_factory=checker_factory, timeout=10.0
    )
    result = session.run()
    assert not result.ok
    assert result.error is not None and "shard 0" in result.error
    assert not result.complete


def test_clean_tail_truncation_is_detected():
    """Removing whole frames from a shard tail breaks no chain link; the
    daemon must still refuse: the merge stalls on the missing sequence
    numbers and the audit flags the manifest-head mismatch."""
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    from repro.core import ChainDecoder, verify_chain
    from repro.serve import PROLOGUE_SIZE

    name = shard_name("s", 1)
    body = store.get_bytes(name)
    decoder = ChainDecoder(shard_id=1, base_offset=PROLOGUE_SIZE)
    ends = [end for _seq, _a, end in decoder.feed(body[PROLOGUE_SIZE:])]
    assert decoder.error is None and len(ends) > 1
    # cut at the frame boundary before the last record: chain-clean removal
    store.put_bytes(name, body[: ends[-2]])
    truncated = verify_chain(store.open_read(name))
    checker_factory, _ = session_checkers(PROG)
    session = ServeSession(
        store, "s", 2, checker_factory=checker_factory, timeout=1.0
    )
    result = session.run()
    assert truncated.ok  # chain alone cannot see it...
    assert not result.ok  # ...the daemon can
    assert "timeout" in (result.error or "")


def test_producer_death_without_manifest_is_an_error():
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    store.delete(manifest_name("s"))

    class DeadProcess:
        @staticmethod
        def is_alive():
            return False

    checker_factory, _ = session_checkers(PROG)
    session = ServeSession(
        store, "s", 2, checker_factory=checker_factory, timeout=10.0
    )
    result = session.run(DeadProcess())
    assert not result.ok
    assert "without a manifest" in result.error
    assert result.records > 0  # the salvaged prefix was still merged/checked


def test_unknown_run_kwargs_rejected():
    with pytest.raises(ValueError):
        produce_session(
            ObjectStoreStub(), "s", PROG, run_kwargs={"bogus": 1}
        )


def test_producer_batch_larger_than_queue_bound_cannot_wedge():
    """A producer flush batch bigger than the whole queue bound must still
    stream through (clamped chunking + oversized-put admission), not block
    ingest until the session timeout."""
    ref_sig, _ = direct_reference(seed=2)
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=2, num_shards=2, batch_records=64,
        throttle=False, run_kwargs=WORKLOAD,
    )
    checker_factory, _ = session_checkers(PROG)
    session = ServeSession(
        store, "s", 2,
        checker_factory=checker_factory,
        queue_records=8,        # far below the producer's flush batch
        batch_records=256,      # would never fit un-clamped
        timeout=20.0,
    )
    result = session.run()
    assert result.ok and result.complete, result.error
    assert result.signature == ref_sig


def test_bounded_queue_admits_oversized_batch_when_empty():
    from repro.serve import BoundedQueue

    queue = BoundedQueue(4)
    queue.put(list(range(3)))
    done = threading.Event()

    def blocked_put():
        queue.put(list(range(9)))  # larger than the whole bound
        done.set()

    thread = threading.Thread(target=blocked_put)
    thread.start()
    assert not done.wait(0.2)      # backpressure while records are queued
    assert queue.get() == [0, 1, 2]
    assert done.wait(5.0)          # admitted once empty, not wedged
    thread.join()
    assert queue.get() == list(range(9))


def test_idle_deadline_tolerates_slow_steady_producer():
    """The session timeout is an *idle* deadline: a producer dribbling
    records in small increments, each gap well under the timeout, must not
    be killed even though the total run time far exceeds it."""
    import time

    from repro.core.log import ChainDecoder
    from repro.serve.shard import PROLOGUE_SIZE

    source = ObjectStoreStub()
    produce_session(
        source, "s", PROG, seed=3, num_shards=1, run_kwargs=WORKLOAD,
        throttle=False,
    )
    name = shard_name("s", 0)
    blob = source.get_bytes(name)
    decoder = ChainDecoder(shard_id=0, base_offset=PROLOGUE_SIZE)
    ends = [end for _seq, _action, end in decoder.feed(blob[PROLOGUE_SIZE:])]
    assert decoder.error is None and len(ends) >= 10
    manifest_blob = source.get_bytes(manifest_name("s"))

    timeout, step = 0.2, 0.05
    cuts = ends[2::3]              # reveal three frames per step
    if cuts[-1] != ends[-1]:
        cuts.append(ends[-1])
    assert len(cuts) * step > 2 * timeout  # total dribble outlasts timeout

    target = ObjectStoreStub()

    def feed():
        for cut in cuts:
            target.put_bytes(name, blob[:cut])
            time.sleep(step)
        target.put_bytes(manifest_name("s"), manifest_blob)

    checker_factory, _ = session_checkers(PROG)
    session = ServeSession(
        target, "s", 1, checker_factory=checker_factory, timeout=timeout
    )
    feeder = threading.Thread(target=feed)
    feeder.start()
    result = session.run()
    feeder.join()
    assert result.ok, result.error
    assert result.records == len(ends)


def test_truly_idle_session_still_times_out():
    """The idle deadline still fires when nothing arrives at all."""
    store = ObjectStoreStub()
    checker_factory, _ = session_checkers(PROG)
    session = ServeSession(
        store, "nothing", 1, checker_factory=checker_factory, timeout=0.2
    )
    result = session.run()
    assert not result.ok
    assert "idle timeout" in (result.error or "")


class _CrashOnce:
    """Delegating checker that raises after ``crash_at`` fed records."""

    def __init__(self, inner, crash_at):
        self.inner = inner
        self.crash_at = crash_at
        self.fed = 0

    def feed(self, records):
        self.fed += len(records)
        if self.fed >= self.crash_at:
            raise RuntimeError(f"injected checker crash at {self.fed}")
        return self.inner.feed(records)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def test_checker_crash_degrades_and_catches_up_from_checkpoint():
    """A checker crash mid-session sheds to record-only mode; the drain
    catch-up restores a fresh checker from the last checkpoint (not from
    genesis) and the verdict matches the never-degraded run."""
    ref_sig, ref = direct_reference(seed=3)
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    checker_factory, _ = session_checkers(PROG)
    armed = {"live": True}

    def factory():
        checker = checker_factory()
        if armed.pop("live", None):
            return _CrashOnce(checker, crash_at=12)
        return checker

    session = ServeSession(
        store, "s", 2, checker_factory=factory, timeout=20.0,
        batch_records=8, checkpoint_every=8,
    )
    result = session.run()
    assert result.ok, result.error
    assert result.degraded
    assert "injected checker crash" in result.stats["degraded_reason"]
    assert result.stats["catchup_from_seq"] > 0   # checkpoint, not genesis
    assert (
        result.stats["catchup_records"]
        == result.records - result.stats["catchup_from_seq"]
    )
    assert result.signature == ref_sig
    assert result.outcome.ok == ref.vyrd.check_offline().ok
    assert result.to_dict()["degraded"]


def test_checker_lag_sheds_to_record_only_and_catches_up():
    """A checker falling persistently behind the lag threshold is shed so
    ingest keeps draining; catch-up resumes the live checker from the last
    fully-verified record and the verdict is unchanged."""
    ref_sig, ref = direct_reference(seed=3)
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2, run_kwargs=WORKLOAD,
        throttle=False,
    )
    session = ServeSession(
        store, "s", 2, checker_factory=slow_checkers(0.05), timeout=20.0,
        batch_records=4, degrade_lag=8, degrade_after=0.05,
    )
    result = session.run()
    assert result.ok, result.error
    assert result.degraded
    assert "lag" in result.stats["degraded_reason"]
    assert result.stats["catchup_records"] > 0
    assert result.signature == ref_sig
    assert result.outcome.ok == ref.vyrd.check_offline().ok


def test_degraded_session_still_detects_violations():
    """Record-only shedding must not launder a real refinement violation:
    the offline catch-up re-checks everything the live checker missed."""
    ref_sig, ref = direct_reference(seed=3, buggy=True)
    store = ObjectStoreStub()
    produce_session(
        store, "s", PROG, seed=3, num_shards=2,
        run_kwargs={**WORKLOAD, "buggy": True}, throttle=False,
    )
    checker_factory, _ = session_checkers(PROG)
    armed = {"live": True}

    def factory():
        checker = checker_factory()
        if armed.pop("live", None):
            return _CrashOnce(checker, crash_at=5)
        return checker

    session = ServeSession(
        store, "s", 2, checker_factory=factory, timeout=20.0,
        batch_records=8,
    )
    result = session.run()
    assert result.degraded
    assert result.signature == ref_sig
    direct = ref.vyrd.check_offline()
    assert result.outcome.ok == direct.ok
    assert not result.outcome.ok  # the violation survived degradation


def test_queue_pressure_counters_surface_in_stats():
    store = ObjectStoreStub()
    result = serve_in_process(
        store, "s", seed=3, queue_records=8, batch_records=4,
        checker_factory=slow_checkers(0.005), timeout=20.0,
    )
    assert result.ok
    assert result.stats["queue_max_depth"] >= 1
    assert result.stats["queue_put_waits"] >= 1


def test_health_blob_published_on_completion():
    store = ObjectStoreStub()
    result = serve_in_process(store, "s", seed=3, timeout=20.0)
    assert result.ok
    from repro.serve import health_name

    health = store.get_json(health_name("s"))
    assert health is not None
    assert health["state"] == "complete"
    assert health["session"] == "s"
    assert not health["degraded"]
    assert health["ingested"] == result.records
    assert result.health == health
