"""The Eraser lockset state machine (and its strict sibling)."""

from repro.core.actions import (
    AcquireAction,
    ReadAction,
    ReleaseAction,
    WriteAction,
)
from repro.core.log import Log
from repro.races import LOCKSET_DETECTOR, check_races
from repro.races.lockset import (
    ERASER,
    STRICT,
    HeldLockTracker,
    LocksetEngine,
    compute_racy_locs,
)


def _run(engine, actions):
    races = []
    for seq, action in enumerate(actions):
        race = engine.feed(seq, action)
        if race is not None:
            races.append(race)
    return races


def test_exclusive_initialization_window_never_reports():
    # one thread, no locks: Eraser's init window -- fine
    engine = LocksetEngine(discipline=ERASER)
    races = _run(engine, [
        WriteAction(0, 0, "x", None, 1),
        ReadAction(0, 0, "x"),
        WriteAction(0, 0, "x", 1, 2),
    ])
    assert races == []
    assert engine.racy_locs == set()


def test_consistent_locking_never_reports():
    engine = LocksetEngine(discipline=ERASER)
    actions = []
    for tid in (0, 1, 0, 1):
        actions.extend([
            AcquireAction(tid, tid, "l"),
            WriteAction(tid, tid, "x", None, tid),
            ReleaseAction(tid, tid, "l"),
        ])
    assert _run(engine, actions) == []


def test_unprotected_write_then_foreign_read_is_read_shared():
    engine = LocksetEngine(discipline=ERASER)
    races = _run(engine, [
        WriteAction(0, 0, "x", None, 1),
        ReadAction(1, 1, "x"),
    ])
    assert len(races) == 1
    race = races[0]
    assert race.kind == "read-shared"
    assert race.prior.tid == 0 and race.prior.kind == "write"
    assert race.access.tid == 1 and race.access.kind == "read"


def test_read_shared_silent_without_report_read_shared():
    engine = LocksetEngine(discipline=ERASER, report_read_shared=False)
    races = _run(engine, [
        WriteAction(0, 0, "x", None, 1),
        ReadAction(1, 1, "x"),
        ReadAction(2, 2, "x"),
    ])
    assert races == []


def test_pure_read_sharing_never_reports():
    # no write anywhere: many unprotected readers are fine
    engine = LocksetEngine(discipline=ERASER)
    races = _run(engine, [
        ReadAction(0, 0, "x"),
        ReadAction(1, 1, "x"),
        ReadAction(2, 2, "x"),
    ])
    assert races == []


def test_differently_locked_writes_reach_shared_modified():
    engine = LocksetEngine(discipline=ERASER)
    races = _run(engine, [
        AcquireAction(0, 0, "l0"),
        WriteAction(0, 0, "x", None, 1),
        ReleaseAction(0, 0, "l0"),
        AcquireAction(1, 1, "l1"),
        WriteAction(1, 1, "x", 1, 2),
        ReleaseAction(1, 1, "l1"),
    ])
    assert len(races) == 1
    race = races[0]
    assert race.kind == "write-write"
    assert race.detector == LOCKSET_DETECTOR
    assert {race.prior.tid, race.access.tid} == {0, 1}


def test_one_report_per_location():
    engine = LocksetEngine(discipline=ERASER)
    races = _run(engine, [
        WriteAction(0, 0, "x", None, 1),
        WriteAction(1, 1, "x", 1, 2),
        WriteAction(0, 2, "x", 2, 3),
        WriteAction(1, 3, "x", 3, 4),
    ])
    assert len(races) == 1


def test_read_mode_rw_lock_protects_reads_only():
    # readers under the r-mode lock are consistent...
    engine = LocksetEngine(discipline=ERASER)
    reads = [
        AcquireAction(0, 0, "rw", "r"),
        ReadAction(0, 0, "x"),
        ReleaseAction(0, 0, "rw", "r"),
        AcquireAction(1, 1, "rw", "r"),
        ReadAction(1, 1, "x"),
        ReleaseAction(1, 1, "rw", "r"),
    ]
    assert _run(engine, reads) == []
    # ...but a write inside an r-mode section counts as unprotected
    engine2 = LocksetEngine(discipline=ERASER)
    races = _run(engine2, [
        AcquireAction(0, 0, "rw", "r"),
        WriteAction(0, 0, "x", None, 1),
        ReleaseAction(0, 0, "rw", "r"),
        AcquireAction(1, 1, "rw", "r"),
        WriteAction(1, 1, "x", 1, 2),
        ReleaseAction(1, 1, "rw", "r"),
    ])
    assert len(races) == 1


def test_atomic_locations_are_exempt():
    engine = LocksetEngine(discipline=ERASER, atomic_locs=("blt.",))
    races = _run(engine, [
        WriteAction(0, 0, "blt.n0", None, 1),
        WriteAction(1, 1, "blt.n0", 1, 2),
    ])
    assert races == []
    assert engine.racy_locs == set()


def test_strict_discipline_matches_the_atomizer_semantics():
    # candidate refined from the first access; racy iff it drains with >1
    # accessor -- and feed never *reports* under STRICT
    log = Log([
        AcquireAction(0, 0, "l"),
        WriteAction(0, 0, "x", None, 1),
        ReleaseAction(0, 0, "l"),
        WriteAction(1, 1, "x", 1, 2),      # unprotected -> drains candidate
        WriteAction(0, 2, "only0", None, 1),
        WriteAction(0, 3, "only0", 1, 2),  # single thread: never racy
    ])
    engine = LocksetEngine(discipline=STRICT)
    assert _run(engine, log) == []
    assert engine.racy_locs == {"x"}
    assert compute_racy_locs(log, discipline=STRICT) == {"x"}


def test_held_lock_tracker_modes():
    held = HeldLockTracker()
    held.apply(AcquireAction(0, 0, "l"))
    held.apply(AcquireAction(0, 0, "rw", "r"))
    assert held.write_protection(0) == {"l"}
    assert held.read_protection(0) == {"l", "rw"}
    assert held.held(0) == frozenset({"l", "rw"})
    held.apply(ReleaseAction(0, 0, "l"))
    assert held.write_protection(0) == set()
    assert held.read_protection(0) == {"rw"}


def test_held_lock_sets_are_cached_until_the_thread_locks_again():
    """Each thread's frozen lock sets are built once and rebuilt only after
    an acquire or release by that thread."""
    held = HeldLockTracker()
    held.apply(AcquireAction(0, 0, "l"))
    zero = held.held(0)
    assert held.held(0) is zero and held.read_protection(0) is zero
    held.apply(AcquireAction(1, 1, "m"))
    held.apply(ReleaseAction(1, 1, "m"))
    assert held.held(0) is zero
    held.apply(AcquireAction(0, 0, "rw", "r"))
    assert held.held(0) == frozenset({"l", "rw"}) and held.held(0) is not zero
    assert held.write_protection(0) == {"l"}
    # a repeated acquire or a release of a lock not held changes nothing
    after = held.held(0)
    held.apply(AcquireAction(0, 0, "l"))
    held.apply(ReleaseAction(0, 0, "other"))
    assert held.held(0) is after


def test_checker_facade_runs_lockset_only():
    outcome = check_races(Log([
        WriteAction(0, 0, "x", None, 1),
        WriteAction(1, 1, "x", 1, 2),
    ]), detectors="lockset")
    assert outcome.detectors == (LOCKSET_DETECTOR,)
    assert len(outcome.lockset_races) == 1
    assert outcome.hb_races == []
