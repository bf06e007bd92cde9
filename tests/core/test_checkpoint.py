"""Checkpoint format, integrity rejection, and checker save/restore parity."""

import json

import pytest

from repro.core import (
    CallAction,
    Checkpoint,
    CheckpointError,
    CommitAction,
    RefinementChecker,
    ReturnAction,
    WriteAction,
    checkpoint_blob_name,
    load_log,
)
from repro.core.checkpoint import FORMAT_VERSION, MAGIC
from repro.core.plan import CheckPlan
from repro.harness import PROGRAMS, run_program
from repro.serve import session_checkers
from repro.tools.cli import main

from test_refinement_unit import RegisterSpec, _op, register_view


def _checker():
    return RefinementChecker(
        RegisterSpec(), mode="view", impl_view=register_view()
    )


def _log(n=6):
    actions = []
    for index in range(n):
        actions.extend(
            _op(0, index, "set", (index,), True,
                seq_actions=[WriteAction(0, index, "reg", None, index)])
        )
    return actions


# -- the serialized format ---------------------------------------------------


def test_round_trip_through_bytes():
    original = Checkpoint(payload={"x": (1, 2)}, meta={"resume_seq": 7})
    restored = Checkpoint.from_bytes(original.to_bytes())
    assert restored.payload == original.payload
    assert restored.resume_seq == 7


def test_save_load_file(tmp_path):
    path = str(tmp_path / "c.vyrdckpt")
    Checkpoint(payload={"k": "v"}, meta={}).save(path)
    assert Checkpoint.load(path).payload == {"k": "v"}


def test_bad_magic_rejected():
    blob = Checkpoint(payload={}, meta={}).to_bytes()
    with pytest.raises(CheckpointError):
        Checkpoint.from_bytes(b"NOTACKPT1\n" + blob[len(MAGIC):])


def test_flipped_payload_byte_rejected_by_hash():
    blob = bytearray(Checkpoint(payload={"k": "v"}, meta={}).to_bytes())
    blob[-1] ^= 0xFF
    with pytest.raises(CheckpointError, match="hash"):
        Checkpoint.from_bytes(bytes(blob))


def test_unsupported_version_rejected():
    blob = Checkpoint(payload={}, meta={}).to_bytes()
    bumped = blob.replace(
        f'"version": {FORMAT_VERSION}'.encode(),
        f'"version": {FORMAT_VERSION + 1}'.encode(),
    )
    with pytest.raises(CheckpointError, match="version"):
        Checkpoint.from_bytes(bumped)


def test_truncated_blob_rejected():
    blob = Checkpoint(payload={"k": "v"}, meta={}).to_bytes()
    with pytest.raises(CheckpointError):
        Checkpoint.from_bytes(blob[: len(blob) // 2])


def test_missing_file_is_typed_error(tmp_path):
    with pytest.raises(CheckpointError):
        Checkpoint.load(str(tmp_path / "nope.vyrdckpt"))


def test_blob_name_is_per_session():
    assert checkpoint_blob_name("run-7") == "run-7/CHECKPOINT.vyrdckpt"


# -- checker save/restore ----------------------------------------------------


def test_checkpoint_mid_log_resume_matches_straight_run():
    log = _log(8)
    straight = _checker()
    straight.feed(log)
    expected = straight.finish().to_dict()

    cut = len(log) // 2
    first = _checker()
    first.feed(log[:cut])
    checkpoint = Checkpoint.from_bytes(first.checkpoint().to_bytes())

    resumed = _checker()
    resumed.restore(checkpoint)
    assert checkpoint.resume_seq == cut
    resumed.feed(log[checkpoint.resume_seq:])
    assert resumed.finish().to_dict() == expected


def test_restore_requires_fresh_checker():
    first = _checker()
    first.feed(_log(2))
    checkpoint = first.checkpoint()
    used = _checker()
    used.feed(_log(1))
    with pytest.raises(CheckpointError, match="fresh"):
        used.restore(checkpoint)


def test_restore_rejects_mismatched_configuration():
    view_checker = _checker()
    view_checker.feed(_log(2))
    checkpoint = view_checker.checkpoint()
    io_checker = RefinementChecker(RegisterSpec(), mode="io")
    with pytest.raises(CheckpointError, match="config"):
        io_checker.restore(checkpoint)


def test_version_one_checkpoint_is_rejected_and_check_falls_back(tmp_path, capsys):
    """Format 2 added the per-unit invariant state.  A version-1 checkpoint
    lacks it, so it must be refused with the typed error -- never a
    ``KeyError``, never a restore with an empty unit index -- and ``check
    --resume`` falls back to record zero with the straight verdict."""
    log_path = str(tmp_path / "cache.vlog")
    main(["run", "--program", "cache", "--buggy", "--threads", "4",
          "--calls", "30", "--seed", "3", "--save", log_path])
    capsys.readouterr()
    make_checker, _ = session_checkers("cache", stop_at_first=False)
    first = make_checker()
    first.feed(list(load_log(log_path))[:500])
    checkpoint = first.checkpoint(meta={"program": "cache"})
    assert checkpoint.payload["unit_invariants"]

    # the version-1 header is refused before the payload is read
    version_one = checkpoint.to_bytes().replace(
        f'"version": {FORMAT_VERSION}'.encode(), b'"version": 1'
    )
    with pytest.raises(CheckpointError, match="version"):
        Checkpoint.from_bytes(version_one)
    # a version-1 payload fails the configuration check, not with KeyError
    payload = dict(checkpoint.payload)
    del payload["unit_invariants"]
    payload["config"] = dict(payload["config"])
    del payload["config"]["unit_invariants"]
    with pytest.raises(CheckpointError, match="config"):
        make_checker().restore(Checkpoint(payload=payload, meta=checkpoint.meta))

    stale = tmp_path / "v1.vyrdckpt"
    stale.write_bytes(version_one)
    assert main(["check", log_path, "--program", "cache", "--all",
                 "--json"]) == 1
    straight = json.loads(capsys.readouterr().out)
    assert main(["check", log_path, "--program", "cache", "--all",
                 "--resume", str(stale), "--json"]) == 1
    fallback = json.loads(capsys.readouterr().out)
    resume = fallback.pop("resume")
    assert resume["resume_seq"] == 0 and "version" in resume["rejected"]
    assert fallback == straight


def _assert_older_version_is_rejected(version, tmp_path, capsys):
    """A blob of an older format ``version`` is refused with the typed
    error, and ``check --resume`` falls back to record zero with the
    straight verdict."""
    log_path = str(tmp_path / "mv.vlog")
    ckpt = tmp_path / "mv.vyrdckpt"
    main(["run", "--program", "multiset-vector", "--threads", "3",
          "--calls", "10", "--seed", "2", "--save", log_path])
    capsys.readouterr()
    check = ["check", log_path, "--program", "multiset-vector", "--json"]
    assert main([*check, "--checkpoint", str(ckpt)]) == 0
    straight = json.loads(capsys.readouterr().out)
    ckpt.write_bytes(ckpt.read_bytes().replace(
        f'"version": {FORMAT_VERSION}'.encode(), f'"version": {version}'.encode()
    ))
    with pytest.raises(CheckpointError, match=f"version {version}"):
        Checkpoint.load(str(ckpt))
    assert main([*check, "--resume", str(ckpt)]) == 0
    fallback = json.loads(capsys.readouterr().out)
    resume = fallback.pop("resume")
    assert resume["resume_seq"] == 0 and "version" in resume["rejected"]
    assert fallback == straight


def test_version_two_checkpoint_is_rejected_and_check_falls_back(tmp_path, capsys):
    """Format 3 holds one entry per checker of the plan; a version-2 blob
    holds a refinement checker's payload alone."""
    _assert_older_version_is_rejected(2, tmp_path, capsys)


def test_version_three_checkpoint_is_rejected_and_check_falls_back(tmp_path, capsys):
    """Format 4 changed the race detectors' pickled state."""
    _assert_older_version_is_rejected(3, tmp_path, capsys)


def test_version_four_checkpoint_is_rejected_and_check_falls_back(tmp_path, capsys):
    """Format 5 dropped ``final_full_check`` from the refinement checker's
    configuration fingerprint."""
    _assert_older_version_is_rejected(4, tmp_path, capsys)


def test_race_checkpoint_between_the_two_sites_of_a_race():
    """A ``races="both"`` plan checkpointed mid-log, between the two access
    sites of the first race, resumes to the uninterrupted run's report:
    the site kept before the cut survives the checkpoint."""
    log = list(run_program(
        "multiset-vector", buggy=True, num_threads=4, calls_per_thread=6,
        seed=0, log_locks=True, log_reads=True,
    ).log)
    plan = CheckPlan(races="both",
                     atomic_locs=tuple(PROGRAMS["multiset-vector"].atomic_locs))
    straight = plan.check(log).races
    first = straight.races[0]
    cut = first.access.seq
    assert first.prior.seq < cut
    before = plan.checker()
    before.feed(log[:cut])
    checkpoint = Checkpoint.from_bytes(before.checkpoint().to_bytes())
    assert checkpoint.resume_seq == cut
    resumed = plan.checker()
    resumed.restore(checkpoint)
    resumed.feed(log[cut:])
    assert resumed.finish().races.to_dict() == straight.to_dict()


def test_checkpoint_preserves_buffered_lookahead():
    """A checkpoint taken while a commit is waiting for its return must
    carry the buffered actions: the resumed checker sees the return first."""
    log = (
        [CallAction(0, 0, "set", (1,)),
         WriteAction(0, 0, "reg", None, 1),
         CommitAction(0, 0)]          # buffered: return not yet seen
        + [ReturnAction(0, 0, "set", True)]
    )
    first = _checker()
    first.feed(log[:3])
    checkpoint = Checkpoint.from_bytes(first.checkpoint().to_bytes())
    resumed = _checker()
    resumed.restore(checkpoint)
    resumed.feed(log[3:])
    outcome = resumed.finish()
    assert outcome.ok
    assert outcome.commits_executed == 1


# -- bounded memory (the _ops/_returns leak regression) ----------------------


def test_op_bookkeeping_stays_bounded_over_long_logs():
    """Completed executions must be dropped from the op/return indices;
    before the fix both dicts grew with every execution ever checked."""
    checker = _checker()
    for index in range(500):
        checker.feed(
            _op(0, index, "set", (index,), True,
                seq_actions=[WriteAction(0, index, "reg", index - 1 if index else None, index)])
        )
        assert len(checker._ops) == 0
        assert len(checker._returns) == 0
    # an execution mid-flight is the only thing allowed to occupy a slot
    checker.feed([CallAction(0, 999, "set", (1,))])
    assert len(checker._ops) == 1
