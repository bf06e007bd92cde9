"""Race detection end to end: kernel micro-programs, facade, reports.

The micro-programs run under the deterministic cooperative kernel with a
real :class:`VyrdTracer`, so the detectors consume exactly the records the
instrumentation layer produces (including spawn/join and lock events)."""

import json

import pytest

from repro import Kernel, Lock, RaceChecker, Vyrd, check_races
from repro.concurrency import SharedCell
from repro.core import Log, VyrdTracer
from repro.harness import run_program
from repro.races import (
    format_race_outcome,
    normalize_detectors,
    render_first_race,
    render_race_excerpt,
)


def _traced_kernel(seed=1):
    log = Log()
    tracer = VyrdTracer(log, level="view", log_locks=True, log_reads=True)
    return Kernel(seed=seed, tracer=tracer), log


def _racy_threads(cell):
    def body(ctx):
        value = yield cell.read()
        yield ctx.checkpoint()
        yield cell.write(value + 1)

    return body


def _locked_threads(cell, lock):
    def body(ctx):
        yield lock.acquire()
        value = yield cell.read()
        yield ctx.checkpoint()
        yield cell.write(value + 1)
        yield lock.release()

    return body


def test_racy_micro_program_is_caught_by_hb():
    kernel, log = _traced_kernel(seed=7)
    cell = SharedCell("counter", 0)
    for _ in range(2):
        kernel.spawn(_racy_threads(cell))
    kernel.run()
    outcome = check_races(log, detectors="hb")
    assert not outcome.ok
    race = outcome.races[0]
    assert race.loc == "counter"
    assert race.prior.tid != race.access.tid
    assert race.prior.seq < race.access.seq


def test_lock_protected_micro_program_is_silent():
    kernel, log = _traced_kernel(seed=7)
    cell = SharedCell("counter", 0)
    lock = Lock("guard")
    for _ in range(3):
        kernel.spawn(_locked_threads(cell, lock))
    kernel.run()
    outcome = check_races(log, detectors="both")
    assert outcome.ok, [str(r) for r in outcome.races]
    assert cell.peek() == 3


def test_dynamic_spawn_and_join_order_accesses():
    kernel, log = _traced_kernel(seed=3)
    cell = SharedCell("c", 0)

    def child(ctx):
        yield cell.write(1)

    def parent(ctx):
        yield cell.write(0)
        thread = ctx.spawn(child)
        yield ctx.join(thread)
        value = yield cell.read()
        yield cell.write(value + 1)

    kernel.spawn(parent)
    kernel.run()
    outcome = check_races(log, detectors="hb")
    assert outcome.ok, [str(r) for r in outcome.races]
    assert cell.peek() == 2


def test_unjoined_child_race_is_caught():
    kernel, log = _traced_kernel(seed=3)
    cell = SharedCell("c", 0)

    def child(ctx):
        yield cell.write(1)

    def parent(ctx):
        thread = ctx.spawn(child)  # noqa: F841 -- never joined
        yield ctx.checkpoint()
        yield cell.write(2)

    kernel.spawn(parent)
    kernel.run()
    outcome = check_races(log, detectors="hb")
    assert not outcome.ok
    assert outcome.races[0].loc == "c"


def test_run_program_buggy_reports_races_with_both_sites():
    result = run_program(
        "multiset-vector", buggy=True, num_threads=4, calls_per_thread=30,
        seed=0, races="both",
    )
    outcome = result.race_outcome
    assert not outcome.ok
    assert outcome.hb_races and outcome.lockset_races
    for race in outcome.races:
        assert race.prior.tid != race.access.tid
        assert race.prior.loc == race.access.loc == race.loc


def test_run_program_correct_is_hb_race_free():
    result = run_program(
        "multiset-vector", buggy=False, num_threads=4, calls_per_thread=20,
        seed=0, races="hb",
    )
    assert result.race_outcome.ok


def test_online_race_detection_matches_offline():
    online = run_program(
        "multiset-vector", buggy=True, num_threads=4, calls_per_thread=30,
        seed=0, races="both", online=True,
    )
    offline = check_races(online.log, detectors="both")
    pairs = lambda o: {(r.loc, r.detector, r.kind) for r in o.races}  # noqa: E731
    assert pairs(online.race_outcome) == pairs(offline)
    assert not online.race_outcome.ok


def test_vyrd_facade_check_races_requires_enabling():
    vyrd = Vyrd(spec_factory=lambda: None, mode="io")
    with pytest.raises(ValueError):
        vyrd.check_races()


def test_normalize_detectors_spellings_and_errors():
    assert normalize_detectors(True) == ("happens-before", "lockset")
    assert normalize_detectors("both") == ("happens-before", "lockset")
    assert normalize_detectors("hb") == ("happens-before",)
    assert normalize_detectors("eraser") == ("lockset",)
    assert normalize_detectors(["hb", "lockset"]) == ("happens-before", "lockset")
    with pytest.raises(ValueError):
        normalize_detectors("tsan")
    with pytest.raises(ValueError):
        normalize_detectors([])


def test_race_checker_stop_at_first():
    kernel, log = _traced_kernel(seed=7)
    cell_a, cell_b = SharedCell("a", 0), SharedCell("b", 0)

    def body(ctx):
        yield cell_a.write(1)
        yield ctx.checkpoint()
        yield cell_b.write(1)

    for _ in range(2):
        kernel.spawn(body)
    kernel.run()
    checker = RaceChecker(detectors="hb", stop_at_first=True)
    checker.feed(log)
    assert checker.stopped and checker.detected
    assert len(checker.finish().races) == 1


def test_outcome_to_dict_is_json_serializable():
    result = run_program(
        "multiset-vector", buggy=True, num_threads=4, calls_per_thread=30,
        seed=0, races="both",
    )
    payload = result.race_outcome.to_dict()
    text = json.dumps(payload)
    decoded = json.loads(text)
    assert decoded["ok"] is False
    assert decoded["detectors"] == ["happens-before", "lockset"]
    first = decoded["races"][0]
    assert {"loc", "kind", "detector", "prior", "access", "detail"} <= set(first)
    assert {"tid", "seq", "kind", "loc", "op_id", "locks"} <= set(first["prior"])


def test_reports_render_summary_and_excerpt():
    result = run_program(
        "multiset-vector", buggy=True, num_threads=4, calls_per_thread=30,
        seed=0, races="both",
    )
    outcome = result.race_outcome
    text = format_race_outcome(outcome, max_races=2)
    assert "RACES FOUND" in text
    assert "happens-before races:" in text and "lockset races:" in text
    assert "more race(s)" in text  # capped listing elides the rest

    excerpt = render_first_race(result.log, outcome)
    race = outcome.races[0]
    assert excerpt == render_race_excerpt(result.log, race, context=4)
    assert f"thread {race.prior.tid}" in excerpt
    assert f"thread {race.access.tid}" in excerpt
    assert "* marks the racing accesses" in excerpt
    # both racing rows are marked
    marked = [line for line in excerpt.splitlines() if "* | " in line]
    assert len(marked) == 2


def test_render_first_race_none_when_clean():
    result = run_program(
        "stringbuffer", buggy=False, num_threads=3, calls_per_thread=10,
        seed=2, races="both",
    )
    assert result.race_outcome.ok
    assert render_first_race(result.log, result.race_outcome) is None
    assert "RACE-FREE" in format_race_outcome(result.race_outcome)


def test_race_free_log_builds_no_access_site(monkeypatch):
    """Sites are kept as tuples: a ``both`` checker over a race-free log
    with locks and reads constructs no :class:`AccessSite` at all."""
    from repro.races import AccessSite

    log = run_program("multiset-vector", num_threads=4, calls_per_thread=6,
                      seed=0, log_locks=True, log_reads=True).log
    assert any(type(action).__name__ == "AcquireAction" for action in log)
    assert any(type(action).__name__ == "ReadAction" for action in log)
    built = []
    original = AccessSite.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AccessSite, "__init__", counting_init)
    outcome = check_races(log, detectors="both")
    assert outcome.ok and outcome.actions_processed == len(log)
    assert built == []
