"""The end-to-end fault campaign and its CLI/benchmark surfaces."""

import json
import multiprocessing

import pytest

from repro.faults import FaultPlan, run_fault_campaign
from repro.tools.cli import main

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault campaigns need fork-start workers",
)


@pytest.fixture(scope="module")
def report():
    return run_fault_campaign(
        seed=7, jobs=2, num_runs=12, timeout=1.5, backoff_base=0.01
    )


def test_campaign_survives_and_matches_serial(report):
    assert report.signatures_match
    assert report.baseline_signature == report.faulted_signature
    assert report.interruptions  # the plan's crash/hang actually fired


def test_campaign_salvages_every_corruption(report):
    assert report.recovery_ok and report.chain_ok
    # one entry of each per planned log fault: a tear, a bit flip, a splice
    planned = [f["kind"] for f in report.plan["faults"]
               if f["kind"] in ("torn_log", "bitflip_log", "splice_log")]
    assert sorted(planned) == ["bitflip_log", "splice_log", "torn_log"]
    assert len(report.recoveries) == len(report.chain_checks) == 3
    for entry in report.chain_checks:
        assert entry["ok"] and entry["detected"] and entry["prefix_exact"]
    for entry in report.recoveries:
        assert entry["ok"]
        assert entry["prefix_exact"]
        # damaged streams report where parsing stopped
        if not entry["complete"]:
            assert entry["error_offset"] is not None
            assert entry["cause"]


def test_campaign_latency_injection_is_schedule_invariant(report):
    assert report.tracer_log_identical is True


def test_campaign_checkpoint_round_kill_resume_identity(report):
    assert report.checkpoint_ok
    # clean and seeded-bug variants both exercised
    assert [entry["buggy"] for entry in report.checkpoint_checks] == [False, True]
    for entry in report.checkpoint_checks:
        assert entry["resumed_identical"]
        assert entry["corrupt_rejected"] and "hash" in entry["rejection"]
        assert entry["fallback_identical"]
    # the buggy variant actually produced a violating verdict to compare
    assert report.checkpoint_checks[1]["verdict_ok"] is False


def test_campaign_linz_verdict_stable_under_recovery(report):
    # the annotation-free linearizability verdict on every salvaged prefix
    # equals the verdict on the same pristine prefix
    assert report.linz_ok
    assert report.linz_checks  # the tear + bitflip corruptions, at least
    for entry in report.linz_checks:
        assert entry["verdict_stable"]
        assert entry["salvaged_records"] > 0
    assert report.to_dict()["linz_ok"] is True


def test_campaign_report_round_trips_to_json(report):
    assert report.ok
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert payload["signatures_match"] is True
    assert payload["plan"]["seed"] == 7
    assert payload["incidents"]
    assert payload["overhead"] is None or payload["overhead"] > 0


def test_explicit_plan_replays(report):
    # rebuilding the plan from the report's JSON reproduces the campaign
    from repro.faults import Fault

    plan = FaultPlan(
        seed=report.plan["seed"],
        faults=tuple(
            Fault(kind=f["kind"], task=f["task"], frac=f["frac"],
                  bit=f["bit"], seconds=f["seconds"], every=f["every"])
            for f in report.plan["faults"]
        ),
    )
    replay = run_fault_campaign(
        seed=7, plan=plan, jobs=2, num_runs=12, timeout=1.5,
        backoff_base=0.01,
    )
    assert replay.ok
    assert replay.baseline_signature == report.baseline_signature


def test_cli_faults_json(capsys):
    code = main([
        "faults", "--seed", "7", "--jobs", "2", "--seeds", "12",
        "--timeout", "1.5", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["signatures_match"] is True
    assert payload["recovery_ok"] is True
    assert payload["seconds"] > 0


def test_cli_faults_human_output_and_plan_replay(tmp_path, capsys):
    code = main([
        "faults", "--seed", "3", "--jobs", "2", "--seeds", "12",
        "--timeout", "1.5", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(payload["plan"]))
    code = main([
        "faults", "--seed", "3", "--plan", str(plan_path), "--jobs", "2",
        "--seeds", "12", "--timeout", "1.5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "survived" in out
    assert "verdict: OK" in out
    assert "recovery [ok]" in out


def test_bench_fault_soak_smoke(tmp_path, capsys):
    import importlib.util
    import os

    bench_path = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks",
        "bench_fault_soak.py",
    )
    spec = importlib.util.spec_from_file_location("bench_fault_soak", bench_path)
    bench_fault_soak = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_fault_soak)

    out_path = tmp_path / "BENCH_fault_soak.json"
    code = bench_fault_soak.main(["--smoke", "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["benchmark"] == "fault_soak"
    assert report["all_ok"] is True
    assert report["campaigns_diverged"] == 0
    assert report["recoveries_failed"] == 0
    assert len(report["rows"]) == 2
    assert report["serve_verdict_divergences"] == 0
    assert report["restarts_bounded"] is True
    assert report["producer_restarts_total"] >= len(report["rows"])
    assert report["store_giveups_total"] == 0
    assert report["store_retries_total"] > 0


def test_campaign_producer_kill_round_restart_identity(report):
    assert report.producer_kill_ok
    assert [e["buggy"] for e in report.producer_kill_checks] == [False, True]
    for entry in report.producer_kill_checks:
        assert entry["ok"]
        assert entry["stream_ok"]
        assert 1 <= entry["restarts"] <= 2  # bounded: restarted, not flailing
        assert not entry["gave_up"]
        assert entry["signature_identical"]
        assert entry["verdict_identical"]
        assert 1 <= entry["kill_after"] < entry["records"]
    # the buggy variant's violation survived the mid-session death
    assert report.producer_kill_checks[1]["verdict_ok"] is False


def test_campaign_store_brownout_absorbed_by_retry(report):
    assert report.brownout_ok
    for entry in report.brownout_checks:
        assert entry["ok"]
        assert entry["injected_failures"] > 0   # the brownout actually bit
        assert entry["retries_absorbed"] > 0    # and the wrapper absorbed it
        assert entry["giveups"] == 0
        assert entry["signature_identical"]
        assert entry["verdict_identical"]


def test_campaign_degraded_catchup_verdict_identity(report):
    assert report.catchup_ok
    for entry in report.catchup_checks:
        assert entry["ok"]
        assert entry["degraded"]
        assert "checker" in (entry["degraded_reason"] or "")
        assert entry["catchup_records"] > 0
        assert entry["signature_identical"]
        assert entry["verdict_identical"]


def test_campaign_new_rounds_round_trip_and_gate_ok(report):
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["producer_kill_ok"] is True
    assert payload["brownout_ok"] is True
    assert payload["catchup_ok"] is True
    assert len(payload["producer_kill_checks"]) == 2
    assert len(payload["brownout_checks"]) == 2
    assert len(payload["catchup_checks"]) == 2
