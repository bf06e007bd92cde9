"""The command-line interface: run/check/trace/witness round trips."""

import pytest

from repro.tools.cli import main


def test_programs_listing(capsys):
    assert main(["programs"]) == 0
    out = capsys.readouterr().out
    assert "multiset-vector" in out
    assert "Moving acquire in FindSlot" in out


def test_run_correct_program_exits_zero(capsys):
    code = main([
        "run", "--program", "multiset-tree", "--threads", "2",
        "--calls", "10", "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_run_buggy_program_exits_nonzero(capsys):
    # seed known (from the test below) to trigger; search a few to be safe
    for seed in range(20):
        code = main([
            "run", "--program", "multiset-vector", "--buggy",
            "--threads", "4", "--calls", "30", "--seed", str(seed),
        ])
        if code == 1:
            out = capsys.readouterr().out
            assert "FAIL" in out
            return
        capsys.readouterr()
    pytest.fail("no seed triggered the bug via the CLI")


def test_save_check_trace_witness_round_trip(tmp_path, capsys):
    log_path = str(tmp_path / "run.vyrdlog")
    main([
        "run", "--program", "stringbuffer", "--threads", "3",
        "--calls", "12", "--seed", "4", "--save", log_path,
    ])
    capsys.readouterr()

    assert main(["check", log_path, "--program", "stringbuffer"]) == 0
    assert "PASS" in capsys.readouterr().out

    assert main(["check", log_path, "--program", "stringbuffer",
                 "--mode", "io"]) == 0
    capsys.readouterr()

    assert main(["trace", log_path, "--max-rows", "10"]) == 0
    out = capsys.readouterr().out
    assert "thread 0" in out

    assert main(["witness", log_path]) == 0
    assert "witness interleaving" in capsys.readouterr().out


def test_check_detects_bug_in_saved_log(tmp_path, capsys):
    log_path = str(tmp_path / "buggy.vyrdlog")
    for seed in range(20):
        code = main([
            "run", "--program", "multiset-vector", "--buggy",
            "--threads", "4", "--calls", "30", "--seed", str(seed),
            "--save", log_path,
        ])
        capsys.readouterr()
        if code == 1:
            break
    else:
        pytest.fail("bug not triggered")
    assert main(["check", log_path, "--program", "multiset-vector"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    # --all collects at least as many violations
    assert main(["check", log_path, "--program", "multiset-vector", "--all"]) == 1


def test_online_flag(capsys):
    code = main([
        "run", "--program", "java-vector", "--threads", "3",
        "--calls", "10", "--seed", "2", "--online",
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_atomicity_flag_reports_baseline(capsys):
    code = main([
        "run", "--program", "multiset-vector", "--threads", "3",
        "--calls", "15", "--seed", "2", "--atomicity",
    ])
    out = capsys.readouterr().out
    assert code == 0          # refinement passes on the correct program
    assert "atomicity baseline:" in out
    assert "non-atomic" in out  # ...but reduction fails (section 8)


def test_check_json_output(tmp_path, capsys):
    import json

    log_path = str(tmp_path / "run.vyrdlog")
    main([
        "run", "--program", "multiset-tree", "--threads", "2",
        "--calls", "10", "--seed", "1", "--save", log_path,
    ])
    capsys.readouterr()
    code = main(["check", log_path, "--program", "multiset-tree", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["well_formed"] is True
    assert payload["violations"] == []
    assert payload["methods_checked"] > 0


def test_check_json_includes_problem_strings(tmp_path, capsys):
    import json

    log_path = str(tmp_path / "buggy.vyrdlog")
    for seed in range(20):
        code = main([
            "run", "--program", "multiset-vector", "--buggy",
            "--threads", "4", "--calls", "30", "--seed", str(seed),
            "--save", log_path,
        ])
        capsys.readouterr()
        if code == 1:
            break
    else:
        pytest.fail("bug not triggered")
    code = main(["check", log_path, "--program", "multiset-vector", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    # every violation carries its human-readable problem string
    assert payload["violations"]
    for violation in payload["violations"]:
        assert isinstance(violation["problem"], str) and violation["problem"]
    # well-formedness problems are always present (strings, empty when clean)
    assert payload["well_formedness_problems"] == []
    assert payload["well_formed"] is True


def test_run_with_races_on_buggy_program(capsys):
    code = main([
        "run", "--program", "multiset-vector", "--buggy",
        "--threads", "4", "--calls", "30", "--seed", "0", "--races",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "race detection (both)" in out
    assert "RACES FOUND" in out
    assert "* marks the racing accesses" in out  # Fig. 6-style excerpt


def test_run_with_races_on_correct_program_is_clean(capsys):
    code = main([
        "run", "--program", "stringbuffer", "--threads", "3",
        "--calls", "10", "--seed", "2", "--races", "hb",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "RACE-FREE" in out


def test_run_races_uses_program_atomic_locs(capsys):
    # blinktree's lock-free descents are cache-mediated in real Boxwood;
    # the registry marks blt.* atomic, so no false alarms
    code = main([
        "run", "--program", "blinktree", "--threads", "3",
        "--calls", "12", "--seed", "3", "--races",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "RACE-FREE" in out


def test_races_subcommand_and_json(tmp_path, capsys):
    import json

    log_path = str(tmp_path / "racy.vyrdlog")
    main([
        "run", "--program", "multiset-vector", "--buggy",
        "--threads", "4", "--calls", "30", "--seed", "0", "--races",
        "--save", log_path,
    ])
    capsys.readouterr()

    assert main(["races", log_path]) == 1
    out = capsys.readouterr().out
    assert "RACES FOUND" in out and "* marks the racing accesses" in out

    code = main(["races", log_path, "--detector", "hb", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["detectors"] == ["happens-before"]
    assert payload["races"] and payload["racy_locs"]
    # the shared --json plumbing attaches well-formedness here too
    assert payload["well_formed"] is True
    assert payload["well_formedness_problems"] == []


def test_races_subcommand_atomic_prefix(tmp_path, capsys):
    log_path = str(tmp_path / "blt.vyrdlog")
    main([
        "run", "--program", "blinktree", "--threads", "3",
        "--calls", "12", "--seed", "3", "--races", "--save", log_path,
    ])
    capsys.readouterr()
    # a saved log knows nothing of the program: without the prefix the
    # lock-free descents look racy, with it the run is clean
    assert main(["races", log_path]) == 1
    capsys.readouterr()
    assert main(["races", log_path, "--atomic-prefix", "blt."]) == 0
    assert "RACE-FREE" in capsys.readouterr().out


def test_check_damaged_log_strict_vs_recover(tmp_path, capsys):
    import json

    log_path = str(tmp_path / "run.vyrdlog")
    main([
        "run", "--program", "multiset-vector", "--threads", "2",
        "--calls", "5", "--seed", "3", "--save", log_path,
    ])
    capsys.readouterr()
    # tear the tail off: strict check refuses with a typed diagnosis...
    with open(log_path, "rb") as handle:
        data = handle.read()
    with open(log_path, "wb") as handle:
        handle.write(data[: int(len(data) * 0.6)])
    assert main(["check", log_path, "--program", "multiset-vector"]) == 2
    err = capsys.readouterr().err
    assert "corrupt log stream at byte" in err
    assert "--recover" in err
    # ...the JSON form carries the offset as data...
    assert main(["check", log_path, "--program", "multiset-vector",
                 "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["error_type"] == "LogFormatError"
    assert isinstance(payload["offset"], int)
    # ...and --recover checks the salvaged prefix instead
    code = main(["check", log_path, "--program", "multiset-vector",
                 "--recover", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["recovery"]["complete"] is False
    assert payload["recovery"]["records"] > 0
    assert payload["recovery"]["error_offset"] is not None


def test_check_recover_on_intact_log_reports_complete(tmp_path, capsys):
    import json

    log_path = str(tmp_path / "run.vyrdlog")
    main([
        "run", "--program", "multiset-tree", "--threads", "2",
        "--calls", "5", "--seed", "1", "--save", log_path,
    ])
    capsys.readouterr()
    code = main(["check", log_path, "--program", "multiset-tree",
                 "--recover", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["recovery"]["complete"] is True
    assert payload["recovery"]["error_offset"] is None


def test_explore_swarm_json(capsys):
    import json

    code = main([
        "explore", "--program", "bounded-queue", "--mode", "swarm",
        "--seeds", "4", "--jobs", "1", "--threads", "2", "--calls", "3",
        "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["num_runs"] == 4
    assert payload["requested"] == 4 and payload["skipped"] == 0
    assert payload["num_failures"] == 0
    assert payload["mode"] == "swarm" and payload["jobs"] == 1
    assert payload["runs_per_sec"] > 0
    assert payload["outcomes"]


def test_explore_stop_on_failure_reports_skipped(capsys):
    import json

    # seeds 0..19 include a bug-triggering schedule (see the `run` test above)
    code = main([
        "explore", "--program", "multiset-vector", "--buggy",
        "--seeds", "20", "--threads", "4", "--calls", "30",
        "--stop-on-failure", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["num_failures"] == 1
    assert payload["failures"][0]["error_type"] == "RefinementViolation"
    assert payload["requested"] == 20
    assert payload["skipped"] == 20 - payload["num_runs"]


def test_explore_exhaustive_budget_human_output(capsys):
    code = main([
        "explore", "--program", "multiset-vector", "--mode", "exhaustive",
        "--max-runs", "3", "--threads", "2", "--calls", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "budget reached" in out
    assert "3 runs" in out


def test_explore_reduce_static_json_accounting(capsys):
    import json

    common = [
        "explore", "--program", "blinktree", "--mode", "exhaustive",
        "--no-daemons", "--threads", "2", "--calls", "1",
        "--workload-seed", "7", "--max-runs", "2000", "--fingerprint",
        "--json",
    ]
    assert main(common) == 0
    base = json.loads(capsys.readouterr().out)
    assert main(common + ["--reduce", "static"]) == 0
    red = json.loads(capsys.readouterr().out)
    assert base["exhausted"] and red["exhausted"]
    assert red["reduce"] == "static" and base["reduce"] is None
    assert red["num_runs"] < base["num_runs"]
    assert red["pruned"] > 0 and red["skipped"] == red["pruned"]
    assert red["requested"] == red["num_runs"] + red["skipped"]
    # identical coverage: same distinct HB fingerprints
    assert set(red["outcomes"]) == set(base["outcomes"])


def test_explore_reduce_static_human_output(capsys):
    code = main([
        "explore", "--program", "blinktree", "--mode", "exhaustive",
        "--reduce", "static", "--no-daemons", "--threads", "2",
        "--calls", "1", "--workload-seed", "7", "--max-runs", "2000",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "static reduction cut" in out
    assert "schedule space exhausted" in out


def test_explore_reduce_requires_exhaustive_mode():
    from repro.harness import explore_program

    with pytest.raises(ValueError, match="exhaustive"):
        explore_program("blinktree", mode="swarm", reduce="static",
                        num_runs=2)


@pytest.mark.parametrize("mode", [[], ["--mode", "swarm"]])
def test_explore_reduce_without_exhaustive_mode_is_a_usage_error(capsys, mode):
    code = main([
        "explore", "--program", "blinktree", "--reduce", "static",
        "--seeds", "2", *mode,
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["error: --reduce static requires --mode exhaustive"]


# -- the analyze subcommand --------------------------------------------------


def test_analyze_human_output_and_matrix(capsys):
    assert main(["analyze", "blinktree"]) == 0
    out = capsys.readouterr().out
    assert "class BLinkTree" in out
    assert "lookup (observer)" in out
    assert "independence matrix" not in out

    assert main(["analyze", "blinktree", "--matrix"]) == 0
    out = capsys.readouterr().out
    assert "lookup x lookup  independent" in out
    assert "insert x lookup  dependent" in out


def test_analyze_json_schema(capsys):
    import json

    assert main(["analyze", "multiset-vector", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "VectorMultiset"
    assert set(payload["operations"]) == {
        "insert", "insert_pair", "delete", "lookup",
    }
    for cell in payload["matrix"].values():
        assert cell["verdict"] in ("independent", "conditional", "dependent")
        assert cell["reason"]
    assert payload["incomplete_operations"] == []


def test_analyze_text_paths_match_json(capsys):
    """Every footprint path the text prints is one the JSON prints."""
    import json

    assert main(["analyze", "blinktree", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["analyze", "blinktree"]) == 0
    out = capsys.readouterr().out
    labels = {"reads": "reads", "writes": "writes",
              "hidden writes": "hidden_writes", "locks": "locks"}
    printed = 0
    op = None
    for line in out.splitlines():
        text = line.strip()
        if line.startswith("  ") and not line.startswith("    "):
            op = text.split(" ")[0]
            continue
        label, _, items = text.partition(": ")
        if label not in labels:
            continue
        expected = payload["operations"][op][labels[label]]
        assert items.split(", ") == expected, (op, label)
        printed += len(expected)
    assert printed and "[*]" in out and ".[*]" not in out


def test_analyze_flags_incomplete_operations(capsys):
    assert main(["analyze", "scanfs"]) == 0
    out = capsys.readouterr().out
    assert "[INCOMPLETE]" in out
    assert "incomplete at line" in out


# -- the lint subcommand and the run --lint pre-flight -----------------------


def test_lint_every_registry_program_is_clean(capsys):
    from repro.harness.workload import PROGRAMS

    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    for name in PROGRAMS:
        assert f"{name}: clean" in out


def test_lint_json_schema(capsys):
    import json

    from repro.harness.workload import PROGRAMS

    code = main(["lint", "--json", "--fail-on", "error"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["fail_on"] == "error"
    assert set(payload["programs"]) == set(PROGRAMS)
    assert payload["findings"] == 0
    assert payload["gating_findings"] == 0


def test_lint_program_and_rule_filters(capsys):
    import json

    code = main([
        "lint", "--program", "multiset-tree", "--rule", "vy005",
        "--rule", "VY001", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(payload["programs"]) == ["multiset-tree"]


def test_lint_unknown_rule_exits_two(capsys):
    assert main(["lint", "--rule", "VY999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err and "VY999" in err


def _broken_lint_program():
    """A registry entry whose implementation fails static lint.

    The class lives in this test module so ``inspect`` can retrieve its
    source; the commit write is not yielded (VY001), which also strips the
    only commit point (VY002).
    """
    from repro.concurrency import SharedCell
    from repro.core import operation
    from repro.harness.workload import BuiltProgram, Program

    class BrokenLintImpl:
        def __init__(self):
            self.cell = SharedCell("b.cell", 0)

        @operation
        def put(self, ctx, x):
            self.cell.write(x, commit=True)
            yield ctx.checkpoint()
            return True

        VYRD_METHODS = {"put": "mutator"}

    def build(buggy, num_threads):
        return BuiltProgram(
            impl=BrokenLintImpl(),
            spec_factory=None,
            view_factory=None,
            make_worker=None,
        )

    return Program(name="broken-lint", bug="unyielded commit write",
                   build=build)


def test_run_lint_preflight_passes_clean_program(capsys):
    code = main([
        "run", "--program", "stringbuffer", "--threads", "2",
        "--calls", "5", "--seed", "1", "--lint", "error",
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_run_lint_preflight_blocks_broken_program(monkeypatch, capsys):
    import json

    from repro.harness.workload import PROGRAMS

    monkeypatch.setitem(PROGRAMS, "broken-lint", _broken_lint_program())
    code = main([
        "run", "--program", "broken-lint", "--lint", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["ok"] is False
    assert payload["error_type"] == "LintError"
    rules = {finding["rule"] for finding in payload["lint_findings"]}
    assert rules == {"VY001", "VY002"}


# -- observability: a profile is taken with --metrics/--trace-out -------------


def test_profile_human_output_reports_phases(capsys):
    code = main([
        "run", "--program", "multiset-vector", "--threads", "2",
        "--calls", "4", "--metrics",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "ran multiset-vector (correct)" in out and "PASS" in out
    assert "wall-clock by phase" in out
    assert "kernel.run" in out and "checker.feed" in out
    assert "log.actions" in out  # counters table
    assert "view.units_recomputed" in out  # distributions table


def test_profile_json_round_trips_the_same_metrics(capsys):
    import json

    from repro.harness import run_program
    from repro.obs import MetricsRecorder

    code = main([
        "run", "--program", "multiset-vector", "--threads", "2",
        "--calls", "4", "--seed", "5", "--metrics", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["refinement"]["ok"] is True
    # the deterministic part of the metrics equals an identical in-process
    # run: the CLI adds nothing and loses nothing
    recorder = MetricsRecorder()
    result = run_program(
        "multiset-vector", num_threads=2, calls_per_thread=4, seed=5,
        obs=recorder,
    )
    result.vyrd.check_offline()
    snapshot = recorder.counters_snapshot()
    assert payload["metrics"]["counters"] == snapshot["counters"]
    assert payload["metrics"]["histograms"] == snapshot["histograms"]
    assert payload["records"] == len(result.log)


def test_profile_trace_out_is_loadable(tmp_path, capsys):
    from repro.obs import validate_trace_file

    trace_path = str(tmp_path / "prof.trace.json")
    code = main([
        "run", "--program", "multiset-vector", "--threads", "2",
        "--calls", "4", "--trace-out", trace_path,
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert f"trace written to {trace_path}" in out
    assert validate_trace_file(trace_path) == []


def test_profile_online_buggy_exits_one(capsys):
    # any detecting seed works; search like the other buggy-run tests
    for seed in range(20):
        code = main([
            "run", "--program", "multiset-vector", "--buggy", "--threads",
            "4", "--calls", "30", "--seed", str(seed), "--online",
            "--metrics",
        ])
        out = capsys.readouterr().out
        if code == 1:
            assert "FAIL" in out
            assert "verifier.consume" in out  # online spans attributed
            return
    pytest.fail("no seed triggered the bug under run --online --metrics")


def test_linz_and_profile_are_not_subcommands(capsys):
    """``check --mode linz`` and ``run --metrics`` are the one path for
    each job; the old subcommand names are usage errors."""
    for argv in (["linz", "java-vector"], ["profile", "blinktree"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_run_metrics_flag_json_and_trace(tmp_path, capsys):
    import json

    from repro.obs import validate_trace_file

    trace_path = str(tmp_path / "run.trace.json")
    code = main([
        "run", "--program", "multiset-vector", "--threads", "2",
        "--calls", "4", "--metrics", "--trace-out", trace_path, "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["trace"] == trace_path
    assert payload["metrics"]["counters"]["log.actions"] == payload["records"]
    assert validate_trace_file(trace_path) == []


def test_run_metrics_flag_human_output(capsys):
    code = main([
        "run", "--program", "multiset-vector", "--threads", "2",
        "--calls", "4", "--metrics",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "run profile: wall-clock by phase" in out
    assert "kernel.steps" in out


def test_run_without_metrics_has_no_metrics_key(capsys):
    import json

    code = main([
        "run", "--program", "multiset-vector", "--threads", "2",
        "--calls", "4", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "metrics" not in payload


def test_explore_metrics_json_merges_worker_counters(capsys):
    import json

    code = main([
        "explore", "--program", "multiset-vector", "--seeds", "4",
        "--jobs", "2", "--threads", "2", "--calls", "3", "--metrics",
        "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    counters = payload["metrics"]["counters"]
    assert counters["kernel.steps"] > 0
    assert counters["span.explore.campaign"] == 1
    # per-run counters crossed the process boundary and merged
    assert counters["log.actions"] > 0


def test_faults_metrics_records_campaign_phases(tmp_path, capsys):
    import json

    from repro.obs import validate_trace_file

    trace_path = str(tmp_path / "faults.trace.json")
    code = main([
        "faults", "--program", "multiset-vector", "--seeds", "4",
        "--jobs", "2", "--threads", "2", "--calls", "2", "--metrics",
        "--trace-out", trace_path, "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    walls = payload["metrics"]["phase_wall_ms"]
    for phase in ("campaign.baseline", "campaign.faulted",
                  "campaign.corruption", "campaign.latency"):
        assert phase in walls
    assert validate_trace_file(trace_path) == []


def _nested_ops_program():
    """A worker that abandons an op frame mid-operation, then starts a
    second public operation on the same thread: begin_op raises
    ``InstrumentationError`` inside the simulated thread."""
    from repro.harness.workload import PROGRAMS, Program

    real = PROGRAMS["multiset-vector"]

    def build(buggy, num_threads):
        built = real.build(buggy, num_threads)

        def make_worker(vds, rng, index, calls):
            def body(ctx):
                next(vds.insert(ctx, 1))       # open the frame, abandon it
                yield from vds.insert(ctx, 2)  # nested begin_op -> error

            return body

        built.make_worker = make_worker
        built.daemons = ()
        return built

    return Program(name="nested-ops", bug="abandoned op frame", build=build)


def test_run_json_surfaces_instrumentation_error(monkeypatch, capsys):
    import json

    from repro.harness.workload import PROGRAMS

    monkeypatch.setitem(PROGRAMS, "nested-ops", _nested_ops_program())
    code = main([
        "run", "--program", "nested-ops", "--threads", "1", "--calls", "1",
        "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["ok"] is False
    # the SimThreadError wrapper is unwrapped to the typed cause...
    assert payload["error_type"] == "InstrumentationError"
    # ...which names the offending operation, thread and op id
    assert payload["method"] == "insert"
    assert isinstance(payload["tid"], int)
    assert isinstance(payload["op_id"], int)
    assert "insert" in payload["problem"]


def test_run_human_output_names_instrumentation_context(monkeypatch, capsys):
    from repro.harness.workload import PROGRAMS

    monkeypatch.setitem(PROGRAMS, "nested-ops", _nested_ops_program())
    code = main([
        "run", "--program", "nested-ops", "--threads", "1", "--calls", "1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "InstrumentationError" in err
    assert "method='insert'" in err and "tid=" in err and "op=" in err


# -- the serve and verify-chain subcommands ----------------------------------


def test_serve_verify_direct_round_trip(tmp_path, capsys):
    root = str(tmp_path / "store")
    code = main([
        "serve", "--program", "multiset-vector", "--sessions", "2",
        "--shards", "3", "--threads", "3", "--calls", "6",
        "--root", root, "--verify-direct",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "signatures identical to single-process reruns" in out
    assert "[ok] run-00000" in out and "[ok] run-00001" in out

    assert main(["verify-chain", f"{root}/run-00000",
                 f"{root}/run-00001"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 6  # 2 sessions x 3 shards
    assert "head matches manifest" in out


def test_serve_json_reports_chain_and_signature(tmp_path, capsys):
    import json as json_module

    root = str(tmp_path / "store")
    code = main([
        "serve", "--program", "multiset-vector", "--sessions", "1",
        "--threads", "3", "--calls", "6", "--root", root,
        "--verify-direct", "--json",
    ])
    payload = json_module.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] and payload["direct_signature_match"]
    assert payload["records"] > 0 and payload["records_per_sec"]
    session = payload["sessions"][0]
    assert session["signature"] and session["verdict_ok"] is True
    assert len(session["chain"]) == 2  # default --shards
    assert all(entry["ok"] for entry in session["chain"])


def test_verify_chain_pinpoints_flipped_byte(tmp_path, capsys):
    root = str(tmp_path / "store")
    main([
        "serve", "--program", "multiset-vector", "--sessions", "1",
        "--shards", "2", "--threads", "3", "--calls", "6", "--root", root,
    ])
    capsys.readouterr()
    victim = tmp_path / "store" / "run-00000" / "shard-0001.vlog"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x20
    victim.write_bytes(bytes(data))

    code = main(["verify-chain", f"{root}/run-00000"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[TAMPERED]" in out and "chain breaks at byte" in out
    assert "[ok]" in out  # the untouched shard still verifies


def test_verify_chain_names_a_bad_record(tmp_path, capsys):
    """Frames that pass CRC and chain checks but hold no log action are a
    bad record, not a chain break; exit code and --json fields as before."""
    import json

    path = _bad_input("chained-non-actions", tmp_path)
    assert main(["verify-chain", path]) == 1
    out = capsys.readouterr().out
    assert "[TAMPERED]" in out and "chain breaks" not in out
    assert (f"{path}: bad record at byte 16 (record 0): decoded object is "
            "not a log action (dict); 0 records salvageable") in out
    assert main(["verify-chain", path, "--json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["tampered"] and report["chained"] and not report["ok"]
    assert (report["error_offset"], report["error_record"]) == (16, 0)
    assert report["cause"] == "decoded object is not a log action (dict)"


def test_verify_chain_unchained_is_policy_not_tampering(
    tmp_path, capsys, write_vyrdlog1
):
    from repro.harness import run_program

    log_path = str(tmp_path / "legacy.vyrdlog")
    run = run_program("multiset-vector", num_threads=2, calls_per_thread=4)
    write_vyrdlog1(log_path, run.log)
    assert main(["verify-chain", log_path]) == 0
    assert "unchained" in capsys.readouterr().out
    assert main(["verify-chain", "--require-chained", log_path]) == 1
    assert "UNCHAINED" in capsys.readouterr().out


def test_run_save_writes_a_chained_shard_zero(tmp_path, capsys):
    import json

    log_path = str(tmp_path / "run.vlog")
    main([
        "run", "--program", "multiset-vector", "--threads", "2",
        "--calls", "4", "--save", log_path,
    ])
    capsys.readouterr()
    with open(log_path, "rb") as handle:
        assert handle.read(8) == b"VYRDLOG2"
    assert main(["verify-chain", "--require-chained", log_path, "--json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["chained"] and report["shard_id"] == 0
    assert report["records"] > 0


def test_verify_chain_rejects_non_session_directory(tmp_path, capsys):
    assert main(["verify-chain", str(tmp_path)]) == 2
    assert "no MANIFEST.json" in capsys.readouterr().err


def _bad_input(kind, tmp_path):
    path = tmp_path / f"{kind}.vlog"
    if kind == "garbage":
        path.write_bytes(bytes(range(7, 250, 3)) * 4)
    elif kind == "truncated-chained":
        from repro.core.log import save_log
        from repro.harness import run_program

        run = run_program("multiset-vector", num_threads=2, calls_per_thread=4)
        save_log(run.log, str(path), chained=True)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) * 3 // 5])
    elif kind == "chained-non-actions":
        # every frame's CRC and chain digest verify; no payload is an action
        from repro.core.log import LogWriter

        with LogWriter(str(path)) as writer:
            for value in ({"op": "insert"}, ("call", 3), "return"):
                writer.write(value)
    elif kind == "bare-pickle":
        import pickle

        from repro.core import CallAction, ReturnAction

        with open(path, "wb") as handle:
            for action in (CallAction(0, 0, "insert", (3,)),
                           ReturnAction(0, 0, "insert", "success")):
                pickle.dump(action, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return str(path)  # "missing": never written


@pytest.mark.parametrize("kind", ["missing", "garbage", "truncated-chained",
                                  "chained-non-actions", "bare-pickle"])
def test_bad_log_input_is_a_typed_problem_on_every_command(kind, tmp_path, capsys):
    """A missing, garbage, truncated, non-action or bare-pickle log never
    escapes as a traceback: exit 2 and a typed problem (``--json``) or one
    line on stderr."""
    import json

    path = _bad_input(kind, tmp_path)
    commands = [["races", path]]
    recovers = [()] if kind == "truncated-chained" else [(), ("--recover",)]
    for recover in recovers:
        for mode in ("io", "view", "linz", "both"):
            commands.append(["check", path, "--program", "multiset-vector",
                             "--mode", mode, *recover])
    if kind == "missing":
        commands.append(["verify-chain", path])
    else:  # a damaged file is a verify-chain report, not a problem
        assert main(["verify-chain", path]) == 1
        captured = capsys.readouterr()
        assert "failed verification" in captured.err
        assert "[TAMPERED]" in captured.out
        if kind in ("garbage", "bare-pickle"):
            assert "unrecognized log prologue" in captured.out
    for argv in commands:
        assert main([*argv, "--json"]) == 2, argv
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["error_type"], argv
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert "Traceback" not in captured.err
    for argv in (["trace", path], ["witness", path]):  # no --json option
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert "Traceback" not in captured.err


def test_log_without_a_history_is_a_typed_problem_for_linz(tmp_path, capsys):
    """A chain-valid log whose one record is a return with no call has no
    linz history: ``check --mode linz|both`` exit 2 with a ``HistoryError``
    problem, while the refinement modes and ``races`` keep their
    verdicts."""
    import json

    from repro.core import Log, ReturnAction
    from repro.core.log import save_log

    path = str(tmp_path / "return-only.vlog")
    save_log(Log([ReturnAction(0, 0, "insert", 0)]), path)
    program = ["--program", "multiset-vector"]
    for argv in (["check", path, *program, "--mode", "linz"],
                 ["check", path, *program, "--mode", "both"]):
        assert main([*argv, "--json"]) == 2, argv
        assert json.loads(capsys.readouterr().out)["error_type"] == "HistoryError"
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert "return without a call" in captured.err
    for mode in ("io", "view"):
        assert main(["check", path, *program, "--mode", mode, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False
    assert main(["races", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_verify_chain_malformed_manifest_is_a_typed_problem(tmp_path, capsys):
    import json

    session = tmp_path / "run-00000"
    session.mkdir()
    (session / "MANIFEST.json").write_text('{"session": "run-00000", "sha')
    assert main(["verify-chain", str(session), "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and "malformed manifest" in payload["problem"]
    assert main(["verify-chain", str(session)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
