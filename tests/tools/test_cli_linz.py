"""CLI surface of the linearizability checker: ``check --mode
linz|refinement|both`` exit codes and ``--json`` schemas.

Exit-code contract (pinned here):

* refinement modes keep their historic codes (violation -> 1);
* ``linz`` verdicts exit 2 on violation, and hard search errors
  (blown node budget, unreadable log) also exit 2 with a typed problem;
* ``both`` exits 0 when the verdicts agree on OK **or** the disagreement
  is on the documented expected-divergence list, 2 otherwise -- with both
  verdicts in the JSON payload.
"""

import json

import pytest

from repro.core.actions import CallAction, ReturnAction
from repro.core.log import Log, save_log
from repro.linz import strict_lookup_divergence_log
from repro.multiset.spec import SUCCESS
from repro.tools.cli import main

LINZ_SCHEMA_KEYS = {
    "ok", "mode", "operations", "completed", "incomplete",
    "methods_checked", "detection_method_count", "violations",
    "linearization", "search", "program", "variant",
    "well_formed", "well_formedness_problems",
}

BOTH_SCHEMA_KEYS = {
    "ok", "mode", "program", "variant", "agree", "expected_divergence",
    "problem", "refinement", "linz", "well_formed",
    "well_formedness_problems",
}


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def _saved(tmp_path, capsys, program, *flags, seed="1", calls="12"):
    """``run --save`` a workload (3 threads); the saved log's path."""
    log_path = str(tmp_path / f"{program}.vyrdlog")
    main(["run", "--program", program, *flags, "--threads", "3",
          "--calls", calls, "--seed", seed, "--save", log_path])
    capsys.readouterr()
    return log_path


def test_check_mode_linz_on_clean_program_exits_zero(tmp_path, capsys):
    log_path = _saved(tmp_path, capsys, "java-vector")
    code = main(["check", log_path, "--program", "java-vector",
                 "--mode", "linz"])
    out = capsys.readouterr().out
    assert code == 0
    assert "linearizable" in out


def test_check_mode_linz_on_seeded_bug_exits_two(tmp_path, capsys):
    log_path = _saved(tmp_path, capsys, "java-vector", "--buggy", seed="7")
    code = main(["check", log_path, "--program", "java-vector",
                 "--mode", "linz", "--json"])
    payload = _json_out(capsys)
    assert code == 2
    assert payload["ok"] is False
    assert set(payload) == LINZ_SCHEMA_KEYS
    assert payload["violations"][0]["kind"] == "linearizability"
    assert "no linearization explains" in payload["violations"][0]["message"]


def test_check_mode_linz_json_on_a_clean_log(tmp_path, capsys):
    log_path = _saved(tmp_path, capsys, "stringbuffer", seed="4")
    code = main(["check", log_path, "--program", "stringbuffer",
                 "--mode", "linz", "--json"])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["ok"] is True
    assert set(payload) == LINZ_SCHEMA_KEYS
    assert payload["linearization"] is not None


def test_linz_log_file_requires_program(tmp_path, capsys):
    path = tmp_path / "x.vyrdlog"
    path.write_bytes(b"")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path), "--mode", "linz"])
    assert exc.value.code == 2
    assert "--program" in capsys.readouterr().err


def test_linz_unreadable_log_is_typed_error(tmp_path, capsys):
    path = tmp_path / "garbage.vyrdlog"
    path.write_bytes(b"not a log at all")
    code = main(["check", str(path), "--program", "java-vector",
                 "--mode", "linz", "--json"])
    payload = _json_out(capsys)
    assert code == 2
    assert payload["error_type"] == "LogFormatError"


def test_linz_blown_budget_is_typed_error_not_verdict(tmp_path, capsys):
    log_path = _saved(tmp_path, capsys, "java-vector")
    code = main(["check", log_path, "--program", "java-vector",
                 "--mode", "linz", "--max-nodes", "1", "--json"])
    payload = _json_out(capsys)
    assert code == 2
    assert payload["error_type"] == "SearchBudgetExceeded"
    assert "max_nodes" in payload["problem"]


def test_check_mode_linz_on_divergence_witness(tmp_path, capsys):
    log_path = str(tmp_path / "divergence.vyrdlog")
    save_log(strict_lookup_divergence_log(), log_path)
    # strict spec (the default variant): linearizability violation, exit 2
    code = main(["check", log_path, "--program", "multiset-vector",
                 "--mode", "linz", "--json"])
    payload = _json_out(capsys)
    assert code == 2
    assert payload["ok"] is False
    assert set(payload) == LINZ_SCHEMA_KEYS


def test_check_mode_refinement_is_view_alias(tmp_path, capsys):
    log_path = str(tmp_path / "run.vyrdlog")
    assert main(["run", "--program", "multiset-tree", "--threads", "2",
                 "--calls", "10", "--seed", "1", "--save", log_path]) == 0
    capsys.readouterr()
    assert main(["check", log_path, "--program", "multiset-tree",
                 "--mode", "refinement"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_mode_both_agreeing_ok_exits_zero(tmp_path, capsys):
    log_path = str(tmp_path / "run.vyrdlog")
    assert main(["run", "--program", "java-vector", "--threads", "3",
                 "--calls", "12", "--seed", "1", "--save", log_path]) == 0
    capsys.readouterr()
    code = main(["check", log_path, "--program", "java-vector",
                 "--mode", "both", "--json"])
    payload = _json_out(capsys)
    assert code == 0
    assert set(payload) == BOTH_SCHEMA_KEYS
    assert payload["agree"] is True
    assert payload["problem"] is None
    assert payload["refinement"]["ok"] and payload["linz"]["ok"]


def test_check_mode_both_expected_divergence_exits_zero(tmp_path, capsys):
    log_path = str(tmp_path / "divergence.vyrdlog")
    save_log(strict_lookup_divergence_log(), log_path)
    code = main(["check", log_path, "--program", "multiset-vector",
                 "--variant", "strict-lookup", "--mode", "both", "--json"])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["ok"] is True
    assert payload["agree"] is False
    assert payload["expected_divergence"]
    assert payload["refinement"]["ok"] is True
    assert payload["linz"]["ok"] is False


def test_check_mode_both_unexpected_disagreement_exits_two(tmp_path, capsys):
    # A mutator return with no commit annotation: the annotated refinement
    # checker reports an instrumentation violation, the annotation-free
    # search is fine -- a disagreement on no divergence list.
    log = Log()
    log.append(CallAction(tid=0, op_id=0, method="insert", args=(1,)))
    log.append(ReturnAction(tid=0, op_id=0, method="insert", result=SUCCESS))
    log_path = str(tmp_path / "disagree.vyrdlog")
    save_log(log, log_path)
    code = main(["check", log_path, "--program", "multiset-vector",
                 "--mode", "both", "--json"])
    payload = _json_out(capsys)
    assert code == 2
    assert payload["ok"] is False
    assert payload["agree"] is False
    assert payload["expected_divergence"] is None
    assert payload["problem"].startswith("verdict-disagreement:")
    # both verdicts ride along for diagnosis
    assert payload["refinement"]["ok"] is False
    assert payload["linz"]["ok"] is True


def test_check_mode_both_agreed_violation_exits_two(tmp_path, capsys):
    log_path = str(tmp_path / "buggy.vyrdlog")
    for seed in (7, 2, 3):
        code = main(["run", "--program", "java-vector", "--buggy",
                     "--threads", "3", "--calls", "12", "--seed", str(seed),
                     "--save", log_path])
        capsys.readouterr()
        if code == 1:
            break
    else:
        pytest.fail("seeded bug not triggered")
    code = main(["check", log_path, "--program", "java-vector",
                 "--mode", "both", "--json"])
    payload = _json_out(capsys)
    assert code == 2
    assert payload["refinement"]["ok"] is False
    assert payload["linz"]["ok"] is False
    assert payload["problem"]


def test_refinement_violation_exit_code_still_one(tmp_path, capsys):
    """The historic refinement exit codes are untouched by the linz modes."""
    log_path = str(tmp_path / "buggy.vyrdlog")
    for seed in range(20):
        code = main(["run", "--program", "multiset-vector", "--buggy",
                     "--threads", "4", "--calls", "30", "--seed", str(seed),
                     "--save", log_path])
        capsys.readouterr()
        if code == 1:
            break
    else:
        pytest.fail("seeded bug not triggered")
    assert main(["check", log_path, "--program", "multiset-vector"]) == 1
    capsys.readouterr()


def test_check_mode_both_checkpoints_and_resumes(tmp_path, capsys):
    """``--checkpoint-every``/``--resume`` take the same path in ``both``
    mode as in io and view mode: the resumed verdict equals the straight
    one, and a corrupt blob is rejected with a record-zero fallback."""
    log_path = str(tmp_path / "jv.vlog")
    ckpt = str(tmp_path / "jv.vyrdckpt")
    main(["run", "--program", "java-vector", "--buggy", "--threads", "4",
          "--calls", "20", "--seed", "1", "--save", log_path])
    capsys.readouterr()
    check = ["check", log_path, "--program", "java-vector", "--mode", "both",
             "--all", "--json"]
    code = main([*check, "--checkpoint", ckpt, "--checkpoint-every", "50"])
    straight = _json_out(capsys)
    assert code == 2 and not straight["linz"]["ok"]
    assert main([*check, "--resume", ckpt]) == code
    resumed = _json_out(capsys)
    assert resumed.pop("resume")["resume_seq"] > 0
    assert resumed == straight
    with open(ckpt, "ab") as handle:
        handle.write(b"X")
    assert main([*check, "--resume", ckpt]) == code
    fallback = _json_out(capsys)
    resume = fallback.pop("resume")
    assert resume["resume_seq"] == 0 and resume["rejected"]
    assert fallback == straight
