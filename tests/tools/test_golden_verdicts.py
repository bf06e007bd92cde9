"""Golden verdict corpus: every checking entry point's ``--json`` verdict,
pinned as digests.

For every registry program x correct/buggy x seeds 0-2 (3 threads x 6
calls) one log is recorded with ``run --races --save``; the corpus holds the
exit code and the SHA-256 of ``json.dumps(payload, sort_keys=True)`` of:

* ``run --races --json`` (with the ``saved`` path dropped);
* ``check --mode io|view|linz|both --all --json`` on the saved log;
* ``races --json`` on the saved log;
* for the cache only, ``run --mode io --json`` (no log saved): I/O
  refinement alone, over a log written at io level.

No digest covers pickle bytes, so the corpus holds under any hash seed.
Regenerate the data file (only when a verdict is meant to change) with::

    PYTHONPATH=src python tests/tools/test_golden_verdicts.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from repro.harness import PROGRAMS, run_program
from repro.tools.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_verdicts.json")
SEEDS = (0, 1, 2)
SHAPE = ("--threads", "3", "--calls", "6")


def _json(argv):
    """``main(argv)``'s exit code and its ``--json`` payload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue())


def _verdict(argv, drop=()):
    code, payload = _json(argv)
    for key in drop:
        payload.pop(key, None)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return [code, digest]


def program_verdicts(program: str, workdir: str) -> dict:
    """Every corpus entry of one program, keyed ``variant/seed/command``."""
    entries = {}
    for buggy in (False, True):
        variant = "buggy" if buggy else "correct"
        flags = ["--buggy"] if buggy else []
        for seed in SEEDS:
            key = f"{variant}/seed{seed}"
            path = os.path.join(workdir, f"{program}-{key.replace('/', '-')}.vlog")
            run = ["run", "--program", program, *flags, *SHAPE,
                   "--seed", str(seed)]
            entries[f"{key}/run"] = _verdict(
                [*run, "--races", "--save", path, "--json"], drop=("saved",)
            )
            for mode in ("io", "view", "linz", "both"):
                entries[f"{key}/check-{mode}"] = _verdict(
                    ["check", path, "--program", program, "--mode", mode,
                     "--all", "--json"]
                )
            entries[f"{key}/races"] = _verdict(["races", path, "--json"])
            if program == "cache":
                entries[f"{key}/run-io"] = _verdict(
                    [*run, "--mode", "io", "--json"]
                )
    return entries


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_verdicts_match_the_golden_corpus(program, tmp_path):
    with open(CORPUS) as handle:
        golden = json.load(handle)[program]
    assert program_verdicts(program, str(tmp_path)) == golden


def test_run_and_check_agree_in_io_mode(tmp_path):
    """``--mode io`` is I/O refinement alone in every command: on every
    registry program, correct and buggy, ``run --mode io --save`` and
    ``check --mode io`` of the saved log give the same verdict.  An io
    session carries neither the view nor the invariants and logs at io
    level (docs/ARCHITECTURE.md section 3)."""
    for program in sorted(PROGRAMS):
        for flags in ([], ["--buggy"]):
            path = str(tmp_path / f"{program}{''.join(flags)}.vlog")
            ran, run = _json(["run", "--program", program, *flags,
                              "--mode", "io", "--seed", "1", "--threads", "4",
                              "--calls", "30", "--save", path, "--json"])
            checked, check = _json(["check", path, "--program", program,
                                    "--mode", "io", "--json"])
            for key in ("well_formed", "well_formedness_problems"):
                assert check.pop(key) == run[key], (program, flags)
            assert run["refinement"] == check, (program, flags)
            assert ran == checked, (program, flags)
    session = run_program("cache", mode="io", num_threads=2,
                          calls_per_thread=2).vyrd
    assert session.plan.invariants == () and session.plan.view_factory is None
    assert session.tracer.level == "io"
    view = run_program("cache", num_threads=2, calls_per_thread=2).vyrd
    assert view.plan.invariants and view.tracer.level == "view"


def test_corpus_covers_every_program_and_entry_point():
    with open(CORPUS) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(PROGRAMS)
    assert sum(len(entries) for entries in golden.values()) == 8 * 2 * 3 * 6 + 6


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_verdicts.py --write")
    with tempfile.TemporaryDirectory() as workdir:
        corpus = {name: program_verdicts(name, workdir) for name in sorted(PROGRAMS)}
    with open(CORPUS, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, corpus.values()))} entries to {CORPUS}")
