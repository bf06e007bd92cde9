"""Golden verdict corpus: every checking entry point's ``--json`` verdict,
pinned as digests.

For every registry program x correct/buggy x seeds 0-2 (3 threads x 6
calls) one log is recorded with ``run --races --save``; the corpus holds the
exit code and the SHA-256 of ``json.dumps(payload, sort_keys=True)`` of:

* ``run --races --json`` (with the ``saved`` path dropped);
* ``check --mode io|view|linz|both --all --json`` on the saved log;
* ``linz --json`` and ``races --json`` on the saved log;
* for the cache only, ``run --mode io --json`` (no log saved), which pins
  that ``run`` evaluates the cache's invariants in io mode while
  ``check --mode io`` does not.

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

from repro.harness import PROGRAMS
from repro.tools.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_verdicts.json")
SEEDS = (0, 1, 2)
SHAPE = ("--threads", "3", "--calls", "6")


def _verdict(argv, drop=()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    payload = json.loads(out.getvalue())
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
            entries[f"{key}/linz"] = _verdict(
                ["linz", path, "--program", program, "--json"]
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


def test_io_split_is_pinned(tmp_path):
    """``run --mode io`` checks the cache's invariants; ``check --mode io``
    of the same log does not.  Both verdicts stay until one meaning is
    chosen (docs/ARCHITECTURE.md section 3)."""
    path = str(tmp_path / "cache.vlog")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", "--program", "cache", "--mode", "io", "--buggy",
                     "--seed", "1", "--threads", "4", "--calls", "30",
                     "--save", path, "--json"])
    violations = json.loads(out.getvalue())["refinement"]["violations"]
    assert code == 1
    assert violations[0]["kind"] == "invariant"
    assert "cache.clean-matches-chunk" in violations[0]["message"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", path, "--program", "cache", "--mode", "io",
                     "--json"]) == 0


def test_corpus_covers_every_program_and_entry_point():
    with open(CORPUS) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(PROGRAMS)
    assert sum(len(entries) for entries in golden.values()) == 8 * 2 * 3 * 7 + 6


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_verdicts.py --write")
    with tempfile.TemporaryDirectory() as workdir:
        corpus = {name: program_verdicts(name, workdir) for name in sorted(PROGRAMS)}
    with open(CORPUS, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, corpus.values()))} entries to {CORPUS}")
