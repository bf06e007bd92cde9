"""Golden race corpus: the detectors' reports on logs of check-logs' shapes,
pinned as digests.

For the seven programs the check-logs benchmark workload checks, correct and
buggy, seeds 0-4, one log is recorded as that workload records it (4
threads, its calls per thread, view-level logging with locks and reads).
The corpus holds, per log, the SHA-256 of ``json.dumps(to_dict(),
sort_keys=True)`` of the :class:`~repro.races.RaceOutcome` of ``hb``,
``lockset`` and ``both`` (with the program's atomic locations), and of the
sorted :func:`~repro.races.compute_racy_locs` (the atomizer's STRICT pass).

No digest covers pickle bytes or set order, so the corpus holds under any
hash seed.  Regenerate the data file (only when a report is meant to
change) with::

    PYTHONPATH=src python tests/races/test_golden_races.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.harness import PROGRAMS, run_program
from repro.races import RaceChecker, compute_racy_locs

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_races.json")
#: Calls per thread of each program in the check-logs workload.
CALLS = {
    "multiset-vector": 6,
    "multiset-tree": 16,
    "java-vector": 60,
    "blinktree": 24,
    "cache": 16,
    "scanfs": 30,
    "bounded-queue": 50,
}
SEEDS = range(5)


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def program_reports(program: str) -> dict:
    """Every corpus entry of one program, keyed ``variant/seed/detector``."""
    atomic = PROGRAMS[program].atomic_locs
    entries = {}
    for buggy in (False, True):
        variant = "buggy" if buggy else "correct"
        for seed in SEEDS:
            log = run_program(
                program, buggy=buggy, num_threads=4,
                calls_per_thread=CALLS[program], seed=seed, mode="view",
                log_locks=True, log_reads=True,
            ).log
            key = f"{variant}/seed{seed}"
            for detectors in ("hb", "lockset", "both"):
                checker = RaceChecker(detectors, atomic_locs=atomic)
                checker.feed(log)
                entries[f"{key}/{detectors}"] = _digest(checker.finish().to_dict())
            entries[f"{key}/strict"] = _digest(sorted(compute_racy_locs(log)))
    return entries


@pytest.mark.parametrize("program", sorted(CALLS))
def test_race_reports_match_the_golden_corpus(program):
    with open(CORPUS) as handle:
        golden = json.load(handle)[program]
    assert program_reports(program) == golden


def test_corpus_covers_every_check_logs_program():
    with open(CORPUS) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(CALLS)
    assert sum(len(entries) for entries in golden.values()) == 7 * 2 * 5 * 4


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_races.py --write")
    corpus = {name: program_reports(name) for name in sorted(CALLS)}
    with open(CORPUS, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, corpus.values()))} entries to {CORPUS}")
