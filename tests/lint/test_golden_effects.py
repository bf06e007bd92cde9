"""Golden analysis corpus: each registry program's static effect analysis,
pinned as a digest.

For every registry program the corpus holds the SHA-256 of
``json.dumps(canonical(analyze_program(name)), sort_keys=True)``, where
:func:`canonical` spells out every :class:`EffectSummary` field of every
generator method (``accesses`` and ``exit_deltas`` included), the
independence matrix and the VY007/VY008 findings.  Every set is sorted
and every file path is taken relative to the repository, so the corpus
holds under any hash seed and in any checkout.  A matrix reason names one
overlapping path or lock, picked in set-iteration order, which varies with
the hash seed; the corpus masks that one name and keeps the rest of the
reason.

The digests change only when the analysis of a registry class changes.
Regenerate the data file (only when an analysis is meant to change) with::

    PYTHONPATH=src python tests/lint/test_golden_effects.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import sys

import pytest

import repro
from repro.harness import PROGRAMS
from repro.lint.effects import EffectSummary, analyze_program

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_effects.json")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))))


#: the path or lock a matrix reason names (see the module docstring)
_NAMED_OVERLAP = re.compile(r"(overlap on|shared lock) [^;\s]+")


def _relative(path: str) -> str:
    return os.path.relpath(path, ROOT) if os.path.isabs(path) else path


def _paths(paths) -> list:
    return sorted(list(path) for path in paths)


def _summary(summary) -> dict:
    return {
        "role": summary.role,
        "reads": _paths(summary.reads),
        "writes": _paths(summary.writes),
        "hidden_writes": _paths(summary.hidden_writes),
        "locks": _paths(summary.locks),
        "commit_kinds": sorted(summary.commit_kinds),
        "accesses": sorted(
            [list(a.path), a.kind, a.line, a.method, _paths(a.locks),
             _paths(a.outer_released)]
            for a in summary.accesses
        ),
        "exit_deltas": sorted(
            [sorted([list(token), level] for token, level in held),
             _paths(outer)]
            for held, outer in summary.exit_deltas
        ),
        "complete": summary.complete,
        "reasons": sorted([line, reason] for line, reason in summary.reasons),
    }


def canonical(effects) -> dict:
    """The whole analysis as plain, sorted JSON data."""
    return {
        "class": effects.class_name,
        "file": _relative(effects.file),
        "operations": list(effects.operations),
        "atomic_fields": sorted(effects.atomic_fields),
        "confluent_helpers": sorted(effects.confluent_helpers),
        "summaries": {
            name: _summary(summary)
            for name, summary in effects.summaries.items()
        },
        "matrix": sorted(
            [a, b, verdict.verdict,
             _NAMED_OVERLAP.sub(r"\1 <name>", verdict.reason)]
            for (a, b), verdict in effects.matrix.items()
        ),
        "findings": sorted(
            [f.rule_id, f.severity, f.method, _relative(f.file), f.line,
             f.message]
            for f in effects.findings
        ),
    }


def digest(name: str) -> str:
    payload = json.dumps(canonical(analyze_program(name)), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_corpus() -> dict:
    with open(CORPUS) as handle:
        return json.load(handle)


def test_corpus_covers_every_registry_program():
    assert sorted(_load_corpus()) == sorted(PROGRAMS)


def test_canonical_form_covers_every_summary_field():
    covered = set(_summary(analyze_program("blinktree").summaries["insert"]))
    fields = {field.name for field in dataclasses.fields(EffectSummary)}
    # the method name is the key the summary is filed under
    assert covered | {"method"} == fields


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_analysis_matches_golden_digest(name):
    assert digest(name) == _load_corpus()[name], (
        f"the static effect analysis of {name} changed; if that is "
        "intended, regenerate with "
        "`PYTHONPATH=src python tests/lint/test_golden_effects.py --write`"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_effects.py --write")
    corpus = {name: digest(name) for name in sorted(PROGRAMS)}
    with open(CORPUS, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus)} digests to {CORPUS}")
