"""Property: checkpoint at any cut, restore from bytes, feed the tail --
the outcome is identical to the straight-through run.

This is the resumability contract of the whole checkpoint payload: spec
state, impl-view caches, comparator mismatch set, per-unit invariant
state, replay undo maps, observer windows and the lookahead buffer all
have to survive serialization for *every* cut point, on clean and
seeded-bug runs alike.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import Checkpoint
from repro.harness.runner import run_program
from repro.serve import session_checkers

# One linked-structure program (the DependencyView path), one
# ContributionView program, one FunctionView fallback program, and the
# cache, whose invariants carry per-unit state.
PROGRAMS = ["blinktree", "multiset-vector", "java-vector", "cache"]


def _verdict(checker) -> str:
    return json.dumps(checker.finish().to_dict(), sort_keys=True)


@given(
    program=st.sampled_from(PROGRAMS),
    buggy=st.booleans(),
    seed=st.integers(0, 3),
    cut_fraction=st.floats(0.0, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_resume_from_arbitrary_cut_is_invisible(program, buggy, seed, cut_fraction):
    run = run_program(
        program, buggy=buggy, num_threads=2, calls_per_thread=4, seed=seed
    )
    log = list(run.log)
    make_checker, _ = session_checkers(program)

    straight = make_checker()
    straight.feed(log)
    expected = _verdict(straight)

    cut = int(len(log) * cut_fraction)
    first = make_checker()
    first.feed(log[:cut])
    checkpoint = Checkpoint.from_bytes(
        first.checkpoint(meta={"program": program}).to_bytes()
    )

    resumed = make_checker()
    resumed.restore(checkpoint)
    resumed.feed(log[checkpoint.resume_seq:])
    assert _verdict(resumed) == expected
