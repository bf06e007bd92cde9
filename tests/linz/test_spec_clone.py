"""The clone contract of every registry spec.

The linearizability search clones a node's spec once per branch and runs
one mutator on the clone; it relies on the node's own spec never changing
afterwards (its frontier and memo key are read from it later).  Each
registry spec overrides ``Specification.clone`` with a copy of its
containers, so each is driven here through a recorded history: at every
mutator, a clone takes the step first, and the original must be untouched.
"""

import pytest

from repro.core.spec import MUTATOR
from repro.harness import run_program
from repro.harness.workload import PROGRAMS
from repro.linz import LinzChecker, extract_history, linz_config
from repro.multiset import MultisetSpec

IMMUTABLE = (type(None), bool, int, float, str, bytes, tuple, frozenset)

CASES = [(program, linz_config(program).linz_spec_factory) for program in PROGRAMS]
CASES.append(("multiset-vector", lambda: MultisetSpec(permissive_lookup=True)))
IDS = [*PROGRAMS, "multiset-permissive"]


def _witness(program, spec_factory, seed):
    """The operations of a clean recorded run, in a witness order."""
    log = run_program(program, num_threads=3, calls_per_thread=8, seed=seed).log
    outcome = LinzChecker(spec_factory).check(log)
    assert outcome.ok and outcome.incomplete_ops == 0
    operations = extract_history(log).operations
    return [operations[op_id] for op_id in outcome.linearization]


def _shared_mutables(clone, original):
    return sorted(
        name for name, value in vars(original).items()
        if not isinstance(value, IMMUTABLE) and vars(clone).get(name) is value
    )


@pytest.mark.parametrize("program,spec_factory", CASES, ids=IDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_mutating_a_clone_leaves_the_original_alone(program, spec_factory, seed):
    spec = spec_factory()
    mutators = 0
    for op in _witness(program, spec_factory, seed):
        if spec.method_kind(op.method) != MUTATOR:
            continue
        mutators += 1
        before = (spec.state_fingerprint(), spec.describe())
        clone = spec.clone()
        assert type(clone) is type(spec)
        assert _shared_mutables(clone, spec) == []
        clone.run_mutator(op.method, op.args, op.result)
        assert (spec.state_fingerprint(), spec.describe()) == before, op.describe()
        spec.run_mutator(op.method, op.args, op.result)
        # The clone took the same step from the same state.
        assert clone.state_fingerprint() == spec.state_fingerprint()
        assert clone.describe() == spec.describe()
    assert mutators > 0


def test_clone_copies_the_pending_view_delta():
    spec = MultisetSpec()
    spec.run_mutator("insert", (1,), "success")
    clone = spec.clone()
    clone.run_mutator("insert", (2,), "success")
    assert spec.view_delta() == {1}
    assert clone.view_delta() == {1, 2}

