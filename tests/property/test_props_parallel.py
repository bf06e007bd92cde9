"""Property: frontier-sharded exhaustive exploration == serial DFS.

Hypothesis draws small decision-tree programs (thread/step shapes); for
every draw the parallel engine must cover exactly the serial engine's
schedule set, in the same canonical order, with the same outcomes.
"""

import multiprocessing
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import Kernel, explore_exhaustive

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel exploration tests need fork-start workers",
)


def _tree_program(shape, scheduler):
    trace = []

    def worker(label, steps):
        def body(ctx):
            for i in range(steps):
                trace.append((label, i))
                yield ctx.checkpoint()

        return body

    kernel = Kernel(scheduler=scheduler)
    for index, steps in enumerate(shape):
        kernel.spawn(worker(index, steps), name=str(index))
    kernel.run()
    return tuple(trace)


@settings(max_examples=8, deadline=None)
@given(
    shape=st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3),
    jobs=st.sampled_from([2, 3]),
)
def test_parallel_exhaustive_equals_serial_on_decision_trees(shape, jobs):
    program = partial(_tree_program, tuple(shape))
    serial = explore_exhaustive(program, max_runs=5000)
    parallel = explore_exhaustive(program, max_runs=5000, jobs=jobs)
    assert serial.exhausted and parallel.exhausted
    assert parallel.signature() == serial.signature()
    # distinct interleavings covered, none duplicated
    schedules = [tuple(r.schedule) for r in parallel.runs]
    assert len(set(schedules)) == len(schedules)
    assert parallel.outcomes() == serial.outcomes()
