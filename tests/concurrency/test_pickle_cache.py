"""The program source is pickled once per campaign, not once per task.

ProcessPoolExecutor serializes the worker function -- program source
included -- for every dispatched task; `_OncePickledSource` must collapse
that to a single up-front pickle whose bytes are replayed into each task.
A ProgramSpec subclass counts its own coordinator-side pickles to prove it.
"""

import pickle

import pytest

from repro.concurrency import explore_exhaustive, explore_swarm
from repro.concurrency.parallel import _OncePickledSource
from repro.harness import ProgramSpec


class CountingSpec(ProgramSpec):
    """Counts every time this process walks the spec's object graph."""

    pickles = {"n": 0}

    def __getstate__(self):
        type(self).pickles["n"] += 1
        return self.__dict__


@pytest.fixture(autouse=True)
def _reset_counter():
    CountingSpec.pickles["n"] = 0
    yield


def _spec():
    return CountingSpec(
        "multiset-vector", num_threads=2, calls_per_thread=2
    )


def test_wrapper_replays_cached_bytes():
    spec = _spec()
    wrapper = _OncePickledSource(spec)
    assert CountingSpec.pickles["n"] == 1
    for _ in range(5):
        revived = pickle.loads(pickle.dumps(wrapper))
    assert CountingSpec.pickles["n"] == 1  # replays never re-walk the spec
    assert revived == spec
    assert callable(wrapper.resolve_program())


def test_swarm_pickles_spec_once_per_campaign():
    result = explore_swarm(_spec(), num_runs=8, jobs=2, chunk_size=2)
    assert len(result.runs) == 8
    # 4 chunks dispatched; without the cache this is >= 4.
    assert CountingSpec.pickles["n"] == 1


def test_exhaustive_pickles_spec_once_per_campaign():
    result = explore_exhaustive(_spec(), max_runs=12, jobs=2, chunk_size=2)
    assert result.runs
    assert CountingSpec.pickles["n"] == 1


def test_cached_source_preserves_campaign_signature():
    cached = explore_swarm(_spec(), num_runs=6, jobs=2, chunk_size=2)
    serial = explore_swarm(_spec(), num_runs=6, jobs=1)
    assert cached.signature() == serial.signature()
