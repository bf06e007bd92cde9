"""Shared helpers for the VYRD reproduction test suite."""

from __future__ import annotations

import pickle
import random
import struct
import zlib

import pytest

from repro import Kernel, Vyrd


def pytest_configure(config):
    # Per-test wall-clock ceiling: a wedged kernel, a hung worker process or
    # a deadlocked pool must fail the suite, not stall it.  Applied only when
    # pytest-timeout is installed (it is in CI; locally it is optional) and
    # not explicitly overridden on the command line or in the ini file.
    if config.pluginmanager.hasplugin("timeout"):
        if getattr(config.option, "timeout", None) is None:
            config.option.timeout = 120
            config.option.timeout_method = "thread"


def run_session(
    impl,
    spec_factory,
    bodies,
    view_factory=None,
    invariants=(),
    seed=0,
    mode="view",
    daemons=(),
    online=False,
    max_steps=2_000_000,
):
    """Run simulated threads against an instrumented ``impl`` and check.

    ``bodies`` is a list of callables ``body(ctx, vds)`` (generator
    functions); each becomes one application thread.  Returns
    ``(outcome, vyrd, kernel)``.
    """
    vyrd = Vyrd(
        spec_factory=spec_factory,
        mode=mode,
        impl_view_factory=view_factory,
        invariants=invariants,
    )
    kernel = Kernel(seed=seed, tracer=vyrd.tracer, max_steps=max_steps)
    vds = vyrd.wrap(impl)
    verifier = vyrd.start_online(kernel) if online else None

    def wrap(body):
        def thread_body(ctx):
            result = yield from body(ctx, vds)
            return result

        return thread_body

    for i, body in enumerate(bodies):
        kernel.spawn(wrap(body), name=f"w{i}")
    for daemon in daemons:
        kernel.spawn(daemon, daemon=True)
    kernel.run()
    outcome = verifier.finalize() if verifier else vyrd.check_offline()
    return outcome, vyrd, kernel


def find_detecting_seed(run_once, seeds=range(64)):
    """Return the first seed whose run produces a violation (or fail)."""
    for seed in seeds:
        outcome = run_once(seed)
        if not outcome.ok:
            return seed, outcome
    pytest.fail(f"no violation found in {len(list(seeds))} seeds")


@pytest.fixture
def rng():
    return random.Random(1234)


def _write_vyrdlog1(path, actions) -> None:
    """Write ``actions`` to ``path`` in the read-only ``VYRDLOG1`` format.

    A reference framer, independent of :mod:`repro.core.log`: the magic,
    then per record a ``<II`` header (payload length, CRC32) and the
    record's self-contained pickle.  Nothing in the package writes this
    format any more; the reader's compatibility tests get their files here.
    """
    with open(path, "wb") as handle:
        handle.write(b"VYRDLOG1")
        for action in actions:
            payload = pickle.dumps(action, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            handle.write(payload)


@pytest.fixture(scope="session")
def write_vyrdlog1():
    """The ``VYRDLOG1`` reference framer (session scope, so Hypothesis
    tests can take it)."""
    return _write_vyrdlog1
