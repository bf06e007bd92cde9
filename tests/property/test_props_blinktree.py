"""Property: the B-link tree agrees with a dict model and keeps its shape."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro import Kernel, Vyrd
from repro.boxwood import BLinkTree, BLinkTreeSpec, blinktree_view
from repro.concurrency import RandomScheduler, RoundRobinScheduler

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "lookup"]),
        st.integers(0, 12),
        st.integers(0, 99),
    ),
    max_size=40,
)


@given(ops_strategy, st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_sequential_ops_match_dict_model(ops, order):
    tree = BLinkTree(order=order)
    kernel = Kernel(scheduler=RoundRobinScheduler())
    model = {}
    failures = []

    def body(ctx):
        for op, key, value in ops:
            if op == "insert":
                result = yield from tree.insert(ctx, key, value)
                if result is not True:
                    failures.append(("insert", key))
                if key in model:
                    model[key] = (value, model[key][1] + 1)
                else:
                    model[key] = (value, 1)
            elif op == "delete":
                result = yield from tree.delete(ctx, key)
                if result is not (key in model):
                    failures.append(("delete", key, result))
                model.pop(key, None)
            else:
                result = yield from tree.lookup(ctx, key)
                expected = model[key][0] if key in model else None
                if result != expected:
                    failures.append(("lookup", key, result, expected))

    kernel.spawn(body)
    kernel.run()
    assert not failures
    assert tree.contents() == model
    assert tree.check_structure() == []


@given(ops_strategy, st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_compression_never_changes_contents(ops, seed):
    tree = BLinkTree(order=3)
    kernel = Kernel(scheduler=RoundRobinScheduler())

    def body(ctx):
        for op, key, value in ops:
            if op == "insert":
                yield from tree.insert(ctx, key, value)
            elif op == "delete":
                yield from tree.delete(ctx, key)

    kernel.spawn(body)
    kernel.run()
    before = tree.contents()

    kernel2 = Kernel(scheduler=RoundRobinScheduler())

    def compress(ctx):
        while (yield from tree.compression_pass(ctx)):
            pass

    kernel2.spawn(compress)
    kernel2.run()
    assert tree.contents() == before
    assert tree.check_structure() == []


@given(st.integers(0, 10_000), st.integers(min_value=2, max_value=4))
@example(seed=120, order=2)  # a split raced ahead of the root leaf's own
@settings(max_examples=25, deadline=None)
def test_concurrent_runs_verified_clean(seed, order):
    """Random concurrent insert/delete/lookup mixes are always accepted by
    the view checker and leave a structurally sound tree."""
    import random

    vyrd = Vyrd(spec_factory=BLinkTreeSpec, mode="view",
                impl_view_factory=blinktree_view)
    kernel = Kernel(scheduler=RandomScheduler(seed), tracer=vyrd.tracer)
    tree = BLinkTree(order=order)
    vt = vyrd.wrap(tree)

    def worker(index):
        def body(ctx):
            rng = random.Random(seed * 7 + index)
            for i in range(12):
                op = rng.choice(("insert", "insert", "delete", "lookup"))
                key = rng.randrange(10)
                if op == "insert":
                    yield from vt.insert(ctx, key, i)
                elif op == "delete":
                    yield from vt.delete(ctx, key)
                else:
                    yield from vt.lookup(ctx, key)

        return body

    for i in range(3):
        kernel.spawn(worker(i))
    kernel.spawn(tree.compression_thread, daemon=True)
    kernel.run()
    outcome = vyrd.check_offline()
    assert outcome.ok, str(outcome.first_violation)
    assert tree.check_structure() == []
