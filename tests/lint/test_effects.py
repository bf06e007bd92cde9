"""The static effect & commutativity analyzer (:mod:`repro.lint.effects`).

Feeds :func:`analyze_class_source` small synthetic implementation classes
and asserts the per-operation summaries, the pairwise independence matrix
and the VY007/VY008 findings; finishes with registry smoke checks that pin
the matrices the schedule reducer actually consumes.
"""

import textwrap

from repro.lint.effects import analyze_class_source, analyze_program

DISJOINT = """
class Thing:
    @operation
    def put(self, ctx, x):
        yield self.lock_a.acquire()
        yield self.a.write(x, commit=True)
        yield self.lock_a.release()

    @operation
    def bump(self, ctx):
        yield self.lock_b.acquire()
        value = yield self.b.read()
        yield self.b.write(value + 1, commit=True)
        yield self.lock_b.release()

    @operation
    def peek(self, ctx):
        value = yield self.a.read()
        return value

    VYRD_METHODS = {"put": "mutator", "bump": "mutator", "peek": "observer"}
"""


def analyze(source):
    return analyze_class_source(textwrap.dedent(source), classname="Thing")


def test_summaries_bound_footprints_and_locks():
    effects = analyze(DISJOINT)
    assert effects.operations == ("bump", "peek", "put")
    put = effects.summaries["put"]
    assert put.complete
    assert put.writes == {("a",)}
    assert put.locks == {("lock_a", "x")}
    assert put.commit_kinds == {"write-commit"}
    peek = effects.summaries["peek"]
    assert peek.role == "observer"
    assert peek.reads == {("a",)} and not peek.writes


def test_matrix_verdicts_disjoint_vs_overlapping():
    effects = analyze(DISJOINT)
    assert effects.verdict("put", "bump") == "independent"
    assert effects.verdict("bump", "peek") == "independent"
    # peek reads what put writes: ordered
    assert effects.verdict("put", "peek") == "dependent"
    assert effects.verdict("put", "put") == "dependent"
    # symmetric lookup through the (min, max) canonical key
    assert effects.verdict("bump", "put") == effects.verdict("put", "bump")


def test_starred_paths_yield_conditional_verdicts():
    effects = analyze("""
    class Thing:
        @operation
        def set_slot(self, ctx, i, x):
            yield self.slots[i].lock.acquire()
            yield self.slots[i].cell.write(x, commit=True)
            yield self.slots[i].lock.release()

        @operation
        def get_slot(self, ctx, i):
            yield self.slots[i].lock.acquire()
            value = yield self.slots[i].cell.read()
            yield self.slots[i].lock.release()
            return value

        VYRD_METHODS = {"set_slot": "mutator", "get_slot": "observer"}
    """)
    # same structure, possibly-distinct elements: commutes per concrete run
    for pair in [("set_slot", "set_slot"), ("get_slot", "set_slot"),
                 ("get_slot", "get_slot")]:
        assert effects.verdict(*pair) == "conditional", pair


def test_vy008_incomplete_footprint_pessimises_every_pair():
    effects = analyze("""
    class Thing:
        @operation
        def put(self, ctx, x):
            yield self.a.write(x, commit=True)

        @operation
        def sneak(self, ctx, x):
            self.stash.append(x)
            yield self.b.write(x, commit=True)

        VYRD_METHODS = {"put": "mutator", "sneak": "mutator"}
    """)
    assert effects.incomplete_operations() == {"sneak"}
    assert any(
        f.rule_id == "VY008" and f.method == "sneak" for f in effects.findings
    )
    # disjoint cells, but the unbounded footprint forces dependent
    assert effects.verdict("put", "sneak") == "dependent"
    assert "VY008" in effects.matrix[("put", "sneak")].reason


def test_confluent_helper_keeps_summary_complete():
    effects = analyze("""
    class Thing:
        VYRD_CONFLUENT_HELPERS = ("_note",)

        def _note(self, x):
            self.seen.append(x)

        @operation
        def touch(self, ctx, x):
            self._note(x)
            yield self.cell.write(x, commit=True)

        @operation
        def spy(self, ctx, x):
            self.seen.append(x)
            yield self.cell.write(x, commit=True)

        VYRD_METHODS = {"touch": "mutator", "spy": "mutator"}
    """)
    touch = effects.summaries["touch"]
    assert touch.complete
    # the helper's hidden path still enters the footprint, py:-prefixed...
    assert ("py:", "seen") in touch.footprint_writes()
    assert effects.verdict("touch", "touch") == "dependent"
    # ...while the same write inline in an operation stays incomplete
    assert effects.incomplete_operations() == {"spy"}
    assert effects.confluent_helpers == {"_note"}


def test_vy007_inconsistent_lockset_and_atomic_exemption():
    locked_writer = """
    class Thing:
        {declarations}
        @operation
        def put(self, ctx, x):
            yield self.lock.acquire()
            yield self.a.write(x, commit=True)
            yield self.lock.release()

        @operation
        def peek(self, ctx):
            value = yield self.a.read()
            return value

        VYRD_METHODS = {{"put": "mutator", "peek": "observer"}}
    """
    flagged = analyze(locked_writer.format(declarations=""))
    assert any(f.rule_id == "VY007" for f in flagged.findings)
    exempt = analyze(
        locked_writer.format(declarations='VYRD_ATOMIC_FIELDS = ("a",)')
    )
    assert not any(f.rule_id == "VY007" for f in exempt.findings)
    assert exempt.atomic_fields == {"a"}


def test_to_dict_schema():
    payload = analyze(DISJOINT).to_dict()
    assert set(payload) == {
        "class", "file", "operations", "matrix", "atomic_fields",
        "confluent_helpers", "incomplete_operations",
    }
    assert set(payload["operations"]) == {"bump", "peek", "put"}
    summary = payload["operations"]["put"]
    assert summary["writes"] == ["a"] and summary["locks"] == ["lock_a"]
    cell = payload["matrix"]["bump x put"]
    assert cell == {
        "verdict": "independent",
        "reason": "disjoint footprints and locksets",
    }


def test_analyze_program_blinktree_matrix():
    """Pin the registry matrix the schedule reducer runs on: lookups are
    the only independent pair, inserts (root writes) order with everything,
    deletes touch starred data cells (conditional)."""
    effects = analyze_program("blinktree")
    assert effects.class_name == "BLinkTree"
    assert not effects.incomplete_operations()
    assert effects.verdict("lookup", "lookup") == "independent"
    assert effects.verdict("delete", "lookup") == "conditional"
    assert effects.verdict("delete", "delete") == "conditional"
    assert effects.verdict("insert", "lookup") == "dependent"
    assert effects.verdict("insert", "insert") == "dependent"


def test_static_reducer_built_from_registry_effects():
    from repro.concurrency.reduction import StaticReducer

    effects = analyze_program("blinktree")
    reducer = StaticReducer.from_effects(effects)
    assert reducer.allows("lookup", "lookup")
    assert reducer.allows("delete", "lookup")
    assert not reducer.allows("insert", "lookup")
    # picklable (the parallel frontier ships it to workers) and stable
    import pickle

    assert pickle.loads(pickle.dumps(reducer)) == reducer


BUMPER = """
class Thing:
    def _bump(self):
        {nested}self.count += 1

    @operation
    def put_a(self, ctx, x):
        self._bump()
        yield self.a.write(x, commit=True)

    @operation
    def put_b(self, ctx, x):
        self._bump()
        yield self.b.write(x, commit=True)

    VYRD_METHODS = {{"put_a": "mutator", "put_b": "mutator"}}
"""


def test_nested_generator_does_not_make_a_helper_a_generator():
    """A plain helper that defines a generator is still a plain helper:
    its hidden write must keep both callers incomplete, not vanish."""
    for nested in ("", "def _unused():\n            yield 1\n        "):
        effects = analyze(BUMPER.format(nested=nested))
        assert effects.verdict("put_a", "put_b") == "dependent", nested
        assert sorted(
            f.method for f in effects.findings if f.rule_id == "VY008"
        ) == ["put_a", "put_b"], nested


def test_matrix_reason_names_the_first_overlap_in_sorted_order():
    """The reason does not depend on set iteration order, which varies
    with the hash seed: of twelve overlapping cells it names the first."""
    cells = [f"c{i:02d}" for i in range(12)]
    source = "class Thing:\n" + "".join(
        f"    @operation\n    def {name}(self, ctx, x):\n"
        + "".join(f"        yield self.{cell}.write(x)\n" for cell in cells)
        for name in ("put", "set")
    )
    effects = analyze(source)
    assert effects.matrix[("put", "set")].reason == "write overlap on c00"
