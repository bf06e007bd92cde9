"""One effect analysis per class per process, and one walk of each method's
AST per analysis (:mod:`repro.lint.effects`).

:func:`analyze_class` memoizes its read-only :class:`ClassEffects` under the
class object, its ``@operation`` set and its observers; within one analysis
the facts that do not depend on other methods' summaries are computed once
per generator method, not once per fixpoint round.
"""

import ast
import dataclasses
import importlib.util
import inspect
import sys
import weakref

import pytest

from repro.harness import PROGRAMS, explore_program
from repro.lint import effects as effects_module
from repro.lint.effects import analyze_class, analyze_program


@pytest.fixture
def cold(monkeypatch):
    """A process in which no class has been analyzed yet."""
    monkeypatch.setattr(effects_module, "_ANALYSES",
                        weakref.WeakKeyDictionary())


@pytest.fixture
def tables(monkeypatch):
    """The EffectTables built: one per analysis that actually runs."""
    built = []

    class Counting(effects_module.EffectTable):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(effects_module, "EffectTable", Counting)
    return built


def blinktree_class():
    return type(PROGRAMS["blinktree"].build(False, 1).impl)


def test_two_reduced_campaigns_build_one_effect_table(cold, tables):
    for _ in range(2):
        result = explore_program(
            "blinktree", mode="exhaustive", reduce="static",
            num_threads=2, calls_per_thread=1, workload_seed=7,
            daemons=False, fingerprint=True, jobs=1, max_runs=2000,
        )
        assert result.exhausted and result.pruned
    assert len(tables) == 1


def test_a_memo_hit_reads_no_source(cold, monkeypatch):
    first = analyze_program("blinktree")

    def no_source(obj):
        raise AssertionError(f"read the source of {obj} on a memo hit")

    monkeypatch.setattr(inspect, "getsourcelines", no_source)
    assert analyze_program("blinktree") is first


def test_lint_takes_the_memoized_analysis(cold, tables, monkeypatch):
    """Linting a program whose class was analyzed reruns no effect
    analysis: its VY007/VY008 findings come from the memo.  A cold lint
    analyzes once and reads the class source once."""
    from repro.lint import lint_program

    analyze_program("blinktree")
    assert len(tables) == 1
    for _ in range(3):
        assert lint_program("blinktree") == []
    assert len(tables) == 1

    reads = []
    read = inspect.getsourcelines

    def counting(obj):
        reads.append(obj)
        return read(obj)

    monkeypatch.setattr(inspect, "getsourcelines", counting)
    assert lint_program("multiset-vector") == []
    assert len(tables) == 2 and len(reads) == 1
    analyze_program("multiset-vector")  # the lint's analysis, memoized
    assert len(tables) == 2 and len(reads) == 1


def test_observers_are_part_of_the_key(cold, tables):
    cls = blinktree_class()
    declared = analyze_class(cls)
    # the declared observers and the same set passed explicitly share one
    # entry; a different set is a different analysis
    assert analyze_class(cls, observers={"lookup"}) is declared
    undeclared = analyze_class(cls, observers=set())
    assert undeclared is not declared
    assert analyze_class(cls, observers=set()) is undeclared
    assert declared.summaries["lookup"].role == "observer"
    assert undeclared.summaries["lookup"].role == "mutator"
    assert len(tables) == 2


COUNTER = '''
from repro import operation


class Counter:
    @operation
    def put(self, ctx, x):
        yield self.a.write(x, commit=True)
{extra}
    VYRD_METHODS = {{"put": "mutator"}}
'''

BUMP = '''
    @operation
    def bump(self, ctx, x):
        yield self.b.write(x, commit=True)
'''


def _import_counter(tmp_path, monkeypatch, source):
    """(Re-)import module ``edited_counter`` from ``source``."""
    path = tmp_path / "edited_counter.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("edited_counter", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "edited_counter", module)
    spec.loader.exec_module(module)
    return module.Counter


def test_a_class_recreated_from_edited_source_is_analyzed_afresh(
    cold, tables, tmp_path, monkeypatch
):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    old = _import_counter(tmp_path, monkeypatch, COUNTER.format(extra=""))
    before = analyze_class(old)
    new = _import_counter(tmp_path, monkeypatch, COUNTER.format(extra=BUMP))
    after = analyze_class(new)
    assert new is not old and after is not before
    assert before.operations == ("put",)
    assert after.operations == ("bump", "put")
    assert after.summaries["bump"].writes == {("b",)}
    # the old class keeps its own entry while it lives
    assert analyze_class(old) is before
    assert len(tables) == 2


def test_a_memoized_analysis_is_read_only(cold):
    effects = analyze_program("blinktree")
    with pytest.raises(dataclasses.FrozenInstanceError):
        effects.matrix = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        effects.findings = []
    with pytest.raises(TypeError):
        effects.matrix[("insert", "insert")] = effects.matrix[
            ("lookup", "lookup")]
    with pytest.raises(TypeError):
        effects.summaries["insert"] = effects.summaries["lookup"]
    with pytest.raises(AttributeError):
        effects.findings.append(effects.findings)
    assert analyze_program("blinktree") is effects


def test_each_generator_method_is_walked_once_per_analysis(cold, monkeypatch):
    """The path environment and the hidden-write sites of a method do not
    depend on any summary: the B-link tree's nine generator methods are
    walked nine times, not once per fixpoint round."""
    path_envs = []
    hidden_sites = []
    path_env = effects_module.EffectTable._path_env
    sites = effects_module._hidden_write_sites

    def counting_path_env(self, analysis):
        path_envs.append(analysis.name)
        return path_env(self, analysis)

    def counting_sites(stmt, env, accessors):
        if isinstance(stmt, ast.FunctionDef):  # a whole method body
            hidden_sites.append(stmt.name)
        return sites(stmt, env, accessors)

    monkeypatch.setattr(effects_module.EffectTable, "_path_env",
                        counting_path_env)
    monkeypatch.setattr(effects_module, "_hidden_write_sites", counting_sites)
    generators = sorted(analyze_program("blinktree").summaries)
    assert len(generators) == 9
    assert sorted(path_envs) == generators
    assert sorted(hidden_sites) == generators
