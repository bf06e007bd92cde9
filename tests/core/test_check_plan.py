"""The check plan: one place that builds every checker."""

import ast
import os

import repro

from repro.core import CheckPlan

SRC = os.path.dirname(os.path.abspath(repro.__file__))
CHECKERS = ("RefinementChecker", "RaceChecker", "LinzChecker")


def _constructing_functions(name):
    """``module:function`` of every function in ``src/`` calling ``name(``."""
    found = set()
    for root, _, files in os.walk(SRC):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(root, filename)
            with open(path) as handle:
                tree = ast.parse(handle.read())
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) == name
                        or getattr(node.func, "attr", None) == name
                    ):
                        found.add(f"{os.path.relpath(path, SRC)}:{function.name}")
    return found


def test_each_checker_is_constructed_in_exactly_one_function():
    census = {name: _constructing_functions(name) for name in CHECKERS}
    assert census == {
        "RefinementChecker": {"core/plan.py:refinement_checker"},
        "RaceChecker": {"core/plan.py:race_checker"},
        "LinzChecker": {"core/plan.py:linz_checker"},
    }


def test_members_per_mode_spec_per_side_and_log_flags():
    view = CheckPlan.for_program("cache", "view")
    assert view.view_factory is not None and view.invariants
    assert view.log_flags == {"log_level": "view", "log_locks": False,
                              "log_reads": False}
    io = CheckPlan.for_program("cache", "io", races="both")
    assert io.view_factory is None and io.invariants == ()
    assert io.log_flags == {"log_level": "io", "log_locks": True,
                            "log_reads": True}
    both = CheckPlan.for_program("multiset-vector", "both",
                                 variant="strict-lookup")
    assert both.mode == "io" and both.linz and both.divergence
    assert both.spec_factory().permissive_lookup
    assert not both.linz_spec_factory().permissive_lookup
    assert CheckPlan.for_program("multiset-vector", "linz").mode is None
