"""Front door of the static instrumentation analyzer.

* :func:`lint_class_source` -- analyze one class given its source text
  (what the mutation tests use: derive a broken variant, lint the text).
* :func:`lint_class` -- analyze a live implementation class / instance via
  :mod:`inspect`, discovering ``@operation`` methods and observer roles
  from the class itself.
* :func:`lint_program` / :func:`lint_registry` -- analyze the bundled
  workload-registry programs (what ``repro lint`` and the harness
  pre-flight run).

Findings on a line carrying ``# vyrd: ignore[VY00x]`` (or a bare
``# vyrd: ignore`` to silence every rule) are suppressed; suppressions
are expected to carry a trailing reason, e.g.::

    self._epoch += 1  # vyrd: ignore[VY005] -- checker-invisible counter
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from typing import Dict, FrozenSet, List, Optional, Set

from ..core.instrument import InstrumentationError
from .model import LintFinding
from .rules import (
    HELPER_PASSES,
    MUTATOR,
    OBSERVER,
    OPERATION_PASSES,
    MethodAnalysis,
    SummaryTable,
    _is_generator,
)

_SUPPRESS_RE = re.compile(
    r"#\s*vyrd:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


class LintError(InstrumentationError):
    """Raised by the harness pre-flight when an implementation's
    instrumentation annotations fail static analysis."""

    def __init__(self, findings: List[LintFinding]):
        self.findings = list(findings)
        head = "; ".join(f.render() for f in self.findings[:3])
        more = len(self.findings) - 3
        if more > 0:
            head += f" (+{more} more)"
        super().__init__(
            f"instrumentation lint failed with "
            f"{len(self.findings)} finding(s): {head}"
        )


def _suppression_table(
    source: str, first_line: int
) -> Dict[int, Optional[FrozenSet[str]]]:
    """line number -> suppressed rule ids (None = every rule).

    An inline marker silences its own line; a marker on a standalone
    comment line silences the next non-comment line.
    """
    table: Dict[int, Optional[FrozenSet[str]]] = {}
    lines = source.splitlines()
    for offset, line in enumerate(lines):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        suppressed = (
            None
            if rules is None
            else frozenset(
                rule.strip().upper() for rule in rules.split(",") if rule.strip()
            )
        )
        target = offset
        if line.strip().startswith("#"):
            target = next(
                (
                    j
                    for j in range(offset + 1, len(lines))
                    if lines[j].strip() and not lines[j].strip().startswith("#")
                ),
                offset,
            )
        table[first_line + target] = suppressed
    return table


def collect_suppressions(
    source: str, *, filename: str = "<lint>", first_line: int = 1
) -> List[dict]:
    """Audit the active ``# vyrd: ignore[...]`` pragmas in ``source``.

    One dict per pragma: where it is, which rules it silences (``["*"]``
    for a bare ignore), which line it targets, and whether a trailing
    reason is present -- so CI can track suppression growth."""
    audit: List[dict] = []
    lines = source.splitlines()
    for offset, line in enumerate(lines):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        target = offset
        if line.strip().startswith("#"):
            target = next(
                (
                    j
                    for j in range(offset + 1, len(lines))
                    if lines[j].strip() and not lines[j].strip().startswith("#")
                ),
                offset,
            )
        audit.append({
            "file": filename,
            "line": first_line + offset,
            "target_line": first_line + target,
            "rules": (
                ["*"] if rules is None
                else sorted(
                    rule.strip().upper()
                    for rule in rules.split(",") if rule.strip()
                )
            ),
            "has_reason": bool(line[match.end():].strip(" \t-:#")),
        })
    return audit


def audit_suppressions(name: str) -> List[dict]:
    """Audit the pragmas of one registry program's implementation class."""
    from ..harness.workload import PROGRAMS  # late import

    built = PROGRAMS[name].build(False, 1)
    cls = type(built.impl)
    lines, first_line = inspect.getsourcelines(cls)
    filename = inspect.getsourcefile(cls) or "<unknown>"
    return collect_suppressions(
        "".join(lines), filename=filename, first_line=first_line
    )


def _suppressed(
    finding: LintFinding, table: Dict[int, Optional[FrozenSet[str]]]
) -> bool:
    if finding.line not in table:
        return False
    rules = table[finding.line]
    return rules is None or finding.rule_id in rules


def _decorated_operations(classdef: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for stmt in classdef.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        for decorator in stmt.decorator_list:
            if isinstance(decorator, ast.Name) and decorator.id == "operation":
                names.add(stmt.name)
            elif (
                isinstance(decorator, ast.Attribute)
                and decorator.attr == "operation"
            ):
                names.add(stmt.name)
    return names


def _declared_observers(classdef: ast.ClassDef) -> Set[str]:
    """Observers declared in a literal ``VYRD_METHODS`` class attribute."""
    for stmt in classdef.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "VYRD_METHODS"
            for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, ast.Dict):
            continue
        observers = set()
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(value, ast.Constant)
                and value.value == "observer"
            ):
                observers.add(key.value)
        return observers
    return set()


def lint_class_source(
    source: str,
    *,
    filename: str = "<lint>",
    first_line: int = 1,
    classname: Optional[str] = None,
    operations: Optional[Set[str]] = None,
    observers: Optional[Set[str]] = None,
) -> List[LintFinding]:
    """Analyze one class from source text; returns sorted findings.

    ``operations`` defaults to the methods decorated ``@operation`` in the
    source; ``observers`` defaults to the ``"observer"`` entries of a
    literal ``VYRD_METHODS`` class attribute.
    """
    from .effects import effect_findings  # late import: effects uses rules

    classdef, operations, observers, findings = _rule_findings(
        source, filename, first_line, classname, operations, observers,
    )
    findings.extend(effect_findings(
        source,
        filename=filename,
        first_line=first_line,
        classname=classdef.name,
        operations=operations,
        observers=observers,
    ))
    return _unsuppressed(findings, source, first_line)


def _rule_findings(source, filename, first_line, classname, operations,
                   observers):
    """The per-method rule findings of one class, before suppression, with
    its class definition and resolved operations and observers."""
    tree = ast.parse(textwrap.dedent(source))
    classdef = None
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ClassDef):
            if classname is None or stmt.name == classname:
                classdef = stmt
                break
    if classdef is None:
        raise ValueError(
            f"no class definition{f' {classname!r}' if classname else ''} "
            f"found in {filename}"
        )
    if operations is None:
        operations = _decorated_operations(classdef)
    if observers is None:
        observers = _declared_observers(classdef)
    methods = {
        stmt.name: stmt
        for stmt in classdef.body
        if isinstance(stmt, ast.FunctionDef)
    }
    line_offset = first_line - 1
    summaries = SummaryTable(methods, filename, line_offset)
    findings: List[LintFinding] = []
    for name, fn in methods.items():
        if name in operations:
            role = OBSERVER if name in observers else MUTATOR
            passes = OPERATION_PASSES
        elif _is_generator(fn):
            role = "helper"
            passes = HELPER_PASSES
        else:
            continue
        analysis = MethodAnalysis(fn, role, filename, line_offset, summaries)
        for rule_pass in passes:
            findings.extend(rule_pass(analysis))
    return classdef, operations, observers, findings


def _unsuppressed(findings: List[LintFinding], source: str,
                  first_line: int) -> List[LintFinding]:
    """Findings without the suppressed ones, sorted."""
    table = _suppression_table(source, first_line)
    findings = [f for f in findings if not _suppressed(f, table)]
    findings.sort(key=lambda f: (f.file, f.line, f.rule_id))
    return findings


def lint_class(impl, *, observers: Optional[Set[str]] = None) -> List[LintFinding]:
    """Analyze a live implementation class (or instance of one).

    ``@operation`` methods are discovered from the runtime marker the
    decorator leaves; ``observers`` defaults to the class's
    ``VYRD_METHODS`` declaration.  The VY007/VY008 findings come from the
    class's memoized effect analysis (:func:`~repro.lint.analyze_class`).
    """
    from .effects import _memoized_analysis  # late import: effects uses rules

    cls = impl if inspect.isclass(impl) else type(impl)
    try:
        lines, first_line = inspect.getsourcelines(cls)
    except (OSError, TypeError) as exc:
        raise ValueError(
            f"cannot retrieve source for {cls.__name__}: {exc}"
        ) from exc
    filename = inspect.getsourcefile(cls) or "<unknown>"
    operations = {
        name
        for name in dir(cls)
        if getattr(getattr(cls, name, None), "_vyrd_operation", False)
    }
    if observers is None:
        declared = getattr(cls, "VYRD_METHODS", None)
        if isinstance(declared, dict):
            observers = {
                name for name, role in declared.items() if role == "observer"
            }
    source = "".join(lines)
    _, _, _, findings = _rule_findings(
        source, filename, first_line, cls.__name__, operations or None,
        observers,
    )
    findings.extend(
        _memoized_analysis(cls, observers, (lines, first_line)).findings
    )
    return _unsuppressed(findings, source, first_line)


def lint_program(name: str) -> List[LintFinding]:
    """Analyze the implementation class behind one registry program."""
    from ..harness.workload import PROGRAMS  # late import: harness uses lint

    built = PROGRAMS[name].build(False, 1)
    return lint_class(built.impl)


def lint_registry() -> Dict[str, List[LintFinding]]:
    """Analyze every bundled registry program; name -> findings."""
    from ..harness.workload import PROGRAMS

    return {name: lint_program(name) for name in sorted(PROGRAMS)}
