"""Static effect summaries and the operation independence matrix.

Where the six rule passes of :mod:`repro.lint.rules` judge *annotation
placement*, this module asks a semantic question: **what shared state can
each ``@operation`` touch, and which pairs of operations commute?**  It
reuses the statement-grained CFG (:mod:`repro.lint.cfg`) and the VY001
taint machinery and computes, per generator method, an
:class:`EffectSummary`:

* the abstract *paths* rooted at ``self`` that the method may read or
  write through traced cell syscalls (``self.slots[i].elt.read()`` ->
  ``slots[*].elt``: every subscript folds to ``[*]``, accessor calls like
  ``self.node(nid).cell`` fold through a one-level summary of the plain
  method);
* the locks it may acquire (with reader/writer mode), and -- via a
  must-hold lockset dataflow over the CFG -- the locks *certainly held*
  at each access;
* the commit kinds it can log (``ctx.commit()``, ``commit=True`` writes /
  releases / commit-block ends, ``ctx.replay``);
* whether the footprint is *complete*: a syscall whose target the
  analyzer cannot resolve, a delegation it cannot follow, or a hidden
  mutation of untraced ``self`` state makes the summary incomplete and
  the operation must be treated as conflicting with everything (VY008).

From the summaries it derives the **static independence matrix** over
operation pairs (:func:`classify_pair`): disjoint write/read-write
footprints *and* disjoint locksets mean the pair is ``independent``;
overlaps only on ``[*]``-abstracted elements mean ``conditional``
(same-structure operations on *distinct* keys commute -- e.g. multiset
inserts of different values); anything else is ``dependent``.  Two lint
rules fall out of the same facts:

* **VY007 inconsistent-lockset** -- a static Eraser: a shared field is
  written under a candidate lockset that some other access does not
  intersect.
* **VY008 effect-summary-incomplete** -- the analyzer cannot bound an
  operation's footprint, so schedule reduction must pessimise it.

Two literal class attributes refine the analysis (both mirrored in the
runtime harness):

* ``VYRD_ATOMIC_FIELDS = ("root", "_nodes[*].cell", ...)`` -- paths that
  are atomic by construction (the static mirror of
  ``Program.atomic_locs``; the B-link tree's lock-free descents);
  exempt from VY007.
* ``VYRD_CONFLUENT_HELPERS = ("_alloc_node", ...)`` -- plain (non
  generator) helpers whose hidden ``self`` mutations are declared
  schedule-confluent (e.g. per-thread id allocation); their written
  paths still enter the footprint (prefixed ``py:``) but do not make
  the summary incomplete.  The declaration is checked dynamically by
  the schedule-reduction equivalence gate.
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import (
    Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple,
)

from .cfg import Node
from .model import RULES, LintFinding
from .rules import (
    MUTATOR,
    OBSERVER,
    MethodAnalysis,
    SummaryTable,
    _call_is_ctx,
    _commit_kwarg,
    _is_generator,
    _root_name,
)

# syscall-building attributes, by effect kind
_READ_ATTRS = {"read"}
_WRITE_ATTRS = {"write"}
_ACQ_ATTRS = {"acquire": "x", "begin_read": "r", "begin_write": "w"}
_REL_ATTRS = {"release": "x", "end_read": "r", "end_write": "w"}
# dict/list/set mutators: calling one on a self path is a hidden write
_CONTAINER_MUTATORS = {
    "append", "add", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update", "__setitem__",
}

TOP = object()  # unresolvable value (absorbing)

INDEPENDENT = "independent"
CONDITIONAL = "conditional"
DEPENDENT = "dependent"


# ---------------------------------------------------------------------------
# Abstract paths
# ---------------------------------------------------------------------------


def render_path(path: Tuple[str, ...]) -> str:
    out = ""
    for comp in path:
        if comp == "[*]":
            out += "[*]"
        elif out:
            out += "." + comp
        else:
            out = comp
    return out or "<self>"


def paths_overlap(a: Tuple[str, ...], b: Tuple[str, ...]) -> bool:
    """One path reaches the other: componentwise-equal prefix."""
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def _overlap_is_starred(a: Tuple[str, ...], b: Tuple[str, ...]) -> bool:
    n = min(len(a), len(b))
    return "[*]" in a[:n]


# ---------------------------------------------------------------------------
# Accessor summaries: plain (non-generator) self methods used in chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessorSummary:
    """What a plain helper returns / hides, abstractly."""

    returns: object  # frozenset of paths | TOP | None | tuple of those
    hidden_writes: FrozenSet[Tuple[str, ...]]
    ok: bool  # False: the interpreter bailed (treat result as TOP)


class _AccessorTable:
    def __init__(self, methods: Dict[str, ast.FunctionDef],
                 generators: FrozenSet[str]):
        self._methods = methods
        self._generators = generators
        self._memo: Dict[str, AccessorSummary] = {}
        self._in_progress: Set[str] = set()

    def summary(self, name: str) -> AccessorSummary:
        if name in self._memo:
            return self._memo[name]
        fn = self._methods.get(name)
        if fn is None or name in self._in_progress or name in self._generators:
            return AccessorSummary(TOP, frozenset(), False)
        self._in_progress.add(name)
        try:
            result = self._interpret(fn)
        finally:
            self._in_progress.discard(name)
        self._memo[name] = result
        return result

    def _interpret(self, fn: ast.FunctionDef) -> AccessorSummary:
        """Abstract interpretation of a plain helper (straight-line code
        plus ``if``/``else``, whose branch environments are union-merged).

        Tracks local -> path bindings, including the *publishing rescue*:
        ``self._nodes[slot.nid] = slot`` binds ``slot`` to ``_nodes[*]``
        (the freshly built object is reachable there from now on)."""
        args = fn.args.args
        self_name = args[0].arg if args else "self"
        env: Dict[str, object] = {self_name: frozenset({()})}
        hidden: Set[Tuple[str, ...]] = set()
        returns: List[object] = []
        ok = self._run_block(fn.body, env, hidden, returns)
        if not ok:
            return AccessorSummary(TOP, frozenset(hidden), False)
        returned = _merge_returns(returns)
        return AccessorSummary(returned, frozenset(hidden), True)

    def _run_block(self, body, env: Dict[str, object],
                   hidden: Set[Tuple[str, ...]],
                   returns: List[object]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.If):
                hidden |= _hidden_writes_in(stmt.test, env, self)
                branch = dict(env)
                if not self._run_block(stmt.body, branch, hidden, returns):
                    return False
                if not self._run_block(stmt.orelse, env, hidden, returns):
                    return False
                _merge_env(env, branch)
                continue
            if isinstance(stmt, (ast.For, ast.While, ast.Try, ast.With,
                                 ast.Match)):
                return False
            hidden |= _hidden_writes_in(stmt, env, self)
            if isinstance(stmt, ast.Assign):
                value_paths = _resolve(stmt.value, env, self)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = value_paths
                    elif isinstance(target, ast.Tuple) and isinstance(
                        stmt.value, ast.Tuple
                    ) and len(target.elts) == len(stmt.value.elts):
                        for t, v in zip(target.elts, stmt.value.elts):
                            if isinstance(t, ast.Name):
                                env[t.id] = _resolve(v, env, self)
                    else:
                        # publishing rescue: self-path = local
                        tp = _resolve(target, env, self)
                        if (
                            isinstance(tp, frozenset)
                            and isinstance(stmt.value, ast.Name)
                        ):
                            env[stmt.value.id] = tp
            elif isinstance(stmt, ast.Return):
                if stmt.value is None:
                    returns.append(None)
                elif isinstance(stmt.value, ast.Tuple):
                    returns.append(tuple(
                        _resolve(elt, env, self) for elt in stmt.value.elts
                    ))
                else:
                    returns.append(_resolve(stmt.value, env, self))
                return True
        return True


def _merge_env(env: Dict[str, object], other: Dict[str, object]) -> None:
    for name, value in other.items():
        old = env.get(name)
        if old == value:
            continue
        if old is TOP or value is TOP:
            env[name] = TOP
        elif isinstance(old, frozenset) and isinstance(value, frozenset):
            env[name] = old | value
        else:
            env[name] = old if isinstance(old, frozenset) else value


def _merge_returns(returns: List[object]) -> object:
    if not returns:
        return None
    distinct = [r for r in returns]
    first = distinct[0]
    if all(r == first for r in distinct):
        return first
    tuples = [r for r in distinct if isinstance(r, tuple)]
    if tuples and len(tuples) == len(distinct):
        width = len(tuples[0])
        if all(len(t) == width for t in tuples):
            return tuple(
                _merge_returns([t[i] for t in tuples]) for i in range(width)
            )
        return TOP
    merged: Set[Tuple[str, ...]] = set()
    for r in distinct:
        if r is TOP or isinstance(r, tuple):
            return TOP
        if isinstance(r, frozenset):
            merged |= r
    return frozenset(merged) if merged else None


def _hidden_write_sites(stmt: ast.AST, env: Dict[str, object],
                        accessors: "_AccessorTable"
                        ) -> List[Tuple[int, Tuple[str, ...]]]:
    """Untraced mutations of self state in ``stmt``, as (line, path)."""
    sites: List[Tuple[int, Tuple[str, ...]]] = []

    def note(line: int, expr: ast.AST) -> None:
        paths = _resolve(expr, env, accessors)
        if isinstance(paths, frozenset):
            sites.extend((line, p) for p in paths)

    for node in ast.walk(stmt):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _CONTAINER_MUTATORS:
                    note(node.lineno, func.value)
            elif (
                isinstance(func, ast.Name)
                and func.id == "next"
                and node.args
            ):
                # next(self._ids) draws from shared mutable state
                note(node.lineno, node.args[0])
            continue
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                note(node.lineno, target)
    return sites


def _hidden_writes_in(stmt: ast.AST, env: Dict[str, object],
                      accessors: "_AccessorTable") -> Set[Tuple[str, ...]]:
    """Untraced mutations of self state performed by ``stmt``."""
    return {path for _, path in _hidden_write_sites(stmt, env, accessors)}


def _resolve(expr: ast.AST, env: Dict[str, object],
             accessors: "_AccessorTable") -> object:
    """Abstract paths an expression can denote.

    Returns a frozenset of path tuples, ``TOP`` (unresolvable but
    possibly shared), or ``None`` (not rooted in shared state)."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _resolve(expr.value, env, accessors)
        if base is None or base is TOP:
            return base
        return frozenset(p + (expr.attr,) for p in base)
    if isinstance(expr, ast.Subscript):
        base = _resolve(expr.value, env, accessors)
        if base is None or base is TOP:
            return base
        return frozenset(p + ("[*]",) for p in base)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute):
            base = _resolve(func.value, env, accessors)
            if base is None:
                return None
            if base is TOP:
                return TOP
            if base == frozenset({()}):
                # direct self.helper(...): fold the accessor summary
                summary = accessors.summary(func.attr)
                result = summary.returns
                if not summary.ok:
                    return TOP
                if isinstance(result, tuple):
                    # tuple-returning accessor used as a value
                    merged: Set[Tuple[str, ...]] = set()
                    for elem in result:
                        if elem is TOP:
                            return TOP
                        if isinstance(elem, frozenset):
                            merged |= elem
                    return frozenset(merged) if merged else None
                return result
            # method call on a non-self-root path (tainted chain):
            # cannot follow -> unresolvable
            return TOP
        return None
    if isinstance(expr, ast.IfExp):
        a = _resolve(expr.body, env, accessors)
        b = _resolve(expr.orelse, env, accessors)
        if a is TOP or b is TOP:
            return TOP
        merged = set()
        for part in (a, b):
            if isinstance(part, frozenset):
                merged |= part
        return frozenset(merged) if merged else None
    if isinstance(expr, (ast.Await, ast.Starred)):
        return _resolve(expr.value, env, accessors)
    return None


# ---------------------------------------------------------------------------
# Per-method effect summaries
# ---------------------------------------------------------------------------


LockToken = Tuple[str, str]  # (rendered path, mode "x"/"r"/"w")

# The lockset dataflow tracks *multiplicities*: hand-over-hand coupling
# (acquire child, release parent) collapses both locks onto one abstract
# token such as ``_nodes[*].lock``, and a plain set would go empty after
# the release even though one lock is certainly still held.  A held state
# is therefore a frozenset of ``(token, level)`` pairs with contiguous
# levels from 0 -- acquiring adds the next level, releasing removes the
# highest -- so ``(token, 0)`` is present exactly when the count is >= 1.
HeldState = FrozenSet[Tuple[LockToken, int]]


def _acq_token(held: HeldState, token: LockToken) -> HeldState:
    count = sum(1 for t, _ in held if t == token)
    return held | {(token, count)}


def _rel_token(held: HeldState, token: LockToken) -> Optional[HeldState]:
    """Drop one instance of ``token``; None when it is not held."""
    levels = [level for t, level in held if t == token]
    if not levels:
        return None
    return held - {(token, max(levels))}


def _held_tokens(held: HeldState) -> FrozenSet[LockToken]:
    return frozenset(t for t, _ in held)


@dataclass(frozen=True)
class Access:
    """One traced shared access, with the locks certainly held at it."""

    path: Tuple[str, ...]
    kind: str  # "read" | "write"
    line: int
    method: str  # method whose body performs the access
    locks: FrozenSet[LockToken]
    outer_released: FrozenSet[LockToken] = frozenset()

    def to_dict(self) -> dict:
        return {
            "path": render_path(self.path),
            "kind": self.kind,
            "line": self.line,
            "method": self.method,
            "locks": sorted(_render_lock(t) for t in self.locks),
        }


def _render_lock(token: LockToken) -> str:
    path, mode = token
    return path if mode == "x" else f"{path}({mode})"


@dataclass(frozen=True)
class EffectSummary:
    """The statically bounded effect footprint of one generator method."""

    method: str
    role: str
    reads: FrozenSet[Tuple[str, ...]]
    writes: FrozenSet[Tuple[str, ...]]
    hidden_writes: FrozenSet[Tuple[str, ...]]
    locks: FrozenSet[LockToken]
    commit_kinds: FrozenSet[str]
    accesses: Tuple[Access, ...]
    # (locks held at a normal exit as leveled HeldState, caller locks
    # released without acquiring) -- consumed when the method is inlined
    exit_deltas: FrozenSet[tuple]
    complete: bool
    reasons: Tuple[Tuple[int, str], ...]

    def footprint_writes(self) -> FrozenSet[Tuple[str, ...]]:
        return self.writes | frozenset(
            ("py:",) + p for p in self.hidden_writes
        )

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "role": self.role,
            "reads": sorted(render_path(p) for p in self.reads),
            "writes": sorted(render_path(p) for p in self.writes),
            "hidden_writes": sorted(
                render_path(p) for p in self.hidden_writes
            ),
            "locks": sorted(_render_lock(t) for t in self.locks),
            "commit_kinds": sorted(self.commit_kinds),
            "complete": self.complete,
            "incomplete_reasons": [
                {"line": line, "reason": reason}
                for line, reason in self.reasons
            ],
        }


_EMPTY_SUMMARY_FIELDS = dict(
    reads=frozenset(), writes=frozenset(), hidden_writes=frozenset(),
    locks=frozenset(), commit_kinds=frozenset(), accesses=(),
    exit_deltas=frozenset({(frozenset(), frozenset())}),
    complete=True, reasons=(),
)


@dataclass
class _MethodFacts:
    """What one generator method contributes whatever its callees'
    summaries are.  Computed once per analysis, before the fixpoint: a
    fixpoint round reruns only the lockset dataflow and the merges of the
    delegations below."""

    analysis: MethodAnalysis
    reads: Set[Tuple[str, ...]] = field(default_factory=set)
    writes: Set[Tuple[str, ...]] = field(default_factory=set)
    hidden: Set[Tuple[str, ...]] = field(default_factory=set)
    locks: Set[LockToken] = field(default_factory=set)
    commit_kinds: Set[str] = field(default_factory=set)
    reasons: List[Tuple[int, str]] = field(default_factory=list)
    # the ordered lock events of every CFG node that has any
    events: Dict[Node, Tuple[tuple, ...]] = field(default_factory=dict)
    # (node, path, kind, line) of every traced cell access
    cell_accesses: List[Tuple[Node, Tuple[str, ...], str, int]] = field(
        default_factory=list)
    # (node, callee, line) of every ``yield from self.<generator>(...)``
    delegations: List[Tuple[Node, str, int]] = field(default_factory=list)


class EffectTable:
    """Fixpoint effect summaries for every generator method of a class.

    Recursive helpers converge by iterating summarization until no
    summary changes (all components are finite and grow monotonically).
    A round re-summarizes only the methods whose callees changed since
    their last summary, in the same order, so the result is the one a
    full round would give."""

    def __init__(self, methods: Dict[str, ast.FunctionDef], file: str,
                 line_offset: int, roles: Dict[str, str],
                 confluent: FrozenSet[str]):
        self._methods = methods
        self._file = file
        self._line_offset = line_offset
        self._roles = roles
        self._confluent = confluent
        self._generators = frozenset(
            name for name, fn in methods.items() if _is_generator(fn)
        )
        self._accessors = _AccessorTable(methods, self._generators)
        self._commit_summaries = SummaryTable(methods, file, line_offset)
        self.summaries: Dict[str, EffectSummary] = {}
        self._compute()

    # -- fixpoint driver ----------------------------------------------------

    def _compute(self) -> None:
        names = [name for name in self._methods if name in self._generators]
        for name in names:
            self.summaries[name] = EffectSummary(
                method=name, role=self._roles.get(name, "helper"),
                **_EMPTY_SUMMARY_FIELDS,
            )
        facts = {name: self._method_facts(name) for name in names}
        callers: Dict[str, Set[str]] = {name: set() for name in names}
        for name in names:
            for _, callee, _ in facts[name].delegations:
                callers[callee].add(name)
        stale = set(names)
        for _ in range(4 * len(names) + 8):
            for name in names:
                if name not in stale:
                    continue
                stale.discard(name)
                new = self._summarize(name, facts[name])
                if new != self.summaries[name]:
                    self.summaries[name] = new
                    stale |= callers[name]
            if not stale:
                return
        # non-convergence would be an analyzer bug; pessimise everything
        for name in names:  # pragma: no cover - defensive
            self.summaries[name] = EffectSummary(
                method=name, role=self._roles.get(name, "helper"),
                reads=frozenset(), writes=frozenset(),
                hidden_writes=frozenset(), locks=frozenset(),
                commit_kinds=frozenset(), accesses=(),
                exit_deltas=frozenset({(frozenset(), frozenset())}),
                complete=False,
                reasons=((self._methods[name].lineno + self._line_offset,
                          "effect fixpoint did not converge"),),
            )

    # -- facts that do not depend on other summaries -------------------------

    def _method_facts(self, name: str) -> _MethodFacts:
        analysis = MethodAnalysis(
            self._methods[name], self._roles.get(name, "helper"),
            self._file, self._line_offset, self._commit_summaries,
        )
        facts = _MethodFacts(analysis)
        fn = analysis.fn
        env = self._path_env(analysis)

        def incomplete(node: ast.AST, why: str) -> None:
            facts.reasons.append((analysis.abs_line(node), why))

        # hidden mutations: direct writes / container mutators / next()
        # in the generator body itself, plus any performed by plain
        # helpers it calls
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == analysis.self_name
                    and func.attr in self._methods
                    and func.attr not in self._generators
                ):
                    acc = self._accessors.summary(func.attr)
                    if acc.hidden_writes:
                        facts.hidden |= acc.hidden_writes
                        if func.attr not in self._confluent:
                            incomplete(
                                node,
                                f"calls self.{func.attr}() which mutates "
                                + ", ".join(sorted(
                                    render_path(p)
                                    for p in acc.hidden_writes
                                ))
                                + " outside traced cells (declare it in "
                                "VYRD_CONFLUENT_HELPERS if its effect is "
                                "schedule-confluent)",
                            )
        body_sites = _hidden_write_sites(
            fn, {analysis.self_name: frozenset({()})}, self._accessors
        )
        if body_sites:
            facts.hidden |= {path for _, path in body_sites}
            if name not in self._confluent:
                by_line: Dict[int, Set[Tuple[str, ...]]] = {}
                for lineno, path in body_sites:
                    by_line.setdefault(lineno, set()).add(path)
                for lineno, paths in sorted(by_line.items()):
                    facts.reasons.append((
                        lineno + self._line_offset,
                        "mutates "
                        + ", ".join(sorted(render_path(p) for p in paths))
                        + " without a traced cell.write() syscall (declare "
                        "the method in VYRD_CONFLUENT_HELPERS if its effect "
                        "is schedule-confluent)",
                    ))

        # the lock events of every CFG node, then its traced accesses and
        # delegations (in this order, which fixes the order in which plain
        # helpers are first summarized)
        calls_at = [
            (node, _shallow_yielded_calls(analysis, node))
            for node in analysis.cfg.nodes
        ]
        for node, calls in calls_at:
            events = self._node_events(analysis, calls, env)
            if events:
                facts.events[node] = tuple(events)
        for node, calls in calls_at:
            for call in calls:
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                attr = func.attr
                if _call_is_ctx(call, analysis.ctx_name, attr):
                    if attr == "commit":
                        facts.commit_kinds.add("commit")
                    elif attr == "replay":
                        facts.commit_kinds.add("replay")
                        facts.reads.add(("replay:",))
                        facts.writes.add(("replay:",))
                    elif attr == "end_commit_block":
                        if _commit_kwarg(call) or (
                            call.args
                            and isinstance(call.args[0], ast.Constant)
                            and bool(call.args[0].value)
                        ):
                            facts.commit_kinds.add("commit-block")
                    continue
                if isinstance(analysis.parents.get(call),
                              ast.YieldFrom) and isinstance(
                    func.value, ast.Name
                ) and func.value.id == analysis.self_name:
                    # yield from self.helper(...)
                    if attr not in self._methods:
                        incomplete(
                            call,
                            f"delegates to unknown method self.{attr}(...)",
                        )
                    elif attr not in self._generators:
                        incomplete(
                            call,
                            f"delegates to self.{attr}(...) which is "
                            "not a generator",
                        )
                    else:
                        facts.delegations.append(
                            (node, attr, analysis.abs_line(call))
                        )
                    continue
                if isinstance(analysis.parents.get(call), ast.YieldFrom):
                    # yield from self.other_object.method(...): a syscall
                    # is never yielded-from, so even an attr named like
                    # one (chunks.write) is cross-object delegation whose
                    # effects live in another class, outside this summary
                    incomplete(
                        call,
                        f"delegates to {ast.unparse(func)}(...) outside "
                        "the class; cross-object effects are not "
                        "summarized",
                    )
                    continue
                if attr in _ACQ_ATTRS or attr in _REL_ATTRS:
                    mode = _ACQ_ATTRS.get(attr) or _REL_ATTRS[attr]
                    paths = _resolve(func.value, env, self._accessors)
                    if paths is TOP or (
                        paths is None
                        and _root_name(func.value) in analysis.taint
                    ):
                        incomplete(
                            call,
                            f"cannot resolve the lock of "
                            f"{ast.unparse(func)}(...)",
                        )
                        continue
                    if isinstance(paths, frozenset):
                        if attr in _ACQ_ATTRS:
                            facts.locks |= {
                                (render_path(p), mode) for p in paths
                            }
                        if _commit_kwarg(call):
                            facts.commit_kinds.add("release-commit")
                    continue
                if attr in _READ_ATTRS or attr in _WRITE_ATTRS:
                    paths = _resolve(func.value, env, self._accessors)
                    if paths is TOP or (
                        paths is None
                        and _root_name(func.value) in analysis.taint
                    ):
                        incomplete(
                            call,
                            f"cannot resolve the target of "
                            f"{ast.unparse(func)}(...)",
                        )
                        continue
                    if not isinstance(paths, frozenset):
                        continue
                    kind = "read" if attr in _READ_ATTRS else "write"
                    if kind == "read":
                        facts.reads |= paths
                    else:
                        facts.writes |= paths
                        if _commit_kwarg(call):
                            facts.commit_kinds.add("write-commit")
                    facts.cell_accesses.extend(
                        (node, p, kind, analysis.abs_line(call))
                        for p in paths
                    )
            for yf in _shallow_yield_froms(analysis, node):
                if not isinstance(yf.value, ast.Call):
                    incomplete(
                        yf,
                        "yield from over a non-call expression cannot be "
                        "summarized",
                    )
        return facts

    # -- one summarization pass --------------------------------------------

    def _summarize(self, name: str, facts: _MethodFacts) -> EffectSummary:
        cfg = facts.analysis.cfg
        reads = set(facts.reads)
        writes = set(facts.writes)
        hidden = set(facts.hidden)
        locks = set(facts.locks)
        commit_kinds = set(facts.commit_kinds)
        reasons = list(facts.reasons)
        accesses: Set[Access] = set()

        # lockset dataflow over the CFG
        def transfer(node: Node, state: frozenset) -> frozenset:
            events = facts.events.get(node)
            if not events:
                return state
            out = set(state)
            for event in events:
                new: Set[Tuple[HeldState, FrozenSet[LockToken]]]
                new = set()
                for held, outer in out:
                    if event[0] == "acq":
                        token = event[1]
                        if token in outer:
                            # re-acquiring a lock the caller had held:
                            # the caller's protection is restored
                            new.add((held, outer - {token}))
                        else:
                            new.add((_acq_token(held, token), outer))
                    elif event[0] == "rel":
                        token = event[1]
                        shrunk = _rel_token(held, token)
                        if shrunk is not None:
                            new.add((shrunk, outer))
                        else:
                            new.add((held, outer | {token}))
                    else:  # helper delegation
                        summary = self.summaries.get(event[1])
                        deltas = (
                            summary.exit_deltas if summary is not None
                            else frozenset({(frozenset(), frozenset())})
                        )
                        for add, out_rel in deltas:
                            h, o = held, outer
                            for token, _ in sorted(add):
                                if token in o:
                                    o = o - {token}
                                else:
                                    h = _acq_token(h, token)
                            for token in out_rel:
                                shrunk = _rel_token(h, token)
                                if shrunk is not None:
                                    h = shrunk
                                else:
                                    o = o | {token}
                            new.add((h, o))
                out = new
            return frozenset(out)

        init = frozenset({(frozenset(), frozenset())})
        flow = cfg.forward(init, transfer)

        def must_held(node: Node) -> Tuple[FrozenSet[LockToken],
                                           FrozenSet[LockToken]]:
            states = cfg.in_state(node, flow)
            if not states:
                return frozenset(), frozenset()
            held_sets = [held for held, _ in states]
            outer_sets = [outer for _, outer in states]
            # levels are contiguous from 0, so (token, 0) survives the
            # intersection exactly when every in-state holds the token
            must = _held_tokens(frozenset.intersection(*held_sets))
            outer = frozenset().union(*outer_sets)
            return must, outer

        for node, path, kind, line in facts.cell_accesses:
            must, outer_may = must_held(node)
            accesses.add(Access(
                path=path, kind=kind, line=line, method=name, locks=must,
                outer_released=outer_may,
            ))
        # delegated helper effects
        for node, target, line in facts.delegations:
            must, outer_may = must_held(node)
            summary = self.summaries[target]
            reads |= summary.reads
            writes |= summary.writes
            hidden |= summary.hidden_writes
            locks |= summary.locks
            commit_kinds |= summary.commit_kinds
            if not summary.complete:
                reasons.append((
                    line,
                    f"delegates to self.{target}(...) whose footprint is "
                    "incomplete",
                ))
            for access in summary.accesses:
                accesses.add(Access(
                    path=access.path,
                    kind=access.kind,
                    line=access.line,
                    method=access.method,
                    locks=access.locks | (must - access.outer_released),
                    outer_released=access.outer_released | outer_may,
                ))

        # locks still held at normal exits = the method's lock delta
        exit_deltas: Set[tuple] = set()
        for node, kind in cfg.exits:
            if kind == "raise":
                continue
            for held, outer in flow.get(node, frozenset()):
                exit_deltas.add((held, outer))
        if not exit_deltas:
            exit_deltas.add((frozenset(), frozenset()))

        return EffectSummary(
            method=name,
            role=self._roles.get(name, "helper"),
            reads=frozenset(reads),
            writes=frozenset(writes),
            hidden_writes=frozenset(hidden),
            locks=frozenset(locks),
            commit_kinds=frozenset(commit_kinds),
            accesses=tuple(sorted(
                accesses, key=lambda a: (a.line, a.path, a.kind)
            )),
            exit_deltas=frozenset(exit_deltas),
            # every incompleteness is recorded with its reason
            complete=not reasons,
            reasons=tuple(sorted(set(reasons))),
        )

    # -- supporting facts ---------------------------------------------------

    def _path_env(self, analysis: MethodAnalysis) -> Dict[str, object]:
        """Fixpoint local-name -> abstract-paths binding (the path-grained
        refinement of the VY001 taint set)."""
        env: Dict[str, object] = {analysis.self_name: frozenset({()})}
        binders = [
            node for node in ast.walk(analysis.fn)
            if isinstance(node, (ast.Assign, ast.For, ast.With,
                                 ast.AsyncWith))
        ]
        for _ in range(8):
            changed = False

            def bind(name: str, value: object) -> None:
                nonlocal changed
                if value is None:
                    return
                old = env.get(name)
                if value is TOP:
                    if old is not TOP:
                        env[name] = TOP
                        changed = True
                    return
                if old is TOP:
                    return
                merged = (old or frozenset()) | value
                if merged != old:
                    env[name] = merged
                    changed = True

            for node in binders:
                if isinstance(node, ast.Assign):
                    if isinstance(node.value, ast.Tuple):
                        for target in node.targets:
                            if isinstance(target, ast.Tuple) and len(
                                target.elts
                            ) == len(node.value.elts):
                                for t, v in zip(target.elts,
                                                node.value.elts):
                                    if isinstance(t, ast.Name):
                                        bind(t.id, _resolve(
                                            v, env, self._accessors))
                        continue
                    value = _resolve(node.value, env, self._accessors)
                    tuple_summary = self._tuple_call_summary(node.value)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bind(target.id, value)
                        elif isinstance(target, ast.Tuple):
                            if tuple_summary is not None and len(
                                target.elts
                            ) == len(tuple_summary):
                                for t, v in zip(target.elts,
                                                tuple_summary):
                                    if isinstance(t, ast.Name):
                                        bind(t.id, v)
                            else:
                                for t in target.elts:
                                    if isinstance(t, ast.Name):
                                        bind(t.id, value)
                elif isinstance(node, ast.For):
                    iterated = _resolve(node.iter, env, self._accessors)
                    if iterated is TOP:
                        element = TOP
                    elif isinstance(iterated, frozenset):
                        element = frozenset(
                            p + ("[*]",) for p in iterated
                        )
                    else:
                        element = None
                    if isinstance(node.target, ast.Name):
                        bind(node.target.id, element)
                    elif isinstance(node.target, ast.Tuple):
                        for t in node.target.elts:
                            if isinstance(t, ast.Name):
                                bind(t.id, element)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if item.optional_vars is not None and isinstance(
                            item.optional_vars, ast.Name
                        ):
                            bind(item.optional_vars.id, _resolve(
                                item.context_expr, env, self._accessors))
            if not changed:
                break
        return env

    def _tuple_call_summary(
        self, value: ast.AST
    ) -> Optional[Tuple[object, ...]]:
        """``a, b = self.accessor()`` elementwise binding support."""
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and isinstance(value.func.value, ast.Name)
        ):
            return None
        summary = self._accessors.summary(value.func.attr)
        if isinstance(summary.returns, tuple):
            return summary.returns
        return None

    def _node_events(self, analysis: MethodAnalysis, calls: List[ast.Call],
                     env: Dict[str, object]) -> List[tuple]:
        """Ordered lock events of one CFG node's yielded ``calls``."""
        events: List[tuple] = []
        for call in calls:
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            attr = func.attr
            if _call_is_ctx(call, analysis.ctx_name, attr):
                continue
            if isinstance(analysis.parents.get(call), ast.YieldFrom) and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == analysis.self_name:
                events.append(("helper", attr))
                continue
            if attr in _ACQ_ATTRS or attr in _REL_ATTRS:
                paths = _resolve(func.value, env, self._accessors)
                if isinstance(paths, frozenset) and len(paths) == 1:
                    token = (render_path(next(iter(paths))),
                             _ACQ_ATTRS.get(attr) or _REL_ATTRS[attr])
                    events.append((
                        "acq" if attr in _ACQ_ATTRS else "rel", token,
                    ))
                # multi-path / unresolvable lock: no must-held effect
        return events


def _shallow_yielded_calls(analysis: MethodAnalysis,
                           node: Node) -> List[ast.Call]:
    """Yield-driven calls belonging to this CFG node only (compound
    statements contribute just their header expression)."""
    if node.stmt is None or node.kind == "handler":
        return []
    stmt = node.stmt
    if isinstance(stmt, (ast.If, ast.While, ast.For, ast.Try, ast.With)):
        stmt = getattr(stmt, "test", None) or getattr(stmt, "iter", None)
        if stmt is None:
            return []
    return [
        call
        for call in ast.walk(stmt)
        if isinstance(call, ast.Call) and analysis.yielded_call(call)
    ]


def _shallow_yield_froms(analysis: MethodAnalysis,
                         node: Node) -> List[ast.YieldFrom]:
    if node.stmt is None or node.kind == "handler":
        return []
    stmt = node.stmt
    if isinstance(stmt, (ast.If, ast.While, ast.For, ast.Try, ast.With)):
        stmt = getattr(stmt, "test", None) or getattr(stmt, "iter", None)
        if stmt is None:
            return []
    return [n for n in ast.walk(stmt) if isinstance(n, ast.YieldFrom)]


# ---------------------------------------------------------------------------
# Pair classification and the independence matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairVerdict:
    verdict: str  # independent | conditional | dependent
    reason: str

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason}


def classify_pair(a: EffectSummary, b: EffectSummary) -> PairVerdict:
    """Conservative commutativity of two whole operations.

    The reason names the first overlap in sorted order, so it does not
    depend on the hash seed or on the order the footprints were built in."""
    if not a.complete:
        return PairVerdict(
            DEPENDENT, f"{a.method} has an incomplete footprint (VY008)"
        )
    if not b.complete:
        return PairVerdict(
            DEPENDENT, f"{b.method} has an incomplete footprint (VY008)"
        )
    starred_only = True
    conflict: Optional[str] = None
    for left, right, label in (
        (a.footprint_writes(), b.footprint_writes() | b.reads, "write"),
        (b.footprint_writes(), a.reads, "write"),
    ):
        for pa in sorted(left):
            for pb in sorted(right):
                if paths_overlap(pa, pb):
                    conflict = conflict or (
                        f"{label} overlap on "
                        f"{render_path(max(pa, pb, key=len))}"
                    )
                    if not _overlap_is_starred(pa, pb):
                        starred_only = False
    for la, ma in sorted(a.locks):
        for lb, mb in sorted(b.locks):
            if la == lb and not (ma == "r" and mb == "r"):
                conflict = conflict or f"shared lock {la}"
                if "[*]" not in la:
                    starred_only = False
    if conflict is None:
        return PairVerdict(
            INDEPENDENT, "disjoint footprints and locksets"
        )
    if starred_only:
        return PairVerdict(
            CONDITIONAL,
            f"{conflict}; commutes when the operations touch distinct "
            "elements",
        )
    return PairVerdict(DEPENDENT, conflict)


# ---------------------------------------------------------------------------
# VY007 / VY008 passes
# ---------------------------------------------------------------------------


def _literal_string_tuple(classdef: ast.ClassDef,
                          attr: str) -> FrozenSet[str]:
    for stmt in classdef.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == attr for t in stmt.targets
        ):
            continue
        if isinstance(stmt.value, (ast.Tuple, ast.List)):
            return frozenset(
                elt.value
                for elt in stmt.value.elts
                if isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)
            )
    return frozenset()


def _finding(rule_id: str, method: str, file: str, line: int,
             message: str) -> LintFinding:
    rule = RULES[rule_id]
    return LintFinding(
        rule_id=rule_id, severity=rule.severity, method=method,
        file=file, line=line, message=message,
    )


def _vy007_findings(effects: "ClassEffects") -> Iterator[LintFinding]:
    """Static Eraser: every shared field written by some operation must
    have a lock common to all the writes, and every access must
    intersect that candidate set."""
    by_path: Dict[Tuple[str, ...], List[Access]] = {}
    for op in sorted(effects.operations):
        summary = effects.summaries[op]
        for access in summary.accesses:
            by_path.setdefault(access.path, []).append(access)
    for path in sorted(by_path):
        rendered = render_path(path)
        if rendered in effects.atomic_fields:
            continue
        accesses = by_path[path]
        writes = [a for a in accesses if a.kind == "write"]
        if not writes:
            continue
        if not any(a.locks for a in accesses):
            # no access ever holds a lock: there is no lock discipline to
            # be inconsistent with (fully lock-free fields are vetted by
            # the dynamic engines / VYRD_ATOMIC_FIELDS instead)
            continue
        candidate = frozenset.intersection(
            *(frozenset(base for base, _ in a.locks) for a in writes)
        )
        if not candidate:
            first = min(writes, key=lambda a: a.line)
            locksets = sorted({
                "{" + ", ".join(sorted(_render_lock(t)
                                       for t in a.locks)) + "}"
                + f" (line {a.line})"
                for a in writes
            })
            yield _finding(
                "VY007", first.method, effects.file, first.line,
                f"shared field {rendered} is written under "
                f"non-intersecting lock sets: {'; '.join(locksets)}",
            )
            continue
        for access in sorted(accesses, key=lambda a: (a.line, a.kind)):
            held = frozenset(base for base, _ in access.locks)
            if held & candidate:
                continue
            yield _finding(
                "VY007", access.method, effects.file, access.line,
                f"shared field {rendered} is {access.kind} here holding "
                f"{{{', '.join(sorted(_render_lock(t) for t in access.locks)) or ''}}} "
                f"but every write holds "
                f"{{{', '.join(sorted(candidate))}}}; the lock sets never "
                "intersect (static Eraser)",
            )


def _vy008_findings(effects: "ClassEffects") -> Iterator[LintFinding]:
    for op in sorted(effects.operations):
        summary = effects.summaries[op]
        if summary.complete:
            continue
        for line, reason in summary.reasons:
            yield _finding(
                "VY008", op, effects.file, line,
                f"cannot bound the effect footprint of {op}: {reason}; "
                "schedule reduction must treat it as conflicting with "
                "every operation",
            )


# ---------------------------------------------------------------------------
# Class-level driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassEffects:
    """The complete static effect analysis of one implementation class.

    Read-only, because :func:`analyze_class` hands one object to every
    caller in the process: ``summaries`` and ``matrix`` are read-only
    mappings and ``findings`` is a tuple."""

    class_name: str
    file: str
    operations: Tuple[str, ...]
    summaries: Mapping[str, EffectSummary]
    matrix: Mapping[Tuple[str, str], PairVerdict]
    atomic_fields: FrozenSet[str] = frozenset()
    confluent_helpers: FrozenSet[str] = frozenset()
    findings: Tuple[LintFinding, ...] = ()

    def verdict(self, a: str, b: str) -> str:
        return self.matrix[(min(a, b), max(a, b))].verdict

    def incomplete_operations(self) -> FrozenSet[str]:
        return frozenset(
            op for op in self.operations
            if not self.summaries[op].complete
        )

    def to_dict(self) -> dict:
        return {
            "class": self.class_name,
            "file": self.file,
            "operations": {
                op: self.summaries[op].to_dict() for op in self.operations
            },
            "matrix": {
                f"{a} x {b}": verdict.to_dict()
                for (a, b), verdict in sorted(self.matrix.items())
            },
            "atomic_fields": sorted(self.atomic_fields),
            "confluent_helpers": sorted(self.confluent_helpers),
            "incomplete_operations": sorted(self.incomplete_operations()),
        }


def analyze_class_source(
    source: str,
    *,
    filename: str = "<effects>",
    first_line: int = 1,
    classname: Optional[str] = None,
    operations: Optional[Set[str]] = None,
    observers: Optional[Set[str]] = None,
) -> ClassEffects:
    """Compute effect summaries, the independence matrix and the
    VY007/VY008 findings for one class given its source text."""
    import textwrap

    from .analyzer import (
        _decorated_operations,
        _declared_observers,
    )

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
    roles = {
        name: (OBSERVER if name in observers else MUTATOR)
        if name in operations else "helper"
        for name in methods
    }
    confluent = _literal_string_tuple(classdef, "VYRD_CONFLUENT_HELPERS")
    atomic = _literal_string_tuple(classdef, "VYRD_ATOMIC_FIELDS")
    table = EffectTable(
        methods, filename, first_line - 1, roles, confluent,
    )
    ops = tuple(sorted(op for op in operations if op in table.summaries))
    matrix: Dict[Tuple[str, str], PairVerdict] = {}
    for i, a in enumerate(ops):
        for b in ops[i:]:
            matrix[(a, b)] = classify_pair(
                table.summaries[a], table.summaries[b]
            )
    effects = ClassEffects(
        class_name=classdef.name,
        file=filename,
        operations=ops,
        summaries=MappingProxyType(table.summaries),
        matrix=MappingProxyType(matrix),
        atomic_fields=atomic,
        confluent_helpers=confluent,
    )
    findings = list(_vy007_findings(effects))
    findings.extend(_vy008_findings(effects))
    # helper accesses inline into several operations; identical findings
    # collapse to one
    findings = sorted(
        set(findings), key=lambda f: (f.file, f.line, f.rule_id, f.message)
    )
    return replace(effects, findings=tuple(findings))


#: class -> {(operations, observers): analysis}; see :func:`analyze_class`
_ANALYSES: "weakref.WeakKeyDictionary[type, Dict[tuple, ClassEffects]]" = (
    weakref.WeakKeyDictionary()
)


def analyze_class(impl, *, observers: Optional[Set[str]] = None) -> ClassEffects:
    """Analyze a live implementation class (or an instance of one).

    One analysis per class per process: the result is memoized under the
    class object (held weakly), its ``@operation`` set and its observers,
    so a repeated call neither reads the source nor runs the fixpoint.
    The key needs no digest of the source: a loaded class changes only by
    re-import, which makes a new class object (and reading the source
    costs as much as a small analysis)."""
    return _memoized_analysis(impl, observers, None)


def _memoized_analysis(impl, observers: Optional[Set[str]],
                       source: Optional[Tuple[List[str], int]]) -> ClassEffects:
    """:func:`analyze_class`; ``source`` is the class's
    ``inspect.getsourcelines`` when the caller has read it already (the
    linter), so a memo miss does not read it again."""
    import inspect

    cls = impl if inspect.isclass(impl) else type(impl)
    ops = frozenset(
        name
        for name in dir(cls)
        if getattr(getattr(cls, name, None), "_vyrd_operation", False)
    )
    if observers is None:
        declared = getattr(cls, "VYRD_METHODS", None)
        if isinstance(declared, dict):
            observers = {
                name for name, role in declared.items()
                if role == "observer"
            }
    key = (ops, None if observers is None else frozenset(observers))
    memo = _ANALYSES.setdefault(cls, {})
    if key not in memo:
        if source is None:
            try:
                source = inspect.getsourcelines(cls)
            except (OSError, TypeError) as exc:
                raise ValueError(
                    f"cannot retrieve source for {cls.__name__}: {exc}"
                ) from exc
        lines, first_line = source
        memo[key] = analyze_class_source(
            "".join(lines),
            filename=inspect.getsourcefile(cls) or "<unknown>",
            first_line=first_line,
            classname=cls.__name__,
            operations=ops or None,
            observers=observers,
        )
    return memo[key]


def analyze_program(name: str) -> ClassEffects:
    """Analyze the implementation class behind one registry program."""
    from ..harness.workload import PROGRAMS  # late import

    built = PROGRAMS[name].build(False, 1)
    return analyze_class(built.impl)


def effect_findings(
    source: str,
    *,
    filename: str = "<lint>",
    first_line: int = 1,
    classname: Optional[str] = None,
    operations: Optional[Set[str]] = None,
    observers: Optional[Set[str]] = None,
) -> List[LintFinding]:
    """The VY007/VY008 findings alone (what ``lint_class_source`` folds
    into the per-method rule findings)."""
    return list(analyze_class_source(
        source,
        filename=filename,
        first_line=first_line,
        classname=classname,
        operations=operations,
        observers=observers,
    ).findings)
