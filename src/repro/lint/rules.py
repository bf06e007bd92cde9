"""The six rule passes of the static instrumentation analyzer.

Each pass is a function ``(MethodAnalysis) -> Iterator[LintFinding]``
sharing one per-method CFG (:mod:`repro.lint.cfg`) plus two cheap
AST-derived facts:

* the *taint set*: local names bound (transitively) to state reachable
  from ``self``, so that ``slot = self.slots[i]; slot.lock.acquire()``
  is recognized as a kernel-syscall call and ``slot.elt.value = x`` as a
  direct shared write;
* the *commit points* of every statement: yielded calls carrying
  ``commit=True``, ``ctx.commit()``, and ``yield from self.helper(...)``
  delegations whose helper commits (a one-level interprocedural summary
  computed per class).

Rule catalog (see :mod:`repro.lint.model` for severities):

VY001 missing-yield, VY002 commit-reachability, VY003 multi-commit-path,
VY004 commit-block-balance, VY005 unlogged-shared-write, VY006
observer-commits.

``ctx.spawn(...)`` is deliberately *not* part of the syscall surface:
unlike ``ctx.join`` it is a plain call into the kernel (yielding the
returned ``SimThread`` would itself be a kernel type error), so an
unyielded spawn is correct code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .cfg import CFG, Node, build_cfg
from .model import RULES, LintFinding

# attribute calls on self-reachable state that build kernel syscalls
SYSCALL_ATTRS = {"read", "write", "acquire", "release"}
# syscall-building methods of the ThreadCtx handle (ctx.spawn excluded)
CTX_SYSCALLS = {
    "commit",
    "checkpoint",
    "begin_commit_block",
    "end_commit_block",
    "replay",
    "join",
}

MUTATOR = "mutator"
OBSERVER = "observer"

# commit summaries for helper methods
NEVER = "never"
MAY = "may"
ALWAYS = "always"


# ---------------------------------------------------------------------------
# Shared per-method facts
# ---------------------------------------------------------------------------


def _root_name(expr: ast.AST) -> Optional[str]:
    """The base ``Name`` a value chain hangs off (``self.slots[i].lock``
    -> ``self``; ``self.node(nid).record`` -> ``self``)."""
    while True:
        if isinstance(expr, ast.Attribute):
            expr = expr.value
        elif isinstance(expr, ast.Subscript):
            expr = expr.value
        elif isinstance(expr, ast.Call):
            expr = expr.func
        elif isinstance(expr, ast.Name):
            return expr.id
        else:
            return None


def _parent_map(fn: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(fn):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


#: scopes whose yields belong to themselves, not to the enclosing function
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                  ast.ClassDef)


def _is_generator(fn: ast.FunctionDef) -> bool:
    """Does ``fn``'s own body yield?  The walk stops at nested scopes."""
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, _NESTED_SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return False


def _compute_taint(fn: ast.FunctionDef, self_name: str) -> Set[str]:
    """Local names transitively bound to state reachable from ``self``."""
    taint = {self_name}
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                if _root_name(node.value) in taint:
                    for target in node.targets:
                        changed |= _taint_target(target, taint)
                elif isinstance(node.value, ast.Tuple):
                    for target in node.targets:
                        if isinstance(target, ast.Tuple) and len(
                            target.elts
                        ) == len(node.value.elts):
                            for t, v in zip(target.elts, node.value.elts):
                                if _root_name(v) in taint:
                                    changed |= _taint_target(t, taint)
            elif isinstance(node, ast.For):
                if _root_name(node.iter) in taint:
                    changed |= _taint_target(node.target, taint)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None and _root_name(
                        item.context_expr
                    ) in taint:
                        changed |= _taint_target(item.optional_vars, taint)
    return taint


def _taint_target(target: ast.AST, taint: Set[str]) -> bool:
    changed = False
    if isinstance(target, ast.Name) and target.id not in taint:
        taint.add(target.id)
        changed = True
    elif isinstance(target, ast.Tuple):
        for elt in target.elts:
            changed |= _taint_target(elt, taint)
    return changed


def _call_is_ctx(call: ast.Call, ctx_name: Optional[str], attr: str) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == attr
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == ctx_name
    )


def _commit_kwarg(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "commit":
            return isinstance(keyword.value, ast.Constant) and bool(
                keyword.value.value
            )
    return False


def _forwards_commit_flag(call: ast.Call) -> bool:
    """``yield from self.helper(..., commit_last=True)``: the commit action
    rides inside the helper, switched on by a constant-true flag whose
    name starts with ``commit``."""
    return any(
        keyword.arg is not None
        and keyword.arg.startswith("commit")
        and isinstance(keyword.value, ast.Constant)
        and bool(keyword.value.value)
        for keyword in call.keywords
    )


def _commit_positional(call: ast.Call, ctx_name: Optional[str]) -> bool:
    """``ctx.end_commit_block(True)`` / ``ctx.replay(tag, payload, True)``."""
    if _call_is_ctx(call, ctx_name, "end_commit_block") and call.args:
        flag = call.args[0]
        return isinstance(flag, ast.Constant) and bool(flag.value)
    if _call_is_ctx(call, ctx_name, "replay") and len(call.args) >= 3:
        flag = call.args[2]
        return isinstance(flag, ast.Constant) and bool(flag.value)
    return False


@dataclass
class MethodAnalysis:
    """One method's AST plus the facts every rule pass shares."""

    fn: ast.FunctionDef
    role: str  # "mutator" | "observer" | "helper"
    file: str
    line_offset: int
    summaries: "SummaryTable"
    cfg: CFG = field(init=False)
    parents: Dict[ast.AST, ast.AST] = field(init=False)
    taint: Set[str] = field(init=False)

    def __post_init__(self) -> None:
        args = self.fn.args.args
        self.self_name = args[0].arg if args else "self"
        self.ctx_name = args[1].arg if len(args) > 1 else None
        self.cfg = build_cfg(self.fn)
        self.parents = _parent_map(self.fn)
        self.taint = _compute_taint(self.fn, self.self_name)

    @property
    def name(self) -> str:
        return self.fn.name

    def abs_line(self, node: ast.AST) -> int:
        return getattr(node, "lineno", self.fn.lineno) + self.line_offset

    def finding(self, rule_id: str, node: ast.AST, message: str) -> LintFinding:
        rule = RULES[rule_id]
        return LintFinding(
            rule_id=rule_id,
            severity=rule.severity,
            method=self.name,
            file=self.file,
            line=self.abs_line(node),
            message=message,
        )

    # -- yielded calls and commit points -----------------------------------

    def yielded_call(self, call: ast.Call) -> bool:
        parent = self.parents.get(call)
        return (
            isinstance(parent, (ast.Yield, ast.YieldFrom))
            and parent.value is call
        )

    def yielded_ctx_calls(self, stmt: ast.AST, attr: str) -> List[ast.Call]:
        return [
            node
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
            and _call_is_ctx(node, self.ctx_name, attr)
            and self.yielded_call(node)
        ]

    def commit_points(self, stmt: ast.AST) -> Tuple[int, int]:
        """(definite, may) commit points logged by executing ``stmt``.

        Only *yielded* calls count: an unyielded ``ctx.commit()`` never
        reaches the kernel (that is VY001's finding, not a commit).
        """
        definite = 0
        may = 0
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call) or not self.yielded_call(node):
                continue
            if _commit_kwarg(node) or _commit_positional(node, self.ctx_name):
                definite += 1
            elif _call_is_ctx(node, self.ctx_name, "commit"):
                definite += 1
            elif (
                isinstance(self.parents.get(node), ast.YieldFrom)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == self.self_name
            ):
                if node.func.attr == self.fn.name:
                    # direct recursion: the execution continues through
                    # this very method, whose other paths are checked
                    definite += 1
                elif _forwards_commit_flag(node):
                    definite += 1
                else:
                    summary = self.summaries.commit_summary(node.func.attr)
                    if summary == ALWAYS:
                        definite += 1
                    elif summary == MAY:
                        may += 1
        return definite, may

    def node_commits(self, node: Node) -> Tuple[int, int]:
        if node.stmt is None or node.kind == "handler":
            return 0, 0
        return self.commit_points_shallow(node.stmt)

    def commit_points_shallow(self, stmt: ast.AST) -> Tuple[int, int]:
        """Commit points of one CFG node, not descending into compound
        statements' bodies (those are separate CFG nodes)."""
        if isinstance(
            stmt, (ast.If, ast.While, ast.For, ast.Try, ast.With)
        ):
            # only the header expression belongs to this node
            header = getattr(stmt, "test", None) or getattr(stmt, "iter", None)
            if header is None:
                return 0, 0
            return self.commit_points(header)
        return self.commit_points(stmt)


# ---------------------------------------------------------------------------
# Helper commit summaries (one-level interprocedural)
# ---------------------------------------------------------------------------


class SummaryTable:
    """Lazily computed ``helper name -> never | may | always`` commit
    summaries for the methods of one class."""

    def __init__(self, methods: Dict[str, ast.FunctionDef], file: str,
                 line_offset: int):
        self._methods = methods
        self._file = file
        self._line_offset = line_offset
        self._memo: Dict[str, str] = {}
        self._in_progress: Set[str] = set()

    def commit_summary(self, name: str) -> str:
        if name in self._memo:
            return self._memo[name]
        fn = self._methods.get(name)
        if fn is None or name in self._in_progress:
            return MAY  # unknown or recursive: assume it may commit
        self._in_progress.add(name)
        try:
            analysis = MethodAnalysis(
                fn, "helper", self._file, self._line_offset, self
            )
            summary = self._summarize(analysis)
        finally:
            self._in_progress.discard(name)
        self._memo[name] = summary
        return summary

    @staticmethod
    def _summarize(analysis: MethodAnalysis) -> str:
        commits = {
            node
            for node in analysis.cfg.nodes
            if analysis.node_commits(node)[0] > 0
        }
        maybe = any(
            analysis.node_commits(node)[1] > 0 for node in analysis.cfg.nodes
        )
        if not commits:
            return MAY if maybe else NEVER
        if _path_avoiding(analysis.cfg, commits):
            return MAY
        return ALWAYS


def _path_avoiding(cfg: CFG, blocked: Set[Node]) -> bool:
    """Is a normal exit (return / fall-off) reachable from entry without
    executing any node in ``blocked``?"""
    exits = {node for node, kind in cfg.exits if kind != "raise"}
    stack = [cfg.entry]
    seen = {cfg.entry}
    while stack:
        node = stack.pop()
        if node in exits:
            return True
        for succ in cfg.succ[node]:
            if succ not in seen and succ not in blocked:
                seen.add(succ)
                stack.append(succ)
    return False


# ---------------------------------------------------------------------------
# VY001 missing-yield
# ---------------------------------------------------------------------------


def check_missing_yield(analysis: MethodAnalysis) -> Iterator[LintFinding]:
    for node in ast.walk(analysis.fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        surface = None
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == analysis.ctx_name
            and func.attr in CTX_SYSCALLS
        ):
            surface = f"{analysis.ctx_name}.{func.attr}(...)"
        elif (
            func.attr in SYSCALL_ATTRS
            and _root_name(func.value) in analysis.taint
        ):
            surface = f"{ast.unparse(func)}(...)"
        if surface is None or analysis.yielded_call(node):
            continue
        yield analysis.finding(
            "VY001",
            node,
            f"{surface} is a kernel syscall but is not driven by "
            "yield / yield from; the call has no effect on the "
            "simulated run or the log",
        )


# ---------------------------------------------------------------------------
# VY002 commit-reachability / VY003 multi-commit-path
# ---------------------------------------------------------------------------


def check_commit_reachability(analysis: MethodAnalysis) -> Iterator[LintFinding]:
    if analysis.role != MUTATOR:
        return
    commits = {
        node
        for node in analysis.cfg.nodes
        if analysis.node_commits(node)[0] > 0
    }
    if not _reach_exit_avoiding(analysis.cfg, commits):
        return
    exit_node = _first_uncommitted_exit(analysis.cfg, commits)
    where = exit_node if exit_node is not None else analysis.fn
    yield analysis.finding(
        "VY002",
        where.stmt if isinstance(where, Node) and where.stmt else analysis.fn,
        "mutator has a path from entry to return that crosses no commit "
        "point (commit=True keyword or yielded ctx.commit()); executions "
        "along it never appear in the commit-order witness",
    )


def _reach_exit_avoiding(cfg: CFG, blocked: Set[Node]) -> bool:
    return _path_avoiding(cfg, blocked)


def _first_uncommitted_exit(cfg: CFG, blocked: Set[Node]) -> Optional[Node]:
    exits = {node for node, kind in cfg.exits if kind != "raise"}
    stack = [cfg.entry]
    seen = {cfg.entry}
    while stack:
        node = stack.pop()
        if node in exits:
            return node
        for succ in sorted(cfg.succ[node], key=lambda n: n.index):
            if succ not in seen and succ not in blocked:
                seen.add(succ)
                stack.append(succ)
    return None


def check_multi_commit(analysis: MethodAnalysis) -> Iterator[LintFinding]:
    if analysis.role != MUTATOR:
        return
    for stmt in ast.walk(analysis.fn):
        if analysis.yielded_ctx_calls(stmt, "begin_commit_block"):
            return  # commit blocks legitimately contain internal commits
    counts: Dict[Node, Tuple[int, int]] = {
        node: analysis.node_commits(node) for node in analysis.cfg.nodes
    }

    def transfer(node: Node, state: frozenset) -> frozenset:
        definite, may = counts[node]
        out = {min(c + definite, 2) for c in state}
        if may:
            out |= {min(c + definite + may, 2) for c in state}
        return frozenset(out)

    out = analysis.cfg.forward(frozenset({0}), transfer)
    reported: Set[int] = set()
    for node in analysis.cfg.nodes:
        definite, may = counts[node]
        if definite + may == 0:
            continue
        already = analysis.cfg.in_state(node, out)
        if any(c >= 1 for c in already) and node.line not in reported:
            reported.add(node.line)
            yield analysis.finding(
                "VY003",
                node.stmt,
                "a path through this mutator already logged a commit "
                "action before this commit point; one execution would "
                "commit more than once (open a commit block if the "
                "internal commits are intentional)",
            )


# ---------------------------------------------------------------------------
# VY004 commit-block balance
# ---------------------------------------------------------------------------


def check_commit_block_balance(analysis: MethodAnalysis) -> Iterator[LintFinding]:
    begins: Dict[Node, int] = {}
    ends: Dict[Node, int] = {}
    for node in analysis.cfg.nodes:
        if node.stmt is None or node.kind == "handler":
            continue
        stmt = node.stmt
        if isinstance(stmt, (ast.If, ast.While, ast.For, ast.Try, ast.With)):
            continue
        begins[node] = len(
            analysis.yielded_ctx_calls(stmt, "begin_commit_block")
        )
        ends[node] = len(analysis.yielded_ctx_calls(stmt, "end_commit_block"))
    if not any(begins.values()) and not any(ends.values()):
        return

    findings: List[LintFinding] = []

    def transfer(node: Node, state: frozenset) -> frozenset:
        depths = set(state)
        for _ in range(begins.get(node, 0)):
            depths = {min(d + 1, 2) for d in depths}
        for _ in range(ends.get(node, 0)):
            depths = {max(d - 1, 0) for d in depths}
        return frozenset(depths)

    out = analysis.cfg.forward(frozenset({0}), transfer)
    for node in analysis.cfg.nodes:
        state = analysis.cfg.in_state(node, out)
        if not state:
            continue  # unreachable
        if begins.get(node, 0) and any(d >= 1 for d in state):
            findings.append(
                analysis.finding(
                    "VY004",
                    node.stmt,
                    "begin_commit_block while a commit block is already "
                    "open on some path; blocks must not nest",
                )
            )
        if ends.get(node, 0) and any(d == 0 for d in state):
            findings.append(
                analysis.finding(
                    "VY004",
                    node.stmt,
                    "end_commit_block without a matching "
                    "begin_commit_block on some path",
                )
            )
    for node, kind in analysis.cfg.exits:
        if not out.get(node):
            continue  # unreachable exit
        if any(d >= 1 for d in out[node]):
            via = (
                "an exception edge"
                if kind == "raise"
                else "a return path" if kind == "return" else "a fall-off path"
            )
            findings.append(
                analysis.finding(
                    "VY004",
                    node.stmt if node.stmt is not None else analysis.fn,
                    f"commit block is still open when the method exits via "
                    f"{via}; every path must close it",
                )
            )
    seen: Set[Tuple[int, str]] = set()
    for finding in findings:
        key = (finding.line, finding.message)
        if key not in seen:
            seen.add(key)
            yield finding


# ---------------------------------------------------------------------------
# VY005 unlogged-shared-write
# ---------------------------------------------------------------------------


def check_unlogged_shared_write(analysis: MethodAnalysis) -> Iterator[LintFinding]:
    for node in ast.walk(analysis.fn):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            for leaf in _flatten_targets(target):
                if not isinstance(leaf, (ast.Attribute, ast.Subscript)):
                    continue
                if _root_name(leaf) in analysis.taint:
                    yield analysis.finding(
                        "VY005",
                        node,
                        f"direct write to {ast.unparse(leaf)} mutates "
                        "state reachable from self without a traced "
                        "cell.write() syscall; the checker and the log "
                        "never see it",
                    )


def _flatten_targets(target: ast.AST) -> Iterator[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten_targets(elt)
    else:
        yield target


# ---------------------------------------------------------------------------
# VY006 observer-commits
# ---------------------------------------------------------------------------


def check_observer_commits(analysis: MethodAnalysis) -> Iterator[LintFinding]:
    if analysis.role != OBSERVER:
        return
    for node in analysis.cfg.nodes:
        definite, may = analysis.node_commits(node)
        if definite or may:
            qualifier = "" if definite else "may "
            yield analysis.finding(
                "VY006",
                node.stmt,
                f"method is declared an observer but {qualifier}logs a "
                "commit action here; observers are placed by their "
                "read window, not by commit order",
            )


OPERATION_PASSES = (
    check_missing_yield,
    check_commit_reachability,
    check_multi_commit,
    check_commit_block_balance,
    check_unlogged_shared_write,
    check_observer_commits,
)

# helper generators (compression passes, internal subroutines) still must
# yield their syscalls, keep commit blocks balanced and go through traced
# cells -- but commit placement is judged at the operation that calls them
HELPER_PASSES = (
    check_missing_yield,
    check_commit_block_balance,
    check_unlogged_shared_write,
)
