"""resource-ownership: every long-lived resource has exactly one owner.

The EADDRINUSE / leaked-ProcessPoolExecutor bug class came from
transports and pools constructed with no closing owner.  A construction
of a tracked resource is accepted only when one of these holds:

* it is a ``with``-statement item (or a branch of a conditional one),
* it is lexically inside a ``try`` that has a ``finally`` block,
* it is an assignment whose *next* statement is such a ``try``,
* it is assigned to ``self.<attr>`` in a class that defines ``close``,
  ``shutdown`` or ``__exit__`` (the instance is the owner),
* the line carries an explicit hand-off: ``# repro: owner(<who>)``.

Anything else — including ``return Constructor(...)`` — is an error.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.core import Finding, SourceFile

RULE = "resource-ownership"

_HINT = (
    "wrap in `with`, close in a `finally`, or annotate the hand-off "
    "with # repro: owner(<who>)"
)

# Constructor names (bare or attribute tail) that yield resources
# needing a closing owner.
_CONSTRUCTORS = {
    "TcpTransport",
    "LocalTransport",
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
    "build_evaluator",
    "build_cache",
    "resolve_transport",
    "socket",
    "create_connection",
    "create_server",
    "open",
}
_CLOSER_METHODS = {"close", "shutdown", "__exit__", "__del__"}


def _constructor_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name) and func.id in _CONSTRUCTORS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _CONSTRUCTORS:
        return func.attr
    return None


def _try_has_finally(node: ast.AST) -> bool:
    return isinstance(node, ast.Try) and bool(node.finalbody)


class _Context:
    """Lexical facts accumulated on the way down to a call node."""

    def __init__(self) -> None:
        self.with_expr_nodes: Set[int] = set()
        self.try_finally_depth = 0
        self.class_closers: List[bool] = []
        self.stmt_stack: List[ast.stmt] = []


class _Visitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.findings: List[Finding] = []
        self.ctx = _Context()
        # id(stmt) -> the statement following it in the same block.
        self._next_stmt = {}
        assert source.tree is not None
        for node in ast.walk(source.tree):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if isinstance(block, list):
                    for a, b in zip(block, block[1:]):
                        self._next_stmt[id(a)] = b

    # -- context tracking ---------------------------------------------

    def _visit_with(self, node: ast.AST) -> None:
        for item in getattr(node, "items", []):
            # The with owns what its item evaluates to (either branch of
            # a conditional), not what the item's arguments construct.
            pending = [item.context_expr]
            while pending:
                expr = pending.pop()
                self.ctx.with_expr_nodes.add(id(expr))
                if isinstance(expr, ast.IfExp):
                    pending.extend((expr.body, expr.orelse))
        self.generic_visit(node)

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_Try(self, node: ast.Try) -> None:
        if node.finalbody:
            self.ctx.try_finally_depth += 1
            self.generic_visit(node)
            self.ctx.try_finally_depth -= 1
        else:
            self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        has_closer = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _CLOSER_METHODS
            for stmt in node.body
        )
        self.ctx.class_closers.append(has_closer)
        self.generic_visit(node)
        self.ctx.class_closers.pop()

    def generic_visit(self, node: ast.AST) -> None:
        is_stmt = isinstance(node, ast.stmt)
        if is_stmt:
            self.ctx.stmt_stack.append(node)
        super().generic_visit(node)
        if is_stmt:
            self.ctx.stmt_stack.pop()

    # -- the rule ------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        name = _constructor_name(node)
        if name is None:
            return
        if self._owned(node):
            return
        self.findings.append(
            Finding(
                self.source.path,
                node.lineno,
                RULE,
                f"{name}(...) constructed without an owner",
                _HINT,
            )
        )

    def _owned(self, node: ast.Call) -> bool:
        if self.source.owner_at(node.lineno) is not None:
            return True
        if id(node) in self.ctx.with_expr_nodes:
            return True
        if self.ctx.try_finally_depth > 0:
            return True
        stmt = self.ctx.stmt_stack[-1] if self.ctx.stmt_stack else None
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            if (
                any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in targets
                )
                and self.ctx.class_closers
                and self.ctx.class_closers[-1]
            ):
                return True
            follower = self._next_stmt.get(id(stmt))
            if follower is not None and _try_has_finally(follower):
                return True
        return False


def check(source: SourceFile) -> List[Finding]:
    visitor = _Visitor(source)
    assert source.tree is not None
    visitor.visit(source.tree)
    return visitor.findings
