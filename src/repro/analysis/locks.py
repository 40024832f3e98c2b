"""lock-discipline: guarded attributes are only touched under their lock.

A class opts in by declaring::

    class TcpTransport:
        _GUARDED_BY = {"_workers": "_lock", "_next_job_id": "_lock"}

Every ``self.<attr>`` access to a declared attribute — read or write —
must then sit lexically inside ``with self.<lock>:`` in every method
except ``__init__`` (construction happens-before publication).  Nested
functions defined inside a method drop the enclosing lock context: a
deferred callback cannot inherit its creator's critical section.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.core import Finding, SourceFile

RULE = "lock-discipline"

_EXEMPT_METHODS = ("__init__", "__new__")


def _guarded_map(cls: ast.ClassDef) -> Optional[Dict[str, str]]:
    for stmt in cls.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "_GUARDED_BY"
            for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, ast.Dict):
            return {}
        mapping: Dict[str, str] = {}
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if isinstance(key, ast.Constant) and isinstance(
                value, ast.Constant
            ):
                mapping[str(key.value)] = str(value.value)
        return mapping
    return None


def _held_locks(with_stack: List[ast.withitem]) -> List[str]:
    held = []
    for item in with_stack:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            held.append(expr.attr)
    return held


class _MethodVisitor(ast.NodeVisitor):
    def __init__(
        self, source: SourceFile, guarded: Dict[str, str], cls: str
    ) -> None:
        self.source = source
        self.guarded = guarded
        self.cls = cls
        self.findings: List[Finding] = []
        self._with_stack: List[ast.withitem] = []

    def _visit_with(self, node: ast.AST) -> None:
        items = getattr(node, "items", [])
        self._with_stack.extend(items)
        self.generic_visit(node)
        del self._with_stack[len(self._with_stack) - len(items):]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _visit_nested(self, node: ast.AST) -> None:
        # A nested def/lambda may run later, outside the lock.
        saved, self._with_stack = self._with_stack, []
        self.generic_visit(node)
        self._with_stack = saved

    visit_FunctionDef = _visit_nested
    visit_AsyncFunctionDef = _visit_nested
    visit_Lambda = _visit_nested

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return
        lock = self.guarded.get(node.attr)
        if lock is None or lock in _held_locks(self._with_stack):
            return
        self.findings.append(
            Finding(
                self.source.path,
                node.lineno,
                RULE,
                (
                    f"{self.cls}.{node.attr} accessed outside "
                    f"`with self.{lock}:` (declared in _GUARDED_BY)"
                ),
                f"wrap the access in `with self.{lock}:`",
            )
        )


def check(source: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    assert source.tree is not None
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guarded = _guarded_map(node)
        if guarded is None:
            continue
        if not guarded:
            findings.append(
                Finding(
                    source.path,
                    node.lineno,
                    RULE,
                    f"{node.name}._GUARDED_BY must be a literal dict "
                    "of attr -> lock names",
                    'declare e.g. _GUARDED_BY = {"_state": "_lock"}',
                )
            )
            continue
        for stmt in node.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if stmt.name in _EXEMPT_METHODS:
                continue
            visitor = _MethodVisitor(source, guarded, node.name)
            for child in stmt.body:
                visitor.visit(child)
            findings.extend(visitor.findings)
    return findings
