"""unbounded-wait: every blocking collect call must carry a timeout.

The PR-5 ``_wait_any`` stall came from a ``concurrent.futures.wait``
call with no timeout: one hung worker froze the whole schedule beyond
the reach of ``--eval-timeout``.  This rule flags the blocking-call
shapes that can reproduce that class of bug in the dispatch layer:

* ``<future>.result()`` with neither a positional nor ``timeout=`` arg
* ``wait(fs)`` / ``<event>.wait()`` without a timeout
* ``<queue>.get()`` with no arguments at all
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Finding, SourceFile

RULE = "unbounded-wait"

_HINT = (
    "pass timeout=... (plumb --eval-timeout) or annotate "
    "# repro: allow(unbounded-wait) -- <why this wait is bounded>"
)


def _has_timeout_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "timeout" for kw in call.keywords)


class _Visitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.findings: List[Finding] = []

    # -- helpers -------------------------------------------------------

    def _flag(self, node: ast.Call, what: str) -> None:
        self.findings.append(
            Finding(
                self.source.path,
                node.lineno,
                RULE,
                f"{what} can block forever",
                _HINT,
            )
        )

    # -- the rule ------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            if name == "result" and not node.args and not _has_timeout_kwarg(
                node
            ):
                self._flag(node, "Future.result() without a timeout")
            elif name == "wait" and not node.args and not _has_timeout_kwarg(
                node
            ):
                self._flag(node, ".wait() without a timeout")
            elif name == "get" and not node.args and not node.keywords:
                self._flag(node, ".get() without a timeout")
        elif isinstance(func, ast.Name) and func.id == "wait":
            # concurrent.futures.wait(fs, timeout=..., return_when=...)
            if len(node.args) < 2 and not _has_timeout_kwarg(node):
                self._flag(node, "futures wait() without a timeout")


def check(source: SourceFile) -> List[Finding]:
    visitor = _Visitor(source)
    assert source.tree is not None
    visitor.visit(source.tree)
    return visitor.findings
