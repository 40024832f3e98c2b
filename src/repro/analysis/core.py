"""Engine for the repro static invariant checkers.

The analysis subsystem enforces, at the AST level, the contracts the
rest of the tree only states in prose: every collect path is boundable
by a timeout, lock-guarded state is never touched bare, the
deterministic path never consults ambient entropy, long-lived resources
have exactly one owner, and the disk-cache key covers every field that
can change a result.

Everything here is stdlib-only (``ast`` + ``tokenize``); the package
must import in any environment that can run the test suite.

Suppression grammar (per line)::

    # repro: allow(<rule>[, <rule>...]) -- <reason>
    # repro: owner(<who>)

An ``allow`` without a ``-- <reason>`` is itself a finding and does not
suppress anything.  A comment on its own line applies to the following
*statement* (all of its lines, for multi-line calls) as well, so
annotations and their reasons can stay inside the 79-column budget.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Canonical rule identifiers.  ``suppression`` and ``syntax`` are
# engine-level diagnostics and cannot themselves be allowed.
RULES: Tuple[str, ...] = (
    "unbounded-wait",
    "lock-discipline",
    "determinism",
    "resource-ownership",
    "cache-key",
    "format",
)
_UNSUPPRESSIBLE = ("suppression", "syntax")

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)(.*)")
_REASON_RE = re.compile(r"\s*--\s*(\S.*)")
_OWNER_RE = re.compile(r"#\s*repro:\s*owner\(([^)]+)\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source line."""

    path: str
    line: int
    rule: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text = f"{text} (fix: {self.hint})"
        return text


class SourceFile:
    """A parsed source file plus its repro annotation comments."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path.replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        # line -> {rule -> reason} for well-formed allow comments.
        self.allows: Dict[int, Dict[str, str]] = {}
        # line -> owner name for ownership hand-off annotations.
        self.owners: Dict[int, str] = {}
        self.tokens: List[tokenize.TokenInfo] = []
        self._diagnostics: List[Finding] = []
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.syntax_error = exc
            self._diagnostics.append(
                Finding(
                    self.path,
                    exc.lineno or 1,
                    "syntax",
                    f"file does not parse: {exc.msg}",
                    "fix the syntax error before linting",
                )
            )
        try:
            self.tokens = list(
                tokenize.generate_tokens(io.StringIO(text).readline)
            )
        except (tokenize.TokenError, SyntaxError, IndentationError):
            self.tokens = []
        self._scan_comments()

    # -- annotation comments ------------------------------------------

    def _register(self, target: Dict[int, Dict[str, str]], line: int,
                  rules: Iterable[str], reason: str) -> None:
        slot = target.setdefault(line, {})
        for rule in rules:
            slot[rule] = reason

    def _next_code_line(self, line: int) -> Optional[int]:
        for number in range(line + 1, len(self.lines) + 1):
            stripped = self.lines[number - 1].strip()
            if stripped and not stripped.startswith("#"):
                return number
        return None

    def _statement_span(self, line: int) -> Tuple[int, int]:
        """Lines covered by the statement starting at ``line``.

        Compound statements (``for``/``with``/``def``...) contribute
        only their header lines — a standalone annotation must not
        blanket an entire block body.
        """

        if self.tree is None:
            return (line, line)
        best: Optional[ast.stmt] = None
        for node in ast.walk(self.tree):
            if isinstance(node, ast.stmt) and node.lineno == line:
                if best is None or (node.end_lineno or 0) > (
                    best.end_lineno or 0
                ):
                    best = node
        if best is None:
            return (line, line)
        end = best.end_lineno or line
        body = getattr(best, "body", None)
        if isinstance(body, list) and body:
            end = body[0].lineno - 1
        return (line, max(line, end))

    def _scan_comments(self) -> None:
        for tok in self.tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line = tok.start[0]
            # A comment with nothing but whitespace before it is
            # standalone and also binds to the following statement.
            standalone = not self.lines[line - 1][: tok.start[1]].strip()
            targets: Tuple[int, ...] = (line,)
            if standalone:
                follower = self._next_code_line(line)
                if follower is not None:
                    first, last = self._statement_span(follower)
                    targets = (line, *range(first, last + 1))
            owner = _OWNER_RE.search(tok.string)
            if owner is not None:
                who = owner.group(1).strip()
                for at in targets:
                    self.owners[at] = who
            allow = _ALLOW_RE.search(tok.string)
            if allow is None:
                continue
            rules = [r.strip() for r in allow.group(1).split(",") if r.strip()]
            reason_match = _REASON_RE.match(allow.group(2))
            unknown = [r for r in rules if r not in RULES]
            if not rules or unknown:
                bad = ", ".join(unknown) or "<empty>"
                self._diagnostics.append(
                    Finding(
                        self.path,
                        line,
                        "suppression",
                        f"allow() names unknown rule(s): {bad}",
                        "use one of: " + ", ".join(RULES),
                    )
                )
                continue
            if reason_match is None:
                self._diagnostics.append(
                    Finding(
                        self.path,
                        line,
                        "suppression",
                        "allow() without a reason",
                        "append ' -- <why this is safe>'",
                    )
                )
                continue
            reason = reason_match.group(1).strip()
            for at in targets:
                self._register(self.allows, at, rules, reason)

    # -- queries -------------------------------------------------------

    def diagnostics(self) -> List[Finding]:
        return list(self._diagnostics)

    def allowed(self, line: int, rule: str) -> bool:
        if rule in _UNSUPPRESSIBLE:
            return False
        return rule in self.allows.get(line, {})

    def owner_at(self, line: int) -> Optional[str]:
        return self.owners.get(line)


@dataclass(frozen=True)
class Checker:
    """A per-file rule: ``check(source)`` yields findings."""

    rule: str
    check: Callable[[SourceFile], List[Finding]]
    applies: Callable[[str], bool] = field(default=lambda path: True)


@dataclass(frozen=True)
class ProjectChecker:
    """A whole-tree rule: sees every linted file at once."""

    rule: str
    check: Callable[[Sequence[SourceFile]], List[Finding]]


def path_in_packages(*packages: str) -> Callable[[str], bool]:
    """Match files living under any of the named package directories."""

    def applies(path: str) -> bool:
        slashed = "/" + path.replace("\\", "/")
        return any(f"/{pkg}/" in slashed for pkg in packages)

    return applies


def path_endswith(*suffixes: str) -> Callable[[str], bool]:
    def applies(path: str) -> bool:
        slashed = path.replace("\\", "/")
        return any(slashed.endswith(suffix) for suffix in suffixes)

    return applies


def _registry() -> Tuple[List[Checker], List[ProjectChecker]]:
    # Imported lazily so the rule modules can import core freely.
    from repro.analysis import (
        cachekey,
        determinism,
        formatting,
        locks,
        ownership,
        waits,
    )

    file_checkers = [
        Checker(
            waits.RULE,
            waits.check,
            path_endswith("search/parallel.py", "search/transport.py"),
        ),
        Checker(locks.RULE, locks.check),
        Checker(
            determinism.RULE,
            determinism.check,
            path_in_packages("cost", "mapping", "encoding", "search", "nas"),
        ),
        Checker(
            ownership.RULE,
            ownership.check,
            path_in_packages("search", "experiments", "nas"),
        ),
        Checker(formatting.RULE, formatting.check),
    ]
    project_checkers = [ProjectChecker(cachekey.RULE, cachekey.check)]
    return file_checkers, project_checkers


def lint_sources(sources: Sequence[Tuple[str, str]]) -> List[Finding]:
    """Lint in-memory ``(path, text)`` pairs and return kept findings."""

    file_checkers, project_checkers = _registry()
    files = [SourceFile(path, text) for path, text in sources]
    by_path = {f.path: f for f in files}
    findings: List[Finding] = []
    for source in files:
        findings.extend(source.diagnostics())
        if source.tree is None:
            continue
        for checker in file_checkers:
            if checker.applies(source.path):
                findings.extend(checker.check(source))
    for project_checker in project_checkers:
        findings.extend(project_checker.check(files))
    kept = [
        f
        for f in findings
        if f.path not in by_path or not by_path[f.path].allowed(f.line, f.rule)
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""

    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            for child in sorted(path.rglob("*.py")):
                parts = child.parts
                if any(p == "__pycache__" or p.startswith(".") for p in parts):
                    continue
                out.append(child)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return out


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    files = iter_python_files(paths)
    sources = [
        (str(path), path.read_text(encoding="utf-8")) for path in files
    ]
    return lint_sources(sources)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point shared by ``repro lint`` and ``-m repro.analysis``."""

    import argparse

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="run the repro static invariant checkers",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    args = parser.parse_args(argv)
    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}")
        return 2
    for finding in findings:
        print(finding.render())
    noun = "finding" if len(findings) == 1 else "findings"
    print(f"repro lint: {len(findings)} {noun}")
    return 1 if findings else 0
