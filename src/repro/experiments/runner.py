"""Common experiment plumbing: the result record and table rendering."""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Sequence

from repro.utils.tables import Cell, render_markdown_table, render_table


class Timed(float):
    """A table cell read off the clock (a measured search cost): it
    renders like any float, and as ``(timed)`` where a rendering leaves
    timings out."""


@dataclasses.dataclass
class ExperimentResult:
    """Outcome of one experiment (one figure or table).

    ``rows`` are the paper-style table rows; ``claims`` map qualitative
    statements ("NAAS beats random search") to booleans, which is what
    the benchmark suite asserts; ``details`` carries free-form extras.
    """

    experiment: str
    headers: Sequence[str]
    rows: List[Sequence[Cell]]
    claims: Dict[str, bool]
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seconds: float = 0.0

    def render(self, timing: bool = True) -> str:
        """ASCII table plus the claim checklist.

        ``timing=False`` leaves the run's seconds out of the header and
        prints :class:`Timed` cells as ``(timed)``, so the text changes
        only when a number or a claim does (the form
        ``benchmarks/results/`` keeps).
        """
        took = f" ({self.seconds:.1f}s)" if timing else ""
        rows = self.rows if timing else [
            ["(timed)" if isinstance(cell, Timed) else cell for cell in row]
            for row in self.rows]
        lines = [f"== {self.experiment}{took} ==",
                 render_table(self.headers, rows)]
        for claim, holds in self.claims.items():
            lines.append(f"  [{'x' if holds else ' '}] {claim}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [f"### {self.experiment}", "",
                 render_markdown_table(self.headers, self.rows), ""]
        for claim, holds in self.claims.items():
            lines.append(f"- {'PASS' if holds else 'FAIL'}: {claim}")
        return "\n".join(lines)

    @property
    def all_claims_hold(self) -> bool:
        return all(self.claims.values())


class Stopwatch:
    """Tiny context manager stamping ``ExperimentResult.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self.start
