"""Result records for the search loops."""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.report import LayerCost, NetworkCost
from repro.mapping.mapping import Mapping


def best_and_mean(rows: Sequence[Sequence[float]],
                  ) -> Tuple[List[float], List[float]]:
    """Per row of fitnesses, the best and the mean of its finite
    entries (``inf`` for a row with none).

    The mean is a left fold from ``0.0`` in which non-finite entries add
    an exact ``0.0``, so it does not depend on the Python version:
    3.12 made ``sum`` of floats compensated, and 3.11's plain ``sum`` is
    this fold.
    """
    rows = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(rows)
    counts = finite.sum(axis=1)
    best = np.where(finite, rows, np.inf).min(axis=1, initial=np.inf)
    terms = np.zeros((rows.shape[0], rows.shape[1] + 1))
    np.copyto(terms[:, 1:], rows, where=finite)
    totals = np.add.accumulate(terms, axis=1)[:, -1]
    means = np.divide(totals, counts, out=np.full(len(rows), np.inf),
                      where=counts > 0)
    return best.tolist(), means.tolist()


@dataclasses.dataclass(frozen=True)
class IterationStats:
    """Population statistics of one search generation (for Fig 4)."""

    iteration: int
    best_fitness: float
    mean_fitness: float
    valid_count: int
    population: int

    @classmethod
    def from_fitnesses(cls, iteration: int, fitnesses: Tuple[float, ...],
                       population: int) -> "IterationStats":
        """Summarize one generation's fitness batch (inf = invalid)."""
        (best,), (mean,) = best_and_mean([fitnesses])
        return cls(
            iteration=iteration,
            best_fitness=best,
            mean_fitness=mean,
            valid_count=sum(1 for f in fitnesses if math.isfinite(f)),
            population=population,
        )

    @property
    def valid_fraction(self) -> float:
        return self.valid_count / self.population if self.population else 0.0


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Evaluation-cache counters of one search run (both tiers).

    ``disk_hits`` counts lookups served by the persistent tier when a
    ``cache_dir`` was supplied (always 0 otherwise); they are included
    in ``hits``. Every lookup counts once, so ``hits + misses`` is the
    same at any worker count; the split is not. Each worker process
    keeps its own cache, and workers that miss the same key each count
    one. These statistics are therefore reporting, not part of the
    bit-identity contract.
    """

    hits: int
    misses: int
    disk_hits: int

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses,
                          disk_hits=self.disk_hits + other.disk_hits)

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(hits=self.hits - other.hits,
                          misses=self.misses - other.misses,
                          disk_hits=self.disk_hits - other.disk_hits)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclasses.dataclass(frozen=True)
class MappingSearchResult:
    """Outcome of the inner (mapping) search for one layer."""

    layer_name: str
    best_mapping: Optional[Mapping]
    best_cost: Optional[LayerCost]
    history: Tuple[IterationStats, ...]
    evaluations: int

    @property
    def found(self) -> bool:
        return self.best_mapping is not None and self.best_cost is not None

    @property
    def best_edp(self) -> float:
        return self.best_cost.edp if self.best_cost else math.inf


@dataclasses.dataclass(frozen=True)
class AcceleratorSearchResult:
    """Outcome of the outer (NAAS hardware) search."""

    best_config: Optional[AcceleratorConfig]
    best_reward: float
    network_costs: Dict[str, NetworkCost]
    best_mappings: Dict[str, Mapping]
    history: Tuple[IterationStats, ...]
    evaluations: int
    #: Reporting only — excluded from equality because cache counters
    #: legitimately differ between runs whose search results are
    #: bit-identical (each worker misses on its own; warm runs hit
    #: where cold runs miss).
    cache_stats: Optional[CacheStats] = dataclasses.field(
        default=None, compare=False)

    @property
    def found(self) -> bool:
        return self.best_config is not None and math.isfinite(self.best_reward)
