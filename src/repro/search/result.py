"""Result records for the search loops."""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

from repro.accelerator.arch import AcceleratorConfig
from repro.cost.report import LayerCost, NetworkCost
from repro.mapping.mapping import Mapping


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
        finite = [f for f in fitnesses if math.isfinite(f)]
        return cls(
            iteration=iteration,
            best_fitness=min(finite) if finite else math.inf,
            mean_fitness=sum(finite) / len(finite) if finite else math.inf,
            valid_count=len(finite),
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
