"""Evolutionary search: the NAAS optimization loops.

- :mod:`repro.search.es` — the CMA-style evolution strategy (§II-A(c)):
  sample from a multivariate normal over [0,1]^n, select the fittest,
  re-center the distribution on the parents and update its covariance.
- :mod:`repro.search.random_search` — the uniform-sampling baseline of Fig 4.
- :mod:`repro.search.mapping_search` — the inner loop (§II-B): per-layer
  loop orders and tilings, every layer shape of a candidate searched
  in lockstep so each generation costs one batch.
- :mod:`repro.search.accelerator_search` — the outer loop (§II-A): the
  full NAAS hardware search with nested mapping search.
- :mod:`repro.search.parallel` — the generational evaluator
  (:class:`~repro.search.parallel.ParallelEvaluator`) and
  :func:`~repro.search.parallel.run_search_loop`, the one generation
  driver every outer search runs on.
- :mod:`repro.search.transport` — where dispatched evaluations run:
  the :class:`~repro.search.transport.Transport` seam and its one
  implementation, the in-process pool
  (:class:`~repro.search.transport.LocalTransport`).
"""

from repro.search.accelerator_search import NAASBudget, search_accelerator
from repro.search.cache import EvaluationCache
from repro.search.es import EvolutionEngine
from repro.search.mapping_search import (
    MappingSearchBudget,
    search_mapping,
    search_mappings,
)
from repro.search.parallel import (
    GenerationLoop,
    ParallelEvaluator,
    resolve_workers,
    run_search_loop,
)
from repro.search.random_search import RandomEngine
from repro.search.result import (
    AcceleratorSearchResult,
    IterationStats,
    MappingSearchResult,
)
from repro.search.transport import LocalTransport, Transport

__all__ = [
    "AcceleratorSearchResult",
    "EvaluationCache",
    "EvolutionEngine",
    "GenerationLoop",
    "IterationStats",
    "LocalTransport",
    "MappingSearchBudget",
    "MappingSearchResult",
    "NAASBudget",
    "ParallelEvaluator",
    "RandomEngine",
    "Transport",
    "resolve_workers",
    "run_search_loop",
    "search_accelerator",
    "search_mapping",
    "search_mappings",
]
