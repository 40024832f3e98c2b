"""Uniform random search with the same ask/tell interface as the ES.

This is the baseline NAAS is compared against in Fig 4: the sampling
distribution never adapts, so the population-mean EDP stays flat while
the evolution strategy's improves.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import SearchError
from repro.utils.rng import SeedLike, ensure_rng


class RandomEngine:
    """Drop-in, non-adaptive replacement for
    :class:`repro.search.es.EvolutionEngine`."""

    def __init__(self, num_params: int, seed: SeedLike = None,
                 **_ignored) -> None:
        if num_params < 1:
            raise SearchError(f"num_params must be >= 1, got {num_params}")
        self.num_params = num_params
        self.rng = ensure_rng(seed)
        self.generation = 0

    def sample(self) -> np.ndarray:
        return self.rng.random(self.num_params)

    def ask(self, count: int) -> List[np.ndarray]:
        """Batch-sample ``count`` candidates (ask/tell protocol)."""
        if count < 0:
            raise SearchError(f"ask count must be >= 0, got {count}")
        return [self.sample() for _ in range(count)]

    def tell(self, candidates: Sequence[np.ndarray],
             fitnesses: Sequence[float]) -> None:
        """Report one full generation (tell half of ask/tell)."""
        self.update(candidates, fitnesses)

    def update(self, candidates: Sequence[np.ndarray],
               fitnesses: Sequence[float]) -> None:
        if len(candidates) != len(fitnesses):
            raise SearchError("candidates and fitnesses length mismatch")
        self.generation += 1
