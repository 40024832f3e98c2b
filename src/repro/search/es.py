"""Evolution strategy over [0,1]^n with covariance adaptation.

Implements the sample/select/update loop the paper adopts from Hansen's
CMA-ES review [17], in the simplified (mu/mu, lambda) form that NAAS
describes (§II-A(c)): candidates are drawn from a multivariate normal,
the top fraction become "parents", the new mean is the parents' center
and the covariance is updated toward the parents' spread so subsequent
samples concentrate near them. A variance floor keeps exploration alive.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SearchError
from repro.utils.rng import SeedLike, ensure_rng


class EvolutionEngine:
    """Ask/tell evolution strategy on the unit hypercube (minimization)."""

    def __init__(self, num_params: int,
                 elite_fraction: float = 0.25,
                 sigma_init: float = 0.25,
                 sigma_floor: float = 0.03,
                 learning_rate: float = 0.6,
                 seed: SeedLike = None,
                 initial_mean: Optional[Sequence[float]] = None) -> None:
        if num_params < 1:
            raise SearchError(f"num_params must be >= 1, got {num_params}")
        if not 0 < elite_fraction <= 1:
            raise SearchError(
                f"elite_fraction must be in (0, 1], got {elite_fraction}")
        self.num_params = num_params
        self.elite_fraction = elite_fraction
        self.sigma_floor = sigma_floor
        self.learning_rate = learning_rate
        self.rng = ensure_rng(seed)
        if initial_mean is None:
            self.mean = np.full(num_params, 0.5)
        else:
            self.mean = np.clip(np.asarray(initial_mean, dtype=float),
                                0.0, 1.0)
            if self.mean.shape != (num_params,):
                raise SearchError(
                    f"initial_mean must have {num_params} entries")
        self.cov = np.eye(num_params) * sigma_init**2
        self._chol = np.linalg.cholesky(self.cov)
        self.generation = 0

    def sample(self) -> np.ndarray:
        """Draw one candidate vector, clipped to the unit cube."""
        z = self.rng.standard_normal(self.num_params)
        return np.clip(self.mean + self._chol @ z, 0.0, 1.0)

    def ask(self, count: int) -> List[np.ndarray]:
        """Batch-sample ``count`` candidates (ask half of ask/tell).

        Drawing the whole generation before any evaluation decouples the
        engine's random stream from evaluation order, which is what lets
        the evaluator fan the batch out over worker processes.
        """
        if count < 0:
            raise SearchError(f"ask count must be >= 0, got {count}")
        return [self.sample() for _ in range(count)]

    def tell(self, candidates: Sequence[np.ndarray],
             fitnesses: Sequence[float]) -> None:
        """Report one full generation (tell half of ask/tell)."""
        self.update(candidates, fitnesses)

    def update(self, candidates: Sequence[np.ndarray],
               fitnesses: Sequence[float]) -> None:
        """Re-center the distribution on the fittest candidates.

        Lower fitness is better; non-finite fitnesses are ignored. If no
        candidate evaluated successfully the distribution is left as-is
        (the next generation re-explores).
        """
        if len(candidates) != len(fitnesses):
            raise SearchError("candidates and fitnesses length mismatch")
        # One well-defined point for the generation counter: every update
        # call is exactly one generation, whether or not any candidate
        # was feasible. (It used to sit between the validation and the
        # early return below, which made the all-infeasible semantics
        # easy to break when editing either.)
        self.generation += 1
        scored = [(fit, np.asarray(vec, dtype=float))
                  for vec, fit in zip(candidates, fitnesses)
                  if math.isfinite(fit)]
        if not scored:
            return
        scored.sort(key=lambda pair: pair[0])
        elite_count = max(1, int(round(len(scored) * self.elite_fraction)))
        elites = np.stack([vec for _, vec in scored[:elite_count]])

        new_mean = elites.mean(axis=0)
        self.mean = ((1 - self.learning_rate) * self.mean
                     + self.learning_rate * new_mean)
        if elite_count >= 2:
            # Centering on the elites' own (un-blended) mean estimates the
            # spread of the selected parents themselves — the quantity the
            # next generation should concentrate around — rather than the
            # dispersion about the smoothed search mean. The 1/(n-1)
            # normalizer is the unbiased sample covariance; the previous
            # 1/n systematically shrank the step size for small elite sets.
            centered = elites - new_mean
            elite_cov = centered.T @ centered / (elite_count - 1)
        else:
            elite_cov = self.cov * 0.5  # single parent: contract
        self.cov = ((1 - self.learning_rate) * self.cov
                    + self.learning_rate * elite_cov)
        self.cov += np.eye(self.num_params) * self.sigma_floor**2
        self._chol = np.linalg.cholesky(self.cov)

    @property
    def stddev(self) -> np.ndarray:
        """Per-parameter standard deviation (diagnostics)."""
        return np.sqrt(np.diag(self.cov))
