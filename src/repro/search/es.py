"""Evolution strategy over [0,1]^n with covariance adaptation.

Implements the sample/select/update loop the paper adopts from Hansen's
CMA-ES review [17], in the simplified (mu/mu, lambda) form that NAAS
describes (§II-A(c)): candidates are drawn from a multivariate normal,
the top fraction become "parents", the new mean is the parents' center
and the covariance is updated toward the parents' spread so subsequent
samples concentrate near them. A variance floor keeps exploration alive.

The math lives once, in :class:`EvolutionStack`: ``S`` independent
strategies held as arrays (means ``(S, n)``, covariances ``(S, n, n)``
and one ``Generator`` per row; each ask factors the covariances), each
step one array pass over every row. The mapping search keeps one row
per layer shape; :class:`EvolutionEngine`, the hardware-level engine,
is a stack of one.
Every row evolves exactly as it would alone, to the last bit:

- a row's ``standard_normal((count, n))`` draw is the stream ``count``
  draws of ``standard_normal(n)`` would take;
- the step is ``np.matmul`` of each row's factor against each draw as a
  column, a matrix-vector product per draw (the matrix-matrix form
  ``Z @ L.T`` rounds differently and is not used), written over the
  draws row by row so an ask holds one generation-sized array;
- the elite sort is a stable per-row ``argsort``, so ties keep their
  order, and the stacked ``cholesky`` equals one call per row.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SearchError
from repro.utils.rng import SeedLike, ensure_rng


class EvolutionStack:
    """``len(seeds)`` independent ask/tell evolution strategies on the
    unit hypercube (minimization), one row each, sharing ``num_params``
    and the hyperparameters.

    Row ``s`` draws from ``ensure_rng(seeds[s])``. :meth:`ask` returns
    ``(S, count, n)`` candidates and :meth:`tell` takes them back with
    ``(S, P)`` fitnesses; every call is one step of every row.
    """

    def __init__(self, num_params: int, seeds: Sequence[SeedLike],
                 elite_fraction: float = 0.25,
                 sigma_init: float = 0.25,
                 sigma_floor: float = 0.03,
                 learning_rate: float = 0.6,
                 initial_means: Optional[np.ndarray] = None) -> None:
        if num_params < 1:
            raise SearchError(f"num_params must be >= 1, got {num_params}")
        if not 0 < elite_fraction <= 1:
            raise SearchError(
                f"elite_fraction must be in (0, 1], got {elite_fraction}")
        self.num_params = num_params
        self.elite_fraction = elite_fraction
        self.sigma_floor = sigma_floor
        self.learning_rate = learning_rate
        self.rngs = [ensure_rng(seed) for seed in seeds]
        rows = len(self.rngs)
        if initial_means is None:
            self.mean = np.full((rows, num_params), 0.5)
        else:
            self.mean = np.clip(np.asarray(initial_means, dtype=float),
                                0.0, 1.0)
            if self.mean.shape != (rows, num_params):
                raise SearchError(
                    f"initial means must have {num_params} entries")
        self.cov = np.repeat((np.eye(num_params) * sigma_init**2)[None],
                             rows, axis=0)
        self.generation = 0

    def __len__(self) -> int:
        return len(self.rngs)

    @property
    def chol(self) -> np.ndarray:
        """The rows' Cholesky factors, ``(S, n, n)``.

        Computed when asked for rather than kept: only :meth:`ask` uses
        them, and a stack of many rows would otherwise hold a second
        covariance-sized array through every evaluation.
        """
        return np.linalg.cholesky(self.cov)

    def ask(self, count: int,
            out: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw ``count`` candidates per row, clipped to the unit cube.

        Drawing the whole generation before any evaluation decouples
        the random streams from evaluation order, which is what lets
        the evaluator fan the batch out over worker processes. ``out``,
        an ``(S, count, n)`` array whose rows are C-contiguous, receives
        the candidates instead of a new array.
        """
        if count < 0:
            raise SearchError(f"ask count must be >= 0, got {count}")
        shape = (len(self), count, self.num_params)
        steps = np.empty(shape) if out is None else out
        if steps.shape != shape:
            raise SearchError(f"ask out must be {shape}, got {steps.shape}")
        for row, rng, chol in zip(steps, self.rngs, self.chol):
            rng.standard_normal(out=row)
            row[:] = np.matmul(chol, row[..., None])[..., 0]
        steps += self.mean[:, None]
        return np.clip(steps, 0.0, 1.0, out=steps)

    def tell(self, candidates: np.ndarray, fitnesses: np.ndarray) -> None:
        """Re-center each row on its fittest candidates (one generation).

        ``candidates`` is ``(S, P, n)`` and ``fitnesses`` ``(S, P)``.
        Lower fitness is better; non-finite fitnesses are ignored. A row
        none of whose candidates evaluated is left as-is (its next
        generation re-explores). The generation counter advances once
        per call either way.
        """
        candidates = np.asarray(candidates, dtype=float)
        fitnesses = np.asarray(fitnesses, dtype=float)
        rows = len(self)
        if (fitnesses.ndim != 2 or len(fitnesses) != rows
                or candidates.shape != fitnesses.shape + (self.num_params,)):
            raise SearchError(
                f"expected ({rows}, P, {self.num_params}) candidates and "
                f"({rows}, P) fitnesses, got {candidates.shape} and "
                f"{fitnesses.shape}")
        self.generation += 1
        finite = np.isfinite(fitnesses)
        order = np.argsort(np.where(finite, fitnesses, np.inf), axis=1,
                           kind="stable")
        counts = [max(1, int(round(scored * self.elite_fraction))) if scored
                  else 0 for scored in finite.sum(axis=1).tolist()]
        elite_counts = np.array(counts, dtype=np.int64)
        for count in sorted(set(counts) - {0}):
            group = np.flatnonzero(elite_counts == count)
            self._recenter(group,
                           candidates[group[:, None], order[group, :count]])

    def _recenter(self, group: np.ndarray, elites: np.ndarray) -> None:
        """Blend rows ``group`` toward their ``(G, k, n)`` elites."""
        rate = self.learning_rate
        count = elites.shape[1]
        new_mean = elites.mean(axis=1)
        self.mean[group] = (1 - rate) * self.mean[group] + rate * new_mean
        if count >= 2:
            # Centering on the elites' own (un-blended) mean estimates
            # the spread of the selected parents — the quantity the
            # next generation should concentrate around — with the
            # unbiased 1/(k-1) normalizer.
            centered = elites - new_mean[:, None]
            elite_cov = centered.transpose(0, 2, 1) @ centered
            elite_cov /= count - 1
        else:
            elite_cov = self.cov[group] * 0.5  # single parent: contract
        # (1 - rate) * cov + rate * elite_cov + floor, in place (on
        # the covariances themselves when the group is every row).
        whole = len(group) == len(self)
        blended = self.cov if whole else self.cov[group]
        blended *= 1 - rate
        elite_cov *= rate
        blended += elite_cov
        blended += np.eye(self.num_params) * self.sigma_floor**2
        if not whole:
            self.cov[group] = blended


class EvolutionEngine:
    """Ask/tell evolution strategy on the unit hypercube (minimization):
    an :class:`EvolutionStack` of one row, with candidates as vectors."""

    def __init__(self, num_params: int,
                 elite_fraction: float = 0.25,
                 sigma_init: float = 0.25,
                 sigma_floor: float = 0.03,
                 learning_rate: float = 0.6,
                 seed: SeedLike = None,
                 initial_mean: Optional[Sequence[float]] = None) -> None:
        self._stack = EvolutionStack(
            num_params, [seed], elite_fraction=elite_fraction,
            sigma_init=sigma_init, sigma_floor=sigma_floor,
            learning_rate=learning_rate,
            initial_means=(None if initial_mean is None
                           else np.asarray(initial_mean, dtype=float)[None]))

    @property
    def num_params(self) -> int:
        return self._stack.num_params

    @property
    def generation(self) -> int:
        return self._stack.generation

    @property
    def mean(self) -> np.ndarray:
        return self._stack.mean[0]

    @property
    def cov(self) -> np.ndarray:
        return self._stack.cov[0]

    def sample(self) -> np.ndarray:
        """Draw one candidate vector, clipped to the unit cube."""
        return self._stack.ask(1)[0, 0]

    def ask(self, count: int) -> List[np.ndarray]:
        """Batch-sample ``count`` candidates (ask half of ask/tell)."""
        return list(self._stack.ask(count)[0])

    def tell(self, candidates: Sequence[np.ndarray],
             fitnesses: Sequence[float]) -> None:
        """Report one full generation (tell half of ask/tell)."""
        self.update(candidates, fitnesses)

    def update(self, candidates: Sequence[np.ndarray],
               fitnesses: Sequence[float]) -> None:
        """Re-center the distribution on the fittest candidates (see
        :meth:`EvolutionStack.tell`)."""
        if len(candidates) != len(fitnesses):
            raise SearchError("candidates and fitnesses length mismatch")
        self._stack.tell(
            np.asarray(candidates, dtype=float).reshape(
                1, len(candidates), self.num_params),
            np.asarray(fitnesses, dtype=float).reshape(1, len(fitnesses)))

    @property
    def stddev(self) -> np.ndarray:
        """Per-parameter standard deviation (diagnostics)."""
        return np.sqrt(np.diag(self.cov))
