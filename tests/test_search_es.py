"""Tests for the evolution strategy and the random-search baseline."""

import math

import numpy as np
import pytest

from repro.errors import SearchError
from repro.search.es import EvolutionEngine, EvolutionStack
from repro.search.random_search import RandomEngine


def sphere(x: np.ndarray, target: float = 0.7) -> float:
    """Convex test objective with optimum inside the unit cube."""
    return float(np.sum((x - target) ** 2))


class TestEvolutionEngine:
    def test_samples_in_unit_cube(self):
        engine = EvolutionEngine(5, seed=0)
        for _ in range(100):
            x = engine.sample()
            assert np.all(x >= 0) and np.all(x <= 1)

    def test_optimizes_sphere(self):
        engine = EvolutionEngine(4, seed=1)
        best = np.inf
        for _ in range(25):
            population = [engine.sample() for _ in range(16)]
            fitnesses = [sphere(x) for x in population]
            engine.update(population, fitnesses)
            best = min(best, min(fitnesses))
        assert best < 0.01

    def test_beats_random_on_sphere(self):
        def run(engine_cls, seed):
            engine = engine_cls(6, seed=seed)
            best = np.inf
            for _ in range(15):
                population = [engine.sample() for _ in range(12)]
                fitnesses = [sphere(x) for x in population]
                engine.update(population, fitnesses)
                best = min(best, min(fitnesses))
            return best

        es_wins = sum(run(EvolutionEngine, s) < run(RandomEngine, s)
                      for s in range(5))
        assert es_wins >= 4

    def test_mean_moves_toward_elites(self):
        engine = EvolutionEngine(3, seed=2)
        target = np.array([0.9, 0.1, 0.5])
        for _ in range(10):
            population = [engine.sample() for _ in range(20)]
            fitnesses = [float(np.sum((x - target) ** 2)) for x in population]
            engine.update(population, fitnesses)
        assert np.allclose(engine.mean, target, atol=0.25)

    def test_ignores_infinite_fitness(self):
        engine = EvolutionEngine(2, seed=3)
        before = engine.mean.copy()
        engine.update([engine.sample()], [np.inf])
        assert np.allclose(engine.mean, before)
        assert engine.generation == 1

    def test_variance_floor_keeps_sampling_alive(self):
        engine = EvolutionEngine(2, seed=4, sigma_floor=0.05)
        point = np.array([0.5, 0.5])
        for _ in range(50):
            engine.update([point, point, point], [0.0, 0.0, 0.0])
        spread = np.std([engine.sample() for _ in range(100)], axis=0)
        assert np.all(spread > 0.01)

    def test_initial_mean(self):
        engine = EvolutionEngine(3, seed=5, initial_mean=[0.1, 0.2, 0.3],
                                 sigma_init=0.01)
        samples = np.stack([engine.sample() for _ in range(200)])
        assert np.allclose(samples.mean(axis=0), [0.1, 0.2, 0.3], atol=0.05)

    def test_mismatched_lengths_raise(self):
        engine = EvolutionEngine(2, seed=6)
        with pytest.raises(SearchError):
            engine.update([engine.sample()], [1.0, 2.0])

    def test_invalid_params_raise(self):
        with pytest.raises(SearchError):
            EvolutionEngine(0)
        with pytest.raises(SearchError):
            EvolutionEngine(3, elite_fraction=0.0)
        with pytest.raises(SearchError):
            EvolutionEngine(3, initial_mean=[0.5])

    def test_deterministic_given_seed(self):
        a = EvolutionEngine(4, seed=7).sample()
        b = EvolutionEngine(4, seed=7).sample()
        assert np.allclose(a, b)

    def test_ask_matches_repeated_sample(self):
        asked = EvolutionEngine(3, seed=8).ask(5)
        sampler = EvolutionEngine(3, seed=8)
        sampled = [sampler.sample() for _ in range(5)]
        assert len(asked) == 5
        for a, b in zip(asked, sampled):
            assert np.allclose(a, b)

    def test_ask_zero_and_negative(self):
        engine = EvolutionEngine(2, seed=9)
        assert engine.ask(0) == []
        with pytest.raises(SearchError):
            engine.ask(-1)

    def test_tell_is_update(self):
        engine = EvolutionEngine(2, seed=10)
        population = engine.ask(6)
        engine.tell(population, [sphere(x) for x in population])
        assert engine.generation == 1

    def test_elite_covariance_is_sample_covariance(self):
        """Regression: the elite spread uses the unbiased 1/(n-1)
        normalizer centered on the elites' own mean."""
        floor = 0.03
        engine = EvolutionEngine(1, seed=11, learning_rate=1.0,
                                 elite_fraction=1.0, sigma_floor=floor)
        elites = [np.array([0.2]), np.array([0.4])]
        engine.update(elites, [0.0, 0.0])
        # sample covariance of {0.2, 0.4} is 0.02 (1/(n-1)), not 0.01 (1/n)
        assert engine.cov[0, 0] == pytest.approx(0.02 + floor**2)
        assert engine.mean[0] == pytest.approx(0.3)

    def test_cholesky_survives_degenerate_elites(self):
        """The sigma floor keeps the covariance positive-definite even
        when every elite is the same point (zero sample spread)."""
        engine = EvolutionEngine(3, seed=12, sigma_floor=0.03)
        point = np.full(3, 0.5)
        for _ in range(100):
            engine.update([point] * 4, [0.0] * 4)
            sample = engine.sample()  # would raise if cholesky had failed
            assert np.all(np.isfinite(sample))
        assert np.all(np.linalg.eigvalsh(engine.cov) > 0)


class TestRandomEngine:
    def test_distribution_never_adapts(self):
        engine = RandomEngine(3, seed=0)
        first = np.stack([engine.sample() for _ in range(500)])
        engine.update([first[0]], [0.0])
        second = np.stack([engine.sample() for _ in range(500)])
        assert abs(first.mean() - second.mean()) < 0.05

    def test_uniform_coverage(self):
        engine = RandomEngine(1, seed=1)
        samples = np.concatenate([engine.sample() for _ in range(1000)])
        assert samples.min() < 0.05 and samples.max() > 0.95

    def test_mismatched_lengths_raise(self):
        engine = RandomEngine(2, seed=2)
        with pytest.raises(SearchError):
            engine.update([engine.sample()], [])


class ScalarReference:
    """The one-vector-at-a-time ES the array form replaced: one
    ``standard_normal(n)`` draw and one ``L @ z`` per candidate, and a
    Python sort of the finite candidates per update. Kept here as the
    reference the stacked math must reproduce to the last bit."""

    def __init__(self, num_params, seed, elite_fraction=0.25,
                 sigma_init=0.25, sigma_floor=0.03, learning_rate=0.6):
        self.num_params = num_params
        self.elite_fraction = elite_fraction
        self.sigma_floor = sigma_floor
        self.learning_rate = learning_rate
        self.rng = np.random.default_rng(seed)
        self.mean = np.full(num_params, 0.5)
        self.cov = np.eye(num_params) * sigma_init**2
        self.chol = np.linalg.cholesky(self.cov)
        self.generation = 0

    def ask(self, count):
        return [np.clip(self.mean + self.chol
                        @ self.rng.standard_normal(self.num_params), 0.0, 1.0)
                for _ in range(count)]

    def update(self, candidates, fitnesses):
        self.generation += 1
        scored = [(fit, np.asarray(vec, dtype=float))
                  for vec, fit in zip(candidates, fitnesses)
                  if math.isfinite(fit)]
        if not scored:
            return
        scored.sort(key=lambda pair: pair[0])
        count = max(1, int(round(len(scored) * self.elite_fraction)))
        elites = np.stack([vec for _, vec in scored[:count]])
        new_mean = elites.mean(axis=0)
        rate = self.learning_rate
        self.mean = (1 - rate) * self.mean + rate * new_mean
        if count >= 2:
            centered = elites - new_mean
            elite_cov = centered.T @ centered / (count - 1)
        else:
            elite_cov = self.cov * 0.5
        self.cov = (1 - rate) * self.cov + rate * elite_cov
        self.cov += np.eye(self.num_params) * self.sigma_floor**2
        self.chol = np.linalg.cholesky(self.cov)


def _fitnesses(rng, rows, population, generation):
    """A generation's ``(rows, population)`` fitnesses that exercise
    every path of the update: infeasible (inf and nan) entries, tied
    values, a row with one finite entry (one elite: the contraction)
    and, from generation 1 on, an all-infeasible row."""
    fit = rng.random((rows, population))
    fit[rng.random((rows, population)) < 0.2] = np.inf
    fit[0, -1] = np.nan
    fit[1] = np.round(fit[1] * 2)  # ties
    if rows > 2:
        fit[2] = np.inf
        fit[2, generation % population] = 0.5
    if rows > 3 and generation:
        fit[3] = np.inf
    return fit


def _assert_same_state(stack, row, reference):
    np.testing.assert_array_equal(stack.mean[row], reference.mean)
    np.testing.assert_array_equal(stack.cov[row], reference.cov)
    np.testing.assert_array_equal(stack.chol[row], reference.chol)
    assert stack.generation == reference.generation


class TestStackParity:
    """The stacked ES is the per-vector ES, bit for bit."""

    @pytest.mark.parametrize("num_params,population",
                             [(18, 20), (8, 6), (3, 40)])
    def test_one_row_equals_reference(self, num_params, population):
        for seed in range(50):
            stack = EvolutionStack(num_params, [seed])
            engine = EvolutionEngine(num_params, seed=seed)
            reference = ScalarReference(num_params, seed)
            rng = np.random.default_rng(1000 + seed)
            for generation in range(4):
                drawn = stack.ask(population)
                asked = engine.ask(population)
                expected = reference.ask(population)
                np.testing.assert_array_equal(drawn[0], expected)
                np.testing.assert_array_equal(asked, expected)
                fit = _fitnesses(rng, 2, population, generation)[1]
                stack.tell(drawn, fit[None])
                engine.tell(asked, fit.tolist())
                reference.update(expected, fit.tolist())
                _assert_same_state(stack, 0, reference)
                _assert_same_state(engine._stack, 0, reference)
            np.testing.assert_array_equal(engine.sample(),
                                          reference.ask(1)[0])

    @pytest.mark.parametrize("population", [2, 6, 20])
    def test_rows_equal_independent_engines(self, population):
        rows, num_params = 6, 18
        for seed in range(50):
            seeds = [seed * rows + row for row in range(rows)]
            stack = EvolutionStack(num_params, seeds)
            references = [ScalarReference(num_params, s) for s in seeds]
            rng = np.random.default_rng(seed)
            # A warm-start head fills the first row of generation 0.
            head = rng.random((rows, 1, num_params))
            for generation in range(4):
                if generation == 0:
                    vectors = np.concatenate(
                        [head, stack.ask(population - 1)], axis=1)
                    expected = [[head[row, 0]] + ref.ask(population - 1)
                                for row, ref in enumerate(references)]
                else:
                    vectors = stack.ask(population)
                    expected = [ref.ask(population) for ref in references]
                np.testing.assert_array_equal(vectors, np.array(expected))
                fit = _fitnesses(rng, rows, population, generation)
                stack.tell(vectors, fit)
                for row, ref in enumerate(references):
                    ref.update(expected[row], fit[row].tolist())
                    _assert_same_state(stack, row, ref)

    def test_ask_into_out_equals_a_new_array(self):
        """The search asks every generation into one array, after a
        warm-start column in generation 0."""
        rows, num_params, population = 4, 18, 6
        fresh = EvolutionStack(num_params, list(range(rows)))
        reused = EvolutionStack(num_params, list(range(rows)))
        buffer = np.full((rows, population + 1, num_params), -1.0)
        rng = np.random.default_rng(3)
        for generation in range(3):
            expected = fresh.ask(population)
            reused.ask(population, out=buffer[:, 1:])
            np.testing.assert_array_equal(buffer[:, 1:], expected)
            assert (buffer[:, 0] == -1.0).all()
            fit = _fitnesses(rng, rows, population, generation)
            fresh.tell(expected, fit)
            reused.tell(buffer[:, 1:], fit)
        with pytest.raises(SearchError):
            reused.ask(population, out=buffer)

    def test_shape_mismatch_raises(self):
        stack = EvolutionStack(3, [0, 1])
        vectors = stack.ask(4)
        with pytest.raises(SearchError):
            stack.tell(vectors, np.zeros((2, 3)))
        with pytest.raises(SearchError):
            stack.tell(vectors[:1], np.zeros((1, 4)))
