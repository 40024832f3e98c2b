"""Unit tests for repro.utils.mathutils."""

import math
import random

import pytest

from repro.utils.mathutils import (
    ceil_div,
    clamp,
    divisors,
    fold_sum,
    geomean,
    nearest_multiple,
    prod,
    round_to_stride,
)
from repro.search.result import IterationStats, best_and_mean


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_one(self):
        assert ceil_div(1, 100) == 1

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(10, 0)

    def test_rejects_negative_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(10, -2)


class TestProd:
    def test_empty_is_one(self):
        assert prod([]) == 1

    def test_ints_stay_int(self):
        result = prod([2, 3, 4])
        assert result == 24
        assert isinstance(result, int)

    def test_mixed_floats(self):
        assert prod([2, 0.5]) == pytest.approx(1.0)


def _left_fold(values):
    total = 0
    for value in values:
        total = total + value
    return total


class TestFoldSum:
    def test_ints_stay_ints(self):
        assert fold_sum([1, 2, 3]) == 6
        assert isinstance(fold_sum([1, 2, 3]), int)
        assert fold_sum([]) == 0

    def test_sums_left_to_right_without_compensation(self):
        # A compensated sum (3.12's ``sum``, ``math.fsum``) gives 1.0.
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0

    def test_matches_the_plain_fold_on_random_rows(self):
        rng = random.Random(0)
        for _ in range(200):
            row = [rng.uniform(0, 1e6) ** rng.uniform(0.5, 2)
                   for _ in range(rng.randrange(1, 40))]
            assert fold_sum(row) == _left_fold(row)
            assert fold_sum(iter(row)) == _left_fold(row)


class TestBestAndMean:
    def test_skips_non_finite_entries(self):
        best, mean = best_and_mean([[math.inf, 2.0, 1.0, math.nan],
                                    [math.inf] * 4])
        assert best == [1.0, math.inf]
        assert mean == [1.5, math.inf]

    def test_empty_row(self):
        assert best_and_mean([()]) == ([math.inf], [math.inf])

    def test_mean_is_the_left_fold_over_finite_entries(self):
        rng = random.Random(1)
        rows = [[rng.choice([math.inf, rng.uniform(0, 1e9)])
                 for _ in range(24)] for _ in range(300)]
        bests, means = best_and_mean(rows)
        for row, best, mean in zip(rows, bests, means):
            finite = [f for f in row if math.isfinite(f)]
            assert best == (min(finite) if finite else math.inf)
            assert mean == (_left_fold(finite) / len(finite) if finite
                            else math.inf)
        # not a compensated sum
        assert best_and_mean([[1e16, 1.0, -1e16]])[1] == [0.0]

    def test_iteration_stats_use_it(self):
        stats = IterationStats.from_fitnesses(3, (1e16, 1.0, -1e16), 4)
        assert stats.mean_fitness == 0.0
        assert (stats.best_fitness, stats.valid_count) == (-1e16, 3)


class TestClamp:
    def test_inside_range(self):
        assert clamp(5, 0, 10) == 5

    def test_below(self):
        assert clamp(-3, 0, 10) == 0

    def test_above(self):
        assert clamp(30, 0, 10) == 10

    def test_inverted_bounds_raise(self):
        with pytest.raises(ValueError):
            clamp(5, 10, 0)


class TestGeomean:
    def test_single_value(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_order_invariant(self):
        assert geomean([2, 8, 4]) == pytest.approx(geomean([8, 4, 2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_large_values_no_overflow(self):
        result = geomean([1e300, 1e300])
        assert math.isfinite(result)
        assert result == pytest.approx(1e300, rel=1e-6)


class TestDivisors:
    def test_prime(self):
        assert divisors(7) == [1, 7]

    def test_composite_sorted(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_square(self):
        assert divisors(16) == [1, 2, 4, 8, 16]

    def test_one(self):
        assert divisors(1) == [1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)


class TestRoundToStride:
    def test_snaps_to_multiple(self):
        assert round_to_stride(13, 8, 8) == 16

    def test_respects_minimum(self):
        assert round_to_stride(1, 8, 8) == 8

    def test_exact_value(self):
        assert round_to_stride(24, 8, 8) == 24

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            round_to_stride(10, 0, 1)


class TestNearestMultiple:
    def test_rounds_up(self):
        assert nearest_multiple(13, 8) == 16

    def test_exact(self):
        assert nearest_multiple(16, 8) == 16

    def test_minimum_is_base(self):
        assert nearest_multiple(0, 8) == 8

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            nearest_multiple(5, 0)
