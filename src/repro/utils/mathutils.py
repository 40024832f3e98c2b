"""Small arithmetic helpers used across the cost model and search code.

These are deliberately pure-Python (no numpy) because they sit on the hot
path of the analytical cost model, where per-call numpy overhead dominates
actual arithmetic for scalar work.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; ``b`` must be positive."""
    if b <= 0:
        raise ValueError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def prod(values: Iterable[float]) -> float:
    """Product of an iterable (1 for empty), preserving ints when possible."""
    result = 1
    for value in values:
        result = result * value
    return result


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right sum from ``0`` (ints stay ints).

    The float ``sum`` of Python 3.11 and earlier, which 3.12 made
    compensated; search results must not depend on the Python version.
    """
    total = 0
    for value in values:
        total = total + value
    return total


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval [low, high]."""
    if low > high:
        raise ValueError(f"clamp bounds inverted: [{low}, {high}]")
    return max(low, min(high, value))


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; raises on empty or non-positive."""
    if not values:
        raise ValueError("geomean of empty sequence")
    total = 0.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geomean requires positive values, got {value}")
        total += math.log(value)
    return math.exp(total / len(values))


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n`` in ascending order."""
    if n <= 0:
        raise ValueError(f"divisors requires a positive integer, got {n}")
    small: List[int] = []
    large: List[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def round_to_stride(value: float, stride: int, minimum: int) -> int:
    """Round ``value`` to the nearest positive multiple of ``stride``.

    Used to discretize searched sizes the way the paper does (#PEs at
    stride 8, buffer sizes at stride 16 B, array sizes at stride 2).
    """
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    snapped = int(round(value / stride)) * stride
    return max(minimum, snapped)


def nearest_multiple(value: int, base: int) -> int:
    """Smallest multiple of ``base`` that is >= ``value`` (and >= base)."""
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    return max(base, ceil_div(value, base) * base)
