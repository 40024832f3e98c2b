"""Index-based (ablation) encoding utilities.

The straw-man encoding from §II-A(b): enumerate every ordering choice
and embed the enumeration index as one scalar. Nearby scalar values then
correspond to arbitrary, unrelated orderings, which is exactly why the
paper's importance-based encoding optimizes better (Fig 9).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.errors import EncodingError
from repro.tensors.dims import SEARCHED_DIMS, Dim


def permutation_count(n: int, k: int) -> int:
    """Number of ordered selections of k items from n."""
    if not 0 <= k <= n:
        raise EncodingError(f"invalid selection {k} of {n}")
    return math.factorial(n) // math.factorial(n - k)


def nth_permutation(items: Sequence[Dim], k: int,
                    index: int) -> Tuple[Dim, ...]:
    """The ``index``-th ordered selection of ``k`` items (factoradic order)."""
    total = permutation_count(len(items), k)
    if not 0 <= index < total:
        raise EncodingError(f"permutation index {index} out of range {total}")
    pool: List[Dim] = list(items)
    result: List[Dim] = []
    remaining = index
    for position in range(k):
        block = permutation_count(len(pool) - 1, k - position - 1)
        choice, remaining = divmod(remaining, block)
        result.append(pool.pop(choice))
    return tuple(result)


def scalar_to_index(value: float, count: int) -> int:
    """Map a scalar in [0, 1] to an integer index in [0, count)."""
    if count <= 0:
        raise EncodingError(f"count must be positive, got {count}")
    # Clamping before truncating equals clamping ``int(value * count)``
    # and stays finite when ``value * count`` overflows.
    return int(min(max(value * count, 0), count - 1))


def decode_order_scalar(value: float) -> Tuple[Dim, ...]:
    """Scalar in [0,1] -> a full loop order over the six searched dims."""
    total = permutation_count(len(SEARCHED_DIMS), len(SEARCHED_DIMS))
    return nth_permutation(SEARCHED_DIMS, len(SEARCHED_DIMS),
                           scalar_to_index(value, total))


def decode_parallel_scalar(value: float, k: int) -> Tuple[Dim, ...]:
    """Scalar in [0,1] -> an ordered choice of ``k`` parallel dims."""
    total = permutation_count(len(SEARCHED_DIMS), k)
    return nth_permutation(SEARCHED_DIMS, k, scalar_to_index(value, total))
