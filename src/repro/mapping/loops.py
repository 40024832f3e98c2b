"""Loop orders: permutations of the six searched convolution dimensions."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import InvalidMappingError
from repro.tensors.dims import SEARCHED_DIMS, Dim

#: A loop order is a permutation of the searched dims, outermost first.
LoopOrder = Tuple[Dim, ...]


def canonical_order() -> LoopOrder:
    """The paper's notation order (K, C, Y, X, R, S), outermost first."""
    return tuple(SEARCHED_DIMS)


#: Member identities of the searched dims: ``Dim`` members are
#: singletons, and comparing ids avoids the enum's Python-level hash.
_SEARCHED_IDS = frozenset(map(id, SEARCHED_DIMS))


def validate_order(order: Sequence[Dim],
                   context: str = "loop order") -> LoopOrder:
    """Check that ``order`` is a permutation of the searched dims."""
    order = tuple(order)
    if (len(order) != len(SEARCHED_DIMS)
            or frozenset(map(id, order)) != _SEARCHED_IDS):
        raise InvalidMappingError(
            f"{context} must be a permutation of "
            f"{[d.name for d in SEARCHED_DIMS]}, "
            f"got {[getattr(d, 'name', d) for d in order]}")
    return order


def order_from_importance(importance: Sequence[float]) -> LoopOrder:
    """Decode importance values into a loop order (§II-B, Fig 3 right).

    The dimension with the highest importance becomes the outermost loop
    (best data locality); the lowest becomes the innermost. Ties break by
    the canonical dimension order so decoding is deterministic.
    """
    if len(importance) != len(SEARCHED_DIMS):
        raise InvalidMappingError(
            f"importance vector needs {len(SEARCHED_DIMS)} entries, "
            f"got {len(importance)}")
    ranked = sorted(zip(SEARCHED_DIMS, importance), key=lambda pair: -pair[1])
    return tuple(dim for dim, _ in ranked)


def position_of(order: Sequence[Dim], dim: Dim) -> int:
    """Index of ``dim`` within ``order`` (0 = outermost)."""
    for index, candidate in enumerate(order):
        if candidate is dim:
            return index
    raise InvalidMappingError(f"dim {dim.name} missing from order {order}")
