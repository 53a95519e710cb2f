"""Symbolic evaluation: recursive convex combination over term indices.

The recursion combines the first (largest) index with the aggregate of
the tail under renormalized weights, then rounds back to an index.
Inputs must be sorted in non-increasing order; the worked arithmetic of
the method is only consistent with that ordering, so it is fixed here
rather than exposed as an option.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rounding import round_half_away

_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class WeightVector:
    """Convex weights w_p over the ordered inputs; must sum to 1."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weight vector cannot be empty")
        if any(w < 0 or w > 1 for w in self.weights):
            raise ValueError("weights must lie in [0, 1]")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)!r}")

    @classmethod
    def equal(cls, n: int) -> "WeightVector":
        if n < 1:
            raise ValueError("need at least one weight")
        return cls(tuple(1.0 / n for _ in range(n)))

    def __len__(self) -> int:
        return len(self.weights)


def sort_terms_descending(indices: Sequence[int]) -> list[int]:
    """Stable sort of term indices in non-increasing order."""
    return sorted(indices, reverse=True)


def sm2(w1: float, first_index: int, second_index: int, g: int) -> int:
    """Two-term convex combination, rounding halves away from zero."""
    if not 0 <= second_index <= first_index <= g:
        raise ValueError(
            f"need 0 <= second <= first <= g, got ({first_index}, {second_index}, g={g})"
        )
    if not 0.0 <= w1 <= 1.0:
        raise ValueError(f"w1 must lie in [0, 1], got {w1}")
    return min(g, second_index + round_half_away(w1 * (first_index - second_index)))


def sm_aggregate(indices: Sequence[int], w: WeightVector, g: int) -> int:
    """Aggregate pre-sorted indices top-down; returns one index in [0, g].

    At each level the head index is combined with the aggregate of the
    tail, computed under tail weights renormalized to sum 1.
    """
    if len(indices) != len(w):
        raise ValueError(
            f"{len(indices)} indices but {len(w)} weights"
        )
    if not indices:
        raise ValueError("cannot aggregate an empty index list")
    if any(i < 0 or i > g for i in indices):
        raise ValueError(f"indices must lie in [0, {g}], got {list(indices)}")
    if list(indices) != sort_terms_descending(indices):
        raise ValueError("indices must be pre-sorted in non-increasing order")
    return _recurse(list(indices), list(w.weights), g)


def _recurse(indices: list[int], weights: list[float], g: int) -> int:
    if len(indices) == 1:
        return indices[0]
    tail_sum = sum(weights[1:])
    if tail_sum > 0:
        tail = [wk / tail_sum for wk in weights[1:]]
    else:
        # full weight on the head; the tail value cannot influence sm2
        tail = [1.0 / (len(weights) - 1)] * (len(weights) - 1)
    return sm2(min(weights[0], 1.0), indices[0], _recurse(indices[1:], tail, g), g)
