"""Symbolic evaluation: recursive convex combination over term indices.

The recursion combines the first (largest) index with the aggregate of
the tail, then rounds back to an index. Every input weighs the same, so
with m inputs left the head weighs exactly 1/m. Inputs must be sorted in
non-increasing order; the worked arithmetic of the method is only
consistent with that ordering, so it is fixed here rather than exposed
as an option.
"""

from __future__ import annotations

from typing import Sequence

from .rounding import round_half_away


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
    return second_index + round_half_away(w1 * (first_index - second_index))


def sm_aggregate(indices: Sequence[int], g: int) -> int:
    """Aggregate pre-sorted indices under equal weights; returns one
    index in [0, g].

    Folds from the tail: the head of the last m indices weighs 1/m
    against the aggregate of the m - 1 after it.
    """
    if not indices:
        raise ValueError("cannot aggregate an empty index list")
    if any(i < 0 or i > g for i in indices):
        raise ValueError(f"indices must lie in [0, {g}], got {list(indices)}")
    if list(indices) != sort_terms_descending(indices):
        raise ValueError("indices must be pre-sorted in non-increasing order")
    result = indices[-1]
    for m in range(2, len(indices) + 1):
        result = sm2(1.0 / m, indices[-m], result, g)
    return result
