"""2-tuple linguistic evaluation: index mean plus symbolic translation.

The aggregate of the input indices is a real number beta in [0, g];
it is split into the nearest term index (halves away from zero) and a
translation alpha in [-0.5, 0.5] so that index + alpha == beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rounding import round_half_away


@dataclass(frozen=True)
class TwoTuple:
    """A term index paired with its symbolic translation."""

    term_index: int
    alpha: float

    def __post_init__(self):
        if self.term_index < 0:
            raise ValueError(f"term index must be >= 0, got {self.term_index}")
        if not -0.5 <= self.alpha <= 0.5:
            raise ValueError(f"alpha must lie in [-0.5, 0.5], got {self.alpha}")


def aggregate_beta(indices: Sequence[int]) -> float:
    """Arithmetic mean of the input term indices."""
    if not indices:
        raise ValueError("cannot aggregate an empty index list")
    if any(i < 0 for i in indices):
        raise ValueError(f"indices must be >= 0, got {list(indices)}")
    return sum(indices) / len(indices)


def to_two_tuple(beta: float, g: int) -> TwoTuple:
    """Split beta into (term index, alpha); index rounds halves away from zero."""
    if not 0 <= beta <= g:
        raise ValueError(f"beta must lie in [0, {g}], got {beta}")
    index = round_half_away(beta)
    return TwoTuple(term_index=index, alpha=beta - index)
