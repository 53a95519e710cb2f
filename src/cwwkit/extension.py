"""Extension-principle evaluation on triangular membership tuples.

Terms live on [0, 1] as tri-tuples (l, m, r). Aggregation is the
componentwise mean; the aggregate is mapped back to a word by minimum
weighted Euclidean distance.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence

from ._value import Value, set_field


class TriTuple(Value):
    """Triangular membership function by left / middle / right abscissae."""

    _fields = ("l", "m", "r")

    def __init__(self, l: float, m: float, r: float):
        set_field(self, "l", l)
        set_field(self, "m", m)
        set_field(self, "r", r)
        if not (self.l <= self.m <= self.r):
            raise ValueError(f"tri-tuple requires l <= m <= r, got {self}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l, self.m, self.r)


# Component weights (left, middle, right) of the linguistic-approximation
# distance, fixed by the method.
DISTANCE_WEIGHTS = (0.2, 0.6, 0.2)


@cache
def uniform_triangular_partition(cardinality: int) -> tuple[TriTuple, ...]:
    """Tri-tuples of a uniform partition with term middles at i/g.

    Interior terms span ((i-1)/g, i/g, (i+1)/g); the end terms are
    shoulders pinned to the domain boundary. Built once per cardinality:
    the tuple and its tri-tuples are immutable, so every caller shares it.
    """
    if cardinality < 2:
        raise ValueError(f"partition needs cardinality >= 2, got {cardinality}")
    g = cardinality - 1
    tuples = [TriTuple(0.0, 0.0, 1.0 / g)]
    for i in range(1, g):
        tuples.append(TriTuple((i - 1) / g, i / g, (i + 1) / g))
    tuples.append(TriTuple((g - 1) / g, 1.0, 1.0))
    return tuple(tuples)


def aggregate_tri_tuples(inputs: Sequence[TriTuple]) -> TriTuple:
    """Componentwise arithmetic mean of the input tuples."""
    if not inputs:
        raise ValueError("cannot aggregate an empty list of tri-tuples")
    n = len(inputs)
    # fsum keeps the mean exactly permutation invariant
    return TriTuple(
        math.fsum(t.l for t in inputs) / n,
        math.fsum(t.m for t in inputs) / n,
        math.fsum(t.r for t in inputs) / n,
    )


def weighted_distance(term: TriTuple, c: TriTuple) -> float:
    """Weighted Euclidean distance between two tri-tuples."""
    p1, p2, p3 = DISTANCE_WEIGHTS
    parts = [
        p1 * (term.l - c.l) ** 2,
        p2 * (term.m - c.m) ** 2,
        p3 * (term.r - c.r) ** 2,
    ]
    # fsum so that mirrored configurations compare as exact ties
    return math.sqrt(math.fsum(parts))


def linguistic_approximation(
    c: TriTuple, recommendation_terms: Sequence[TriTuple]
) -> tuple[int, float]:
    """Index of the closest term and its distance; ties go to the lowest index."""
    if not recommendation_terms:
        raise ValueError("no recommendation terms to approximate against")
    best_index, best_distance = 0, weighted_distance(recommendation_terms[0], c)
    for index, term in enumerate(recommendation_terms[1:], start=1):
        d = weighted_distance(term, c)
        if d < best_distance:
            best_index, best_distance = index, d
    return best_index, best_distance
