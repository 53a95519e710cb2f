import pytest
from hypothesis import given, strategies as st

from cwwkit import (TriTuple, aggregate_tri_tuples, linguistic_approximation,
                    uniform_triangular_partition, weighted_distance)
from cwwkit.extension import DISTANCE_WEIGHTS
from strategies import tri_tuple

SS1_TUPLES = [
    TriTuple(0.0, 0.25, 0.5),
    TriTuple(0.5, 0.75, 1.0),
    TriTuple(0.25, 0.5, 0.75),
    TriTuple(0.25, 0.5, 0.75),
]


def test_partition_five_terms():
    terms = uniform_triangular_partition(5)
    assert terms[0] == TriTuple(0.0, 0.0, 0.25)
    assert terms[1] == TriTuple(0.0, 0.25, 0.5)
    assert terms[2] == TriTuple(0.25, 0.5, 0.75)
    assert terms[3] == TriTuple(0.5, 0.75, 1.0)
    assert terms[4] == TriTuple(0.75, 1.0, 1.0)


def test_partition_two_terms():
    assert uniform_triangular_partition(2) == (TriTuple(0, 0, 1), TriTuple(0, 1, 1))


def test_partition_rejects_single_term():
    with pytest.raises(ValueError):
        uniform_triangular_partition(1)


def test_tri_tuple_ordering_enforced():
    with pytest.raises(ValueError):
        TriTuple(0.5, 0.25, 0.75)


def test_aggregate_walkthrough_student():
    assert aggregate_tri_tuples(SS1_TUPLES) == TriTuple(0.25, 0.5, 0.75)


def test_aggregate_singleton():
    assert aggregate_tri_tuples([TriTuple(0.1, 0.2, 0.3)]) == TriTuple(0.1, 0.2, 0.3)


def test_aggregate_tie_row():
    tuples = [TriTuple(0, 0.25, 0.5), TriTuple(0.25, 0.5, 0.75),
              TriTuple(0.25, 0.5, 0.75), TriTuple(0, 0.25, 0.5)]
    assert aggregate_tri_tuples(tuples) == TriTuple(0.125, 0.375, 0.625)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_tri_tuples([])


def test_distance_zero_for_identical():
    t = TriTuple(0.25, 0.5, 0.75)
    assert weighted_distance(t, t) == 0.0


def test_distance_exact_tie_pair():
    c = TriTuple(0.125, 0.375, 0.625)
    d1 = weighted_distance(TriTuple(0, 0.25, 0.5), c)
    d2 = weighted_distance(TriTuple(0.25, 0.5, 0.75), c)
    assert d1 == 0.125
    assert d1 == d2  # exact, not approximate: the tie must be bitwise


def test_distance_high_aggregate():
    d = weighted_distance(TriTuple(0.75, 1, 1), TriTuple(0.5, 0.75, 0.9375))
    assert d == pytest.approx(0.2253, abs=1e-4)


def test_default_weights():
    assert DISTANCE_WEIGHTS == (0.2, 0.6, 0.2)


def test_approximation_exact_match():
    terms = uniform_triangular_partition(5)
    index, distance = linguistic_approximation(TriTuple(0.25, 0.5, 0.75), terms)
    assert (index, distance) == (2, 0.0)


def test_approximation_tie_breaks_low():
    terms = uniform_triangular_partition(5)
    index, distance = linguistic_approximation(TriTuple(0.125, 0.375, 0.625), terms)
    assert index == 1
    assert distance == 0.125


def test_approximation_high_aggregate():
    terms = uniform_triangular_partition(5)
    index, _ = linguistic_approximation(TriTuple(0.5, 0.75, 0.9375), terms)
    assert index == 3


def test_approximation_rejects_empty():
    with pytest.raises(ValueError):
        linguistic_approximation(TriTuple(0, 0, 0), [])


@given(st.lists(tri_tuple(), min_size=1, max_size=8), st.randoms())
def test_aggregate_is_permutation_invariant(tuples, rnd):
    shuffled = list(tuples)
    rnd.shuffle(shuffled)
    assert aggregate_tri_tuples(shuffled) == aggregate_tri_tuples(tuples)


@given(st.lists(tri_tuple(), min_size=1, max_size=8))
def test_aggregate_preserves_ordering(tuples):
    agg = aggregate_tri_tuples(tuples)
    assert agg.l <= agg.m <= agg.r


@given(tri_tuple(), tri_tuple())
def test_distance_symmetric(a, b):
    assert weighted_distance(a, b) == weighted_distance(b, a)


@given(tri_tuple(), tri_tuple())
def test_distance_zero_iff_equal(a, b):
    d = weighted_distance(a, b)
    assert d >= 0
    if a == b:
        assert d == 0
    elif d == 0:
        # positive weights: zero distance only via squared-diff underflow
        gap = max(abs(a.l - b.l), abs(a.m - b.m), abs(a.r - b.r))
        assert gap < 1e-150


@given(st.integers(0, 4))
def test_approximation_returns_exact_terms(index):
    terms = uniform_triangular_partition(5)
    assert linguistic_approximation(terms[index], terms) == (index, 0.0)
