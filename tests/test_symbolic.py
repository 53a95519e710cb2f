import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, strategies as st

from cwwkit import sm2, sm_aggregate
from cwwkit.rounding import round_half_away


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3
    assert round_half_away(2.4) == 2
    assert round_half_away(-0.5) == -1
    assert round_half_away(0.0) == 0


def test_sm2_walkthrough_steps():
    assert sm2(0.5, 2, 1, 4) == 2
    assert sm2(1 / 3, 2, 2, 4) == 2
    assert sm2(0.25, 3, 2, 4) == 2


def test_sm2_full_weight_on_first():
    assert sm2(1.0, 3, 0, 4) == 3


def test_sm2_zero_span():
    for w1 in (0.0, 0.3, 0.5, 1.0):
        assert sm2(w1, 2, 2, 4) == 2


@given(st.data(), st.integers(1, 1000), st.floats(0.0, 1.0))
def test_sm2_stays_between_its_indices(data, g, w1):
    # w1 <= 1 keeps the rounded step within first - second, so the
    # result never needs clamping to g
    first = data.draw(st.integers(0, g))
    second = data.draw(st.integers(0, first))
    assert second <= sm2(w1, first, second, g) <= first


def test_sm2_rejects_bad_indices():
    with pytest.raises(ValueError):
        sm2(0.5, 1, 2, 4)  # second > first
    with pytest.raises(ValueError):
        sm2(0.5, 5, 1, 4)  # beyond g
    with pytest.raises(ValueError):
        sm2(1.5, 2, 1, 4)  # weight out of range


def test_aggregate_walkthrough_student():
    assert sm_aggregate([3, 2, 2, 1], g=4) == 2


def test_aggregate_spread_student():
    assert sm_aggregate([4, 3, 2, 1], g=4) == 3


def test_aggregate_constant_input():
    assert sm_aggregate([2, 2, 2, 2], g=4) == 2


def test_aggregate_singleton():
    assert sm_aggregate([3], g=4) == 3


def test_aggregate_ignores_the_order_of_its_input():
    # the walkthrough student's indices, sorted inside the aggregate
    for order in permutations([1, 3, 2, 2]):
        assert sm_aggregate(order, g=4) == 2
    assert sm_aggregate((1, 3, 2, 2), g=4) == sm_aggregate([3, 2, 2, 1], g=4)


def test_aggregate_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        sm_aggregate([5, 2], g=4)


def test_aggregate_rejects_empty_input():
    with pytest.raises(ValueError, match="empty"):
        sm_aggregate([], g=4)


def _exact_aggregate(indices):
    """The equal-weight recursion in exact arithmetic: the head of the
    last m indices weighs 1/m, and halves round up."""
    result = indices[-1]
    for m in range(2, len(indices) + 1):
        step = Fraction(indices[-m] - result, m)
        result += math.floor(step + Fraction(1, 2))
    return result


def test_equal_weight_recursion_is_exact():
    cases = 0
    for g in range(1, 7):
        for n in range(1, 11):
            for indices in combinations_with_replacement(range(g, -1, -1), n):
                cases += 1
                assert sm_aggregate(indices, g) == _exact_aggregate(indices), (indices, g)
    assert cases == 31806
    # the last seven aggregate to 0; the head of eight adds 1/8 * 4 = 0.5,
    # which rounds up to 1. A head weight of 0.12499999999999997, as
    # renormalizing the nine weights 1/9 gives, rounds it down to 0.
    assert sm_aggregate([4, 4, 3, 2, 2, 1, 1, 0, 0], 4) == 1


@st.composite
def indices_and_g(draw):
    n = draw(st.integers(1, 6))
    g = draw(st.integers(1, 8))
    indices = sorted(
        (draw(st.integers(0, g)) for _ in range(n)), reverse=True
    )
    return indices, g


@given(indices_and_g())
def test_result_bounded_by_input_range(case):
    indices, g = case
    result = sm_aggregate(indices, g)
    assert min(indices) <= result <= max(indices)


@given(st.integers(0, 6), st.integers(1, 10), st.data())
def test_identical_inputs_return_identity(value, n, data):
    g = max(value, 1) + data.draw(st.integers(0, 3))
    assert sm_aggregate([value] * n, g) == value
