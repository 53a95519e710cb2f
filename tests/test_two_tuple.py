import math

import pytest
from hypothesis import given, strategies as st

from cwwkit import TwoTuple, aggregate_beta, to_two_tuple


def test_beta_walkthrough_student():
    assert aggregate_beta([1, 3, 2, 2]) == 2.0


def test_beta_quarter_steps():
    assert aggregate_beta([3, 4, 2, 1]) == 2.5
    assert aggregate_beta([2, 2, 2, 2]) == 2.0


def test_beta_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        aggregate_beta([])
    with pytest.raises(ValueError):
        aggregate_beta([1, -1])


def test_translation_example():
    pair = to_two_tuple(2.3, g=4)
    assert pair.term_index == 2
    assert pair.alpha == pytest.approx(0.3, abs=1e-12)


def test_translation_integer_beta():
    assert to_two_tuple(2.0, g=4) == TwoTuple(2, 0.0)


def test_translation_half_rounds_up():
    pair = to_two_tuple(2.5, g=4)
    assert pair.term_index == 3
    assert pair.alpha == -0.5


def test_translation_rejects_out_of_range():
    with pytest.raises(ValueError):
        to_two_tuple(4.5, g=4)
    with pytest.raises(ValueError):
        to_two_tuple(-0.1, g=4)


def test_two_tuple_validation():
    with pytest.raises(ValueError):
        TwoTuple(2, 0.6)
    with pytest.raises(ValueError):
        TwoTuple(-1, 0.0)


@given(st.integers(1, 8), st.data())
def test_round_trip_is_exact(g, data):
    beta = data.draw(st.floats(0, g, allow_nan=False))
    pair = to_two_tuple(beta, g)
    assert pair.term_index + pair.alpha == beta


@given(st.integers(1, 8), st.data())
def test_alpha_within_half(g, data):
    beta = data.draw(st.floats(0, g, allow_nan=False))
    pair = to_two_tuple(beta, g)
    assert -0.5 <= pair.alpha <= 0.5
    if pair.alpha == -0.5:
        # half-away rounding only lands on -0.5 at exact half-way points
        assert beta - math.floor(beta) == 0.5


@given(st.lists(st.integers(0, 4), min_size=1, max_size=10))
def test_beta_stays_in_index_range(indices):
    beta = aggregate_beta(indices)
    assert 0 <= beta <= 4
    assert min(indices) <= beta <= max(indices)
