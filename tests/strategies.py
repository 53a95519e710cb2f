"""Shared generators for randomized FOUs, tri-tuples and feedback batches.

The trapezoid construction guarantees validity: the lower plateau sits
inside the upper plateau, and the lower edges start no earlier than the
point where the upper edge reaches the lower height, which keeps the
lower bound under the upper bound everywhere. The interpolated lower
plateau ends and lower edges are clamped into their intervals, because
in floating point a fraction of 1.0 can land a last-bit past the end
(e past f, or g past c).
"""

import numpy as np
from hypothesis import strategies as st

from cwwkit import (FeedbackRecord, RawFeedback, TrapezoidIT2, TriTuple,
                    build_default_schema)

DOMAIN = (0.0, 10.0)
MIN_SUPPORT = 0.5  # keeps a handful of grid samples inside the support


def _assemble_fou(knots, h, plateau_fracs, edge_fracs):
    a, b, c, d = sorted(knots)
    t0, t1 = sorted(plateau_fracs)
    f = min(b + t0 * (c - b), c)
    g = min(b + t1 * (c - b), c)
    e_low = min(a + h * (b - a), f)
    e = min(e_low + edge_fracs[0] * (f - e_low), f)
    i_high = max(d - h * (d - c), g)
    i = min(max(g + edge_fracs[1] * (i_high - g), g), i_high)
    return TrapezoidIT2(a, b, c, d, e, f, g, i, h)


@st.composite
def trapezoid_it2(draw):
    lo, hi = DOMAIN
    knots = draw(
        st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=4, max_size=4,
        ).map(sorted).filter(lambda k: k[3] - k[0] >= MIN_SUPPORT)
    )
    h = draw(st.floats(0.05, 1.0, allow_nan=False))
    plateau = draw(st.tuples(st.floats(0, 1), st.floats(0, 1)))
    edges = draw(st.tuples(st.floats(0, 1), st.floats(0, 1)))
    return _assemble_fou(knots, h, plateau, edges)


def random_fou(rng: np.random.Generator) -> TrapezoidIT2:
    """Seeded counterpart of trapezoid_it2 for fixed-count sweeps."""
    lo, hi = DOMAIN
    while True:
        knots = np.sort(rng.uniform(lo, hi, size=4))
        if knots[3] - knots[0] >= MIN_SUPPORT:
            break
    h = float(rng.uniform(0.05, 1.0))
    plateau = rng.uniform(0.0, 1.0, size=2)
    edges = rng.uniform(0.0, 1.0, size=2)
    return _assemble_fou(knots, h, plateau, edges)


@st.composite
def tri_tuple(draw):
    values = sorted(
        draw(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=3))
    )
    return TriTuple(*values)


# any text: non-ASCII, control characters, line breaks, quotes and commas included
STUDENT_IDS = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)


@st.composite
def feedback_batches(draw, max_rows: int = 12):
    """Feedback rows that repeat a few vectors of the default schema, under
    drawn ids, some of them repeated. About one row in six is raw, with a
    word that does not resolve."""
    parameters = build_default_schema().parameters
    vectors = draw(st.lists(st.tuples(*[st.sampled_from(p.terms) for p in parameters]),
                            min_size=1, max_size=3))
    ids = st.sampled_from(draw(st.lists(STUDENT_IDS, min_size=1, max_size=4))) | STUDENT_IDS
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        if draw(st.integers(0, 5)):
            rows.append(FeedbackRecord(draw(ids), draw(st.sampled_from(vectors))))
        else:
            rows.append(RawFeedback(draw(ids), {p.name: "Tiny" for p in parameters}))
    return rows
