"""Acceptance suite: one test per exit criterion, each printing a PASS or
FAIL line (run with `pytest tests/test_acceptance.py -v -rA` to see them).

Criteria 1 and 2 compare every cell of the evaluated batch against the
shipped reference comparison table. Five reference cells disagree with
the engine's documented method (tests/reference_data.py DIVERGENCES).
Every other cell must match as before. The set of mismatching cells must
equal the enumerated one, so a new mismatch fails, and so does a
divergent cell that starts to agree. Each divergent cell is also checked
against its derived cause:

- extension principle, students 8, 10 and 15: exact rational distances
  of the aggregate to the engine's and the published word. Students 8
  and 10 are strictly nearer the engine's word; 15 is an exact tie that
  the table sends to the upper word, while it sends the same kind of tie
  (student 19) to the lower one;
- perceptual scores, students 6 and 9: the published value is the mean
  of the four input words' stored centroid means rounded half-up, not
  the centroid of the aggregate, which the engine computes and the
  exhaustive scan confirms;
- perceptual words, students 9 and 15: the engine's word wins the
  Jaccard comparison by at least 0.03. Which decoder produced the
  published words is not known.
"""

import collections
import csv
import functools
import itertools
import math
import time
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from cwwkit import (DiscretizationGrid, EvalOptions, FeedbackRecord, Method,
                    TriTuple, aggregate_beta,
                    aggregate_tri_tuples, centroid, centroid_brute_force,
                    evaluate_batch, jaccard_similarity,
                    linguistic_approximation, lower_membership, lwa_exact,
                    lwa_paper, sm2, sm_aggregate, to_two_tuple,
                    uniform_triangular_partition, upper_membership,
                    uniqueness_report, verify_stored_centroids)
from cwwkit.it2 import DEFAULT_GRID
from cwwkit.pipeline import (LWA_MODES, EvaluationReport, MethodCell,
                             Recommendation, ReportRow)
from cwwkit.rounding import round_half_away
from reference_data import DIVERGENCES, PUBLISHED, PUBLISHED_AGGREGATES
from strategies import random_fou


def _passed(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {criterion}{suffix}")


def _method_cells(report, method):
    return {
        int(row.student_id): row.cells[method].recommendation
        for row in report.rows
    }


def _divergent(*kinds):
    return {key for key in DIVERGENCES if key[1] in kinds}


def _assert_divergent_cells(mismatches: set, expected: set, what: str):
    """The cells that differ from the reference table are exactly the
    enumerated ones: a new mismatch fails, and so does a flipped cell."""
    def listed(cells):
        return "".join(f"\n  student {sid} {kind}" for sid, kind in sorted(cells))
    assert mismatches == expected, (
        f"{what} cells that differ from the reference table are not the "
        f"enumerated DIVERGENCES.\nunexpected:{listed(mismatches - expected)}"
        f"\nno longer divergent:{listed(expected - mismatches)}"
    )


# Exact extension-principle arithmetic on the uniform 5-term partition
# with distance weights 0.2/0.6/0.2: student -> (aggregate, squared
# distance to the engine's word, squared distance to the published word).
EXTENSION_CAUSES = {
    8: ((Fraction(7, 16), Fraction(11, 16), Fraction(7, 8)),
        Fraction(1, 160), Fraction(1, 32)),
    10: ((Fraction(1, 2), Fraction(11, 16), Fraction(13, 16)),
         Fraction(3, 320), Fraction(11, 320)),
    15: ((Fraction(3, 16), Fraction(3, 8), Fraction(9, 16)),
         Fraction(11, 640), Fraction(11, 640)),
}
_EXACT_WEIGHTS = (Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))


def _exact_term(index: int, g: int = 4) -> tuple[Fraction, ...]:
    return (Fraction(max(index - 1, 0), g), Fraction(index, g),
            Fraction(min(index + 1, g), g))


def _exact_aggregate(schema, words) -> tuple[Fraction, ...]:
    terms = [_exact_term(param.find(word).index)
             for param, word in zip(schema.parameters, words)]
    return tuple(sum(component) / len(terms) for component in zip(*terms))


def _squared_distance(term, aggregate) -> Fraction:
    return sum(w * (t - c) ** 2 for w, t, c in zip(_EXACT_WEIGHTS, term, aggregate))


def _check_extension_cause(schema, sid):
    engine_word, published_word = DIVERGENCES[(sid, "extension_principle")]
    engine = schema.recommendation.find(engine_word).index
    published = schema.recommendation.find(published_word).index
    aggregate, d_engine, d_published = EXTENSION_CAUSES[sid]
    assert _exact_aggregate(schema, PUBLISHED[sid][0]) == aggregate, sid
    assert _squared_distance(_exact_term(engine), aggregate) == d_engine, sid
    assert _squared_distance(_exact_term(published), aggregate) == d_published, sid
    # nearer, or an exact tie that the documented rule sends to the lower word
    assert d_engine < d_published or (d_engine == d_published and engine < published), sid


def _check_extension_ties_both_ways(schema):
    """Student 8's engine word is no farther in any component, so no
    nonnegative weights give the published word; the table resolves the
    exact tie of student 15 upward and the one of student 19 downward."""
    ssba, ssa, ssg = (_exact_term(schema.recommendation.find(word).index)
                      for word in ("SSBA", "SSA", "SSG"))
    aggregate = EXTENSION_CAUSES[8][0]
    assert all(abs(g - c) <= abs(a - c) for g, a, c in zip(ssg, ssa, aggregate))

    aggregate = _exact_aggregate(schema, PUBLISHED[19][0])
    assert _squared_distance(ssba, aggregate) == _squared_distance(ssa, aggregate) == Fraction(1, 64)
    assert PUBLISHED[19][2] == "SSBA" and PUBLISHED[15][2] == "SSA"


@functools.cache
def _stored_centroids() -> dict[tuple[str, str], dict[str, Decimal]]:
    """Stored centroid columns of the bundled codebook, read from the CSV
    text so that no binary rounding enters."""
    text = resources.files("cwwkit.data").joinpath("codebook_default.csv").read_text("utf-8")
    return {
        (row["parameter"], row["code"]): {
            column: Decimal(row[column]) for column in ("c_l", "c_r", "mean")
        }
        for row in csv.DictReader(text.splitlines())
    }


def _stored_centroid_mean(schema, words, column="mean") -> Decimal:
    """Mean of the input words' stored centroid column, rounded half-up
    to two decimals."""
    values = [_stored_centroids()[(param.name, word)][column]
              for param, word in zip(schema.parameters, words)]
    return (sum(values) / len(values)).quantize(Decimal("0.01"), ROUND_HALF_UP)


def test_criterion_1_linguistic_reproduction(sample_rows, codebook, schema):
    """Every linguistic cell outside DIVERGENCES matches the reference
    table; the divergent ones differ as enumerated, for their derived
    cause; the batch takes < 1 s."""
    start = time.perf_counter()
    report = evaluate_batch(sample_rows, cb=codebook)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"25-student batch took {elapsed:.2f}s at N=1001"

    columns = {
        Method.EXTENSION_PRINCIPLE: 2,
        Method.SYMBOLIC: 4,
        Method.TWO_TUPLE: 6,
        Method.PERCEPTUAL: 8,
    }
    mismatches = {}
    for method, column in columns.items():
        cells = _method_cells(report, method)
        for sid, row in PUBLISHED.items():
            if cells[sid].linguistic.code != row[column]:
                mismatches[(sid, method.value)] = (cells[sid].linguistic.code, row[column])
    expected = _divergent(*(method.value for method in columns))
    _assert_divergent_cells(set(mismatches), expected, "linguistic")
    for key, cells in mismatches.items():
        assert cells == DIVERGENCES[key], key

    perceptual = _method_cells(report, Method.PERCEPTUAL)
    for sid, kind in expected:
        if kind == "extension_principle":
            _check_extension_cause(schema, sid)
        else:
            engine_word, published_word = DIVERGENCES[(sid, kind)]
            similarities = perceptual[sid].similarities
            margin = (similarities[schema.recommendation.find(engine_word).index]
                      - similarities[schema.recommendation.find(published_word).index])
            assert margin >= 0.03, f"student {sid}: Jaccard margin {margin:.4f}"
    _check_extension_ties_both_ways(schema)
    _passed("criterion 1", f"{100 - len(expected)}/100 linguistic cells, "
            f"{len(expected)} divergent by their cause, {elapsed:.3f}s")


def test_criterion_2_numeric_reproduction(full_report, codebook, schema):
    """Numeric cells outside DIVERGENCES: tri-tuples and indices exact,
    beta exact, scores +-0.05; the divergent ones differ as enumerated,
    for their derived cause."""
    mismatches = set()
    ep = _method_cells(full_report, Method.EXTENSION_PRINCIPLE)
    sm = _method_cells(full_report, Method.SYMBOLIC)
    tt = _method_cells(full_report, Method.TWO_TUPLE)
    pc = _method_cells(full_report, Method.PERCEPTUAL)
    for sid, row in PUBLISHED.items():
        if ep[sid].numeric.as_tuple() != row[1]:
            mismatches.add((sid, "extension_principle"))
        if sm[sid].numeric != row[3]:
            mismatches.add((sid, "symbolic"))
        if tt[sid].numeric != row[5]:
            mismatches.add((sid, "two_tuple"))
        if abs(pc[sid].score - row[7]) > 0.05:
            mismatches.add((sid, "perceptual:score"))
    # spot values named by the criterion
    assert tt[4].numeric == 2.5 and tt[8].numeric == 2.75 and tt[9].numeric == 1.5
    expected = _divergent("extension_principle", "perceptual:score")
    _assert_divergent_cells(mismatches, expected, "numeric")

    terms = uniform_triangular_partition(len(schema.recommendation))
    for sid, kind in expected:
        engine, published = DIVERGENCES[(sid, kind)]
        row = PUBLISHED[sid]
        if kind == "extension_principle":
            # the matched tri-tuple is the term of the matched word
            assert ep[sid].numeric == terms[schema.recommendation.find(engine).index]
            assert row[1] == terms[schema.recommendation.find(published).index].as_tuple()
            _check_extension_cause(schema, sid)
            continue
        assert pc[sid].score == pytest.approx(engine, abs=2e-6), sid
        assert row[7] == published
        # the engine's score is the centroid of the aggregate ...
        fous = [codebook.lookup(param.name, word)
                for param, word in zip(schema.parameters, row[0])]
        scan = centroid_brute_force(lwa_exact(fous))
        assert abs(pc[sid].centroid.c_l - scan.c_l) <= 1e-9, sid
        assert abs(pc[sid].centroid.c_r - scan.c_r) <= 1e-9, sid
        # ... while the published one is the mean of the stored centroids
        assert _stored_centroid_mean(schema, row[0]) == Decimal(f"{published:.2f}"), sid
    # that rule, not the centroid, fits the published column: row 23 is
    # its one exception (4.95 by the rule, published 4.97)
    off_rule = {sid for sid, row in PUBLISHED.items()
                if _stored_centroid_mean(schema, row[0]) != Decimal(f"{row[7]:.2f}")}
    assert off_rule == {23}
    _passed("criterion 2", f"{len(expected)} divergent cells by their cause")


def test_criterion_3_aggregate_reproduction(codebook, schema):
    """Parameter-averaged aggregates match the reference rows to +-0.005;
    centroids of the alpha-cut aggregates match theirs to +-0.05.

    The reference centroids (4.44, 5.47) and (4.19, 5.27) are the means
    of the four input words' stored c_l and c_r, rounded half-up, not the
    centroid of either aggregate. The alpha-cut aggregate's centroid lands
    within the tolerance of them; the parameter-averaged one puts its left
    centroid 0.051 (SS1) and 0.088 (SS2) away, outside it.
    """
    for name, ref in PUBLISHED_AGGREGATES.items():
        fous = [
            codebook.lookup(param.name, word)
            for param, word in zip(schema.parameters, ref["words"])
        ]
        averaged = lwa_paper(fous)
        got = averaged.umf + averaged.lmf + (averaged.lmf_height,)
        for value, expected in zip(got, ref["params"]):
            # 1e-12 absorbs binary representation error at the boundary
            # (e.g. |5.645 - 5.65| is exactly the 0.005 tolerance)
            assert abs(value - expected) <= 0.005 + 1e-12, (
                f"{name}: parameter {value} vs {expected}"
            )
        interval = centroid(lwa_exact(fous))
        assert abs(interval.c_l - ref["centroid"][0]) <= 0.05, name
        assert abs(interval.c_r - ref["centroid"][1]) <= 0.05, name
        assert abs(interval.mean - ref["mean"]) <= 0.05, name
        stored = tuple(_stored_centroid_mean(schema, ref["words"], column)
                       for column in ("c_l", "c_r"))
        assert stored == tuple(Decimal(f"{c:.2f}") for c in ref["centroid"]), name
    _passed("criterion 3", "aggregate parameters +-0.005, centroids +-0.05")


def test_criterion_4_codebook_verification(codebook):
    """Recomputed centroids within +-0.05 of stored; means are midpoints."""
    verification = verify_stored_centroids(codebook, tolerance=0.05)
    failing = [c for c in verification.checks if not c.passed]
    assert not failing, "\n" + "\n".join(
        f"{c.parameter}/{c.code}: d=({c.delta_c_l:.4f},{c.delta_c_r:.4f})"
        for c in failing
    )
    for entry in codebook.entries:
        stored = entry.stored
        assert stored is not None
        assert abs(stored.mean - 0.5 * (stored.c_l + stored.c_r)) <= 0.01
    _passed("criterion 4", "25/25 words within +-0.05, means consistent")


def test_criterion_5_worked_examples():
    """The walked-through computations, asserted exactly."""
    # triangular route: aggregate then approximate
    tuples = [TriTuple(0, 0.25, 0.5), TriTuple(0.5, 0.75, 1),
              TriTuple(0.25, 0.5, 0.75), TriTuple(0.25, 0.5, 0.75)]
    c = aggregate_tri_tuples(tuples)
    assert c == TriTuple(0.25, 0.5, 0.75)
    index, distance = linguistic_approximation(c, uniform_triangular_partition(5))
    assert (index, distance) == (2, 0.0)

    # symbolic route: each recursion stage lands on index 2
    assert sm2(1 / 2, 2, 1, 4) == 2
    assert sm2(1 / 3, 2, 2, 4) == 2
    assert sm2(1 / 4, 3, 2, 4) == 2
    assert sm_aggregate([3, 2, 2, 1], 4) == 2

    # index-mean route: translation zero at an integer mean
    beta = aggregate_beta([1, 3, 2, 2])
    assert beta == 2.0
    pair = to_two_tuple(beta, 4)
    assert (pair.term_index, pair.alpha) == (2, 0.0)
    pair = to_two_tuple(2.3, 4)
    assert pair.term_index == 2
    assert math.isclose(pair.alpha, 0.3, abs_tol=1e-12)
    _passed("criterion 5", "worked examples exact")


def test_criterion_6_centroid_oracle_equivalence():
    """Iterative centroid equals exhaustive switch scan on 1000 random FOUs."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        fou = random_fou(rng)
        fast = centroid(fou, DEFAULT_GRID)
        scan = centroid_brute_force(fou, DEFAULT_GRID)
        worst = max(worst, abs(fast.c_l - scan.c_l), abs(fast.c_r - scan.c_r))
        assert abs(fast.c_l - scan.c_l) <= 1e-9
        assert abs(fast.c_r - scan.c_r) <= 1e-9
    _passed("criterion 6", f"1000 FOUs at N=1001, worst delta {worst:.2e}")


def test_criterion_7_invariant_suites(codebook):
    """Containment, similarity, aggregation and round-trip invariants."""
    rng = np.random.default_rng(7)
    xs = DEFAULT_GRID.samples
    fous = [entry.fou for entry in codebook.entries]
    fous += [random_fou(rng) for _ in range(100)]
    for fou in fous:
        gap = upper_membership(fou, xs) - lower_membership(fou, xs)
        assert gap.min() >= -1e-9

    for _ in range(20):
        a, b = random_fou(rng), random_fou(rng)
        s = jaccard_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == jaccard_similarity(b, a)
        assert jaccard_similarity(a, a) == pytest.approx(1.0)

    for _ in range(50):
        values = [sorted(rng.uniform(0, 1, 3)) for _ in range(rng.integers(1, 7))]
        tuples = [TriTuple(*v) for v in values]
        shuffled = list(tuples)
        rng.shuffle(shuffled)
        assert aggregate_tri_tuples(shuffled) == aggregate_tri_tuples(tuples)

    for beta in np.linspace(0, 4, 401):
        pair = to_two_tuple(float(beta), 4)
        assert pair.term_index + pair.alpha == float(beta)
        assert -0.5 <= pair.alpha <= 0.5

    for _ in range(100):
        g = int(rng.integers(1, 8))
        n = int(rng.integers(1, 6))
        indices = sorted(rng.integers(0, g + 1, n).tolist(), reverse=True)
        result = sm_aggregate(indices, g)
        assert min(indices) <= result <= max(indices)
    _passed("criterion 7", "containment, similarity, aggregation, round-trip")


def test_criterion_8_ties_and_rounding(sample_rows, codebook, schema):
    """Regressions that pin the tie and rounding conventions."""
    # the exactly equidistant aggregate resolves to the lower word
    c = aggregate_tri_tuples([TriTuple(0, 0.25, 0.5), TriTuple(0.25, 0.5, 0.75),
                              TriTuple(0.25, 0.5, 0.75), TriTuple(0, 0.25, 0.5)])
    assert c == TriTuple(0.125, 0.375, 0.625)
    terms = uniform_triangular_partition(5)
    index, _ = linguistic_approximation(c, terms)
    assert index == 1
    report = evaluate_batch(sample_rows, cb=codebook)
    row19 = next(r for r in report.rows if r.student_id == "19")
    assert row19.cells[Method.EXTENSION_PRINCIPLE].recommendation.linguistic.code == "SSBA"

    # halves round away from zero in both index-based routes
    assert round_half_away(0.5) == 1
    assert sm2(0.5, 2, 1, 4) == 2
    row4 = next(r for r in report.rows if r.student_id == "4")
    tt = row4.cells[Method.TWO_TUPLE].recommendation
    assert tt.numeric == 2.5
    assert tt.linguistic.code == "SSG"
    _passed("criterion 8", "tie -> lower word, halves away from zero")


# Perceptual scores where the engine's decoded word steps up, over all
# 625 vectors on a 1001-point grid: the largest SSBA score, the smallest
# and largest SSA score, and the smallest SSG score.
ENGINE_DECISION_STEPS = {
    "exact": (4.0135, 3.9934, 5.9252, 5.9130),
    "paper": (4.0047, 4.0007, 5.9315, 5.9219),
}


@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_perceptual_decision_steps(schema, codebook, lwa_mode):
    """Where the decoded word steps up: the engine over every vector,
    and the published table over its 25 students."""
    vectors = itertools.product(*(param.terms for param in schema.parameters))
    records = [FeedbackRecord(str(i), choices) for i, choices in enumerate(vectors)]
    options = EvalOptions(grid=DiscretizationGrid(1001), lwa_mode=lwa_mode)
    report = evaluate_batch(records, [Method.PERCEPTUAL], codebook, options=options)
    engine = {}
    for row in report.rows:
        rec = row.cells[Method.PERCEPTUAL].recommendation
        engine.setdefault(rec.linguistic.code, []).append(rec.score)
    assert len(records) == 625
    steps = (max(engine["SSBA"]), min(engine["SSA"]),
             max(engine["SSA"]), min(engine["SSG"]))
    assert steps == pytest.approx(ENGINE_DECISION_STEPS[lwa_mode], abs=1e-3)

    # the published words are a monotone step function of the score
    by_score = sorted((row[7], schema.recommendation.find(row[8]).index)
                      for row in PUBLISHED.values())
    assert [index for _, index in by_score] == sorted(index for _, index in by_score)
    published = {}
    for row in PUBLISHED.values():
        published.setdefault(row[8], []).append(row[7])
    assert (max(published["SSBA"]), min(published["SSA"])) == (3.53, 3.92)
    assert (max(published["SSA"]), min(published["SSG"])) == (5.38, 5.96)

    # the engine's upper step lies in the published band (5.38, 5.96],
    # its lower step above the published band (3.53, 3.92]
    assert all(5.38 < step <= 5.96 for step in steps[2:])
    assert all(step > 3.92 for step in steps[:2])
    _passed("decision steps", f"{lwa_mode} LWA")


def _published_report(schema) -> EvaluationReport:
    """An evaluation report carrying the reference cells verbatim."""
    find = schema.recommendation.find
    rows = []
    for sid, row in PUBLISHED.items():
        words, ep_tuple, ep_word, sm_idx, sm_word, beta, tt_word, pc, pc_word = row
        cells = {
            Method.EXTENSION_PRINCIPLE: MethodCell(Recommendation(
                Method.EXTENSION_PRINCIPLE, TriTuple(*ep_tuple), find(ep_word),
                ep_tuple[1])),
            Method.SYMBOLIC: MethodCell(Recommendation(
                Method.SYMBOLIC, sm_idx, find(sm_word), sm_idx)),
            Method.TWO_TUPLE: MethodCell(Recommendation(
                Method.TWO_TUPLE, beta, find(tt_word), beta)),
            Method.PERCEPTUAL: MethodCell(Recommendation(
                Method.PERCEPTUAL, pc, find(pc_word), pc)),
        }
        rows.append(ReportRow(student_id=str(sid), codes=words, cells=cells))
    return EvaluationReport(methods=tuple(Method), rows=tuple(rows))


def test_uniqueness_tallies_of_reference_cells(schema, full_report):
    """Duplicate-group tallies computable from the reference table, plus
    full-precision score exposure for the computed batch."""
    groups = uniqueness_report(_published_report(schema))

    ep_groups = groups[Method.EXTENSION_PRINCIPLE]
    biggest = max(ep_groups, key=lambda grp: len(grp.students))
    assert len(biggest.students) == 20
    assert (biggest.numeric, biggest.word) == ("{0.25,0.5,0.75}", "SSA")

    pc_groups = {(grp.numeric, grp.word): grp for grp in groups[Method.PERCEPTUAL]}
    assert set(pc_groups[("3.92", "SSA")].students) == {"9", "15"}
    # 4 and 18 share (5.96, SSG) with distinct feedback; 2 and 11 share a
    # cell only because their feedback is identical, so no group for them
    assert set(pc_groups[("5.96", "SSG")].students) == {"4", "18"}
    assert ("4.73", "SSA") not in pc_groups

    # full-precision perceptual scores are retained for inspection and
    # separate the students the 2-decimal table cannot
    means = {
        row.student_id: row.cells[Method.PERCEPTUAL].recommendation.score
        for row in full_report.rows
    }
    assert means["9"] != means["15"]
    assert means["2"] == means["11"]
    _passed("uniqueness note", "reference tallies reproduced, full precision exposed")


# Over all 625 vectors on a 1001-point grid, per method: the number of
# distinct printed (numeric, word) cells and the size of the largest
# group of vectors sharing one. Only the perceptual cells depend on the
# LWA mode.
_INDEX_METHOD_CELLS = {Method.EXTENSION_PRINCIPLE: (5, 359), Method.SYMBOLIC: (5, 259),
                       Method.TWO_TUPLE: (17, 85)}
ENGINE_PRINTED_CELLS = {
    "exact": {**_INDEX_METHOD_CELLS, Method.PERCEPTUAL: (333, 7)},
    "paper": {**_INDEX_METHOD_CELLS, Method.PERCEPTUAL: (324, 9)},
}


@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_uniqueness_over_every_vector(schema, codebook, sample_rows, lwa_mode):
    """The paper's claim that only the perceptual method gives unique
    recommendations, over the whole input space: its full-precision
    scores are all distinct, its printed cells are not."""
    vectors = itertools.product(*(param.terms for param in schema.parameters))
    records = [FeedbackRecord(str(i), choices) for i, choices in enumerate(vectors)]
    options = EvalOptions(grid=DiscretizationGrid(1001), lwa_mode=lwa_mode)
    report = evaluate_batch(records, cb=codebook, options=options)
    groups = uniqueness_report(report)
    printed = {}
    for method in report.methods:
        cells = collections.Counter(
            (rec.numeric_text, rec.linguistic.code)
            for rec in (row.cells[method].recommendation for row in report.rows))
        printed[method] = (len(cells), max(cells.values()))
        # every vector differs, so the largest shared cell is the largest group
        assert len(groups[method][0].students) == printed[method][1]
    assert printed == ENGINE_PRINTED_CELLS[lwa_mode]
    scores = {row.cells[Method.PERCEPTUAL].recommendation.score for row in report.rows}
    assert len(scores) == 625

    # the bundled sample keeps the claim in exact mode only
    sample = evaluate_batch(sample_rows, [Method.PERCEPTUAL], codebook, options=options)
    shared = {(grp.numeric, grp.word): set(grp.students)
              for grp in uniqueness_report(sample)[Method.PERCEPTUAL]}
    assert shared == ({("5.99", "SSG"): {"4", "18"}} if lwa_mode == "paper" else {})
    _passed("uniqueness over every vector", f"{lwa_mode} LWA")
