"""Exhaustive checks of the per-batch prepared codebook and memo.

The default schema has 4 parameters x 5 words = 625 feedback vectors, so
each property below is checked on every one of them, in both LWA modes.
"""

import collections
import itertools
import math
import random

import numpy as np
import pytest

import cwwkit.it2
import cwwkit.pipeline
from cwwkit import (Codebook, CodebookEntry, CwwError, DiscretizationGrid,
                    EvalOptions, FeedbackRecord, Method, evaluate_batch,
                    evaluate_student, jaccard_similarity, lwa_exact, lwa_paper)
from cwwkit.it2 import (AlphaCutTable, _cuts_to_membership, jaccard_similarities,
                        membership_samples, membership_stack)
from cwwkit.pipeline import ALL_METHODS, LWA_MODES, MethodCell, PreparedCodebook
from cwwkit.vocabulary import RECOMMENDATION, LinguisticTerm, ParameterSchema, TermSet


def _all_records(schema):
    vectors = itertools.product(*(param.terms for param in schema.parameters))
    return [FeedbackRecord(str(i), choices) for i, choices in enumerate(vectors)]


@pytest.fixture(scope="module")
def all_records(schema):
    records = _all_records(schema)
    assert len(records) == 625
    return records


def _expected_cells(records, cb, options):
    """evaluate_student on each record alone, as the batch would store it."""
    expected = {}
    for record in records:
        for method in ALL_METHODS:
            try:
                cell = MethodCell(recommendation=evaluate_student(
                    record, method, cb, options=options))
            except CwwError as exc:
                cell = MethodCell(error=str(exc))
            expected[(method, record.choices)] = cell
    return expected


def _jaccard_oracle(fou_a, fou_b, grid):
    """Jaccard similarity of two FOUs from 1-D sums over the grid."""
    ua, la = membership_samples(fou_a, grid)
    ub, lb = membership_samples(fou_b, grid)
    numerator = float(np.minimum(ua, ub).sum() + np.minimum(la, lb).sum())
    denominator = float(np.maximum(ua, ub).sum() + np.maximum(la, lb).sum())
    return numerator / denominator


@pytest.mark.parametrize("sample_count", [1001, 51])
@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_vectorized_jaccard_equals_pairwise(codebook, all_records, lwa_mode,
                                            sample_count):
    grid = DiscretizationGrid(sample_count=sample_count)
    words = codebook.word_fous(RECOMMENDATION)
    upper, lower = membership_stack(words, grid)
    for record in all_records:
        fous = [codebook.lookup(param.name, choice.code)
                for param, choice in zip(codebook.schema.parameters, record.choices)]
        aggregate = lwa_paper(fous) if lwa_mode == "paper" else lwa_exact(fous, grid=grid)
        vectorized = jaccard_similarities(
            *membership_samples(aggregate, grid), upper, lower).tolist()
        for word, similarity in zip(words, vectorized):
            # in both argument orders, equal bit for bit to the 1-D sums
            expected = _jaccard_oracle(aggregate, word, grid)
            assert _jaccard_oracle(word, aggregate, grid) == expected, record.codes
            assert similarity == expected, record.codes
            assert jaccard_similarity(aggregate, word, grid) == expected, record.codes
            assert jaccard_similarity(word, aggregate, grid) == expected, record.codes


@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_repeated_shuffled_batch_matches_evaluate_student(codebook, all_records,
                                                          lwa_mode):
    options = EvalOptions(lwa_mode=lwa_mode)
    choices = [record.choices for record in all_records] * 3
    random.Random(4).shuffle(choices)
    batch = [FeedbackRecord(str(i), c) for i, c in enumerate(choices)]
    report = evaluate_batch(batch, cb=codebook, options=options)
    expected = _expected_cells(all_records, codebook, options)
    assert len(report.rows) == 3 * 625
    for row, record in zip(report.rows, batch):
        assert row.error is None
        assert (row.student_id, row.codes) == (record.student_id, record.codes)
        for method in ALL_METHODS:
            assert row.cells[method] == expected[(method, record.choices)], (
                row.student_id, method)


def _mixed_schema_and_codebook(codebook):
    """The default schema with time taken cut to 3 words, and a codebook
    that reuses the default word models for it."""
    schema = codebook.schema
    kept = [schema.parameters[0][i] for i in (0, 2, 4)]
    short = TermSet(schema.parameters[0].name, tuple(
        LinguisticTerm(t.label, t.code, i) for i, t in enumerate(kept)))
    mixed = ParameterSchema(parameters=(short,) + schema.parameters[1:],
                            recommendation=schema.recommendation)
    entries = [CodebookEntry(ts.name, term, codebook.lookup(ts.name, term.code))
               for ts in mixed.term_sets for term in ts]
    return mixed, Codebook(mixed, entries)


@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_mixed_cardinality_batch_flags_index_methods_only(codebook, lwa_mode):
    schema, cb = _mixed_schema_and_codebook(codebook)
    options = EvalOptions(lwa_mode=lwa_mode)
    records = _all_records(schema)
    assert len(records) == 3 * 125
    batch = records + [FeedbackRecord(f"again {r.student_id}", r.choices)
                       for r in records]
    report = evaluate_batch(batch, cb=cb, options=options)
    expected = _expected_cells(records, cb, options)
    for row, record in zip(report.rows, batch):
        assert row.error is None
        for method in (Method.SYMBOLIC, Method.TWO_TUPLE):
            assert "share one cardinality" in row.cells[method].error
        for method in (Method.EXTENSION_PRINCIPLE, Method.PERCEPTUAL):
            assert row.cells[method].error is None
        for method in ALL_METHODS:
            assert row.cells[method] == expected[(method, record.choices)]
    # a repeated vector reuses the first row's cells, failed ones included
    for first, again in zip(report.rows[:len(records)], report.rows[len(records):]):
        for method in ALL_METHODS:
            assert again.cells[method] is first.cells[method]


def test_codebook_of_another_schema_flags_perceptual_cells(codebook):
    # the default codebook's time-taken words are five, the schema's three:
    # its index order does not fit, so no perceptual word may be read from it
    schema, _ = _mixed_schema_and_codebook(codebook)
    records = _all_records(schema)
    report = evaluate_batch(records, [Method.PERCEPTUAL, Method.EXTENSION_PRINCIPLE],
                            cb=codebook, schema=schema)
    for row in report.rows:
        assert row.cells[Method.PERCEPTUAL].error == (
            "the codebook was built for another schema")
        assert row.cells[Method.EXTENSION_PRINCIPLE].error is None


@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_large_batch_costs_one_evaluation_per_distinct_vector(
        monkeypatch, codebook, all_records, lwa_mode):
    calls = {"centroid": 0, "membership_samples": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(cwwkit.pipeline, "centroid")
    counting(cwwkit.it2, "membership_samples")
    batch = [FeedbackRecord(str(i), all_records[i % 625].choices)
             for i in range(10_000)]
    report = evaluate_batch(batch, cb=codebook, options=EvalOptions(lwa_mode=lwa_mode))
    assert all(row.error is None for row in report.rows)
    assert calls["centroid"] == 625
    assert calls["membership_samples"] <= 2 * 625 + 5


def _lwa_exact_per_call(fous, grid, alpha_levels=65):
    """`lwa_exact` as it was before the alpha-cut table: the cut matrices
    built from the inputs alone on every call."""
    params = np.array([[f.umf_a, f.umf_b, f.umf_c, f.umf_d, f.lmf_e, f.lmf_f,
                        f.lmf_g, f.lmf_i, f.lmf_height] for f in fous])
    a, b, c, d, e, f, g, i_, h = params.T
    w = np.full(len(fous), 1.0) / math.fsum([1.0] * len(fous))
    h_min = float(h.min())
    alphas_u = np.linspace(0.0, 1.0, alpha_levels)
    left_u = (a[None, :] + alphas_u[:, None] * (b - a)[None, :]) @ w
    right_u = (d[None, :] - alphas_u[:, None] * (d - c)[None, :]) @ w
    alphas_l = np.linspace(0.0, h_min, alpha_levels)
    frac = alphas_l[:, None] / h[None, :]
    left_l = (e[None, :] + frac * (f - e)[None, :]) @ w
    right_l = (i_[None, :] - frac * (i_ - g)[None, :]) @ w
    upper = _cuts_to_membership(grid.samples, alphas_u, left_u, right_u)
    lower = _cuts_to_membership(grid.samples, alphas_l, left_l, right_l)
    return upper, np.minimum(lower, upper), h_min


@pytest.mark.parametrize("sample_count", [1001, 51])
def test_alpha_cut_table_changes_no_bit(codebook, all_records, sample_count):
    grid = DiscretizationGrid(sample_count=sample_count)
    prepared = PreparedCodebook.build(codebook, None, EvalOptions(grid=grid))
    table = prepared.alpha_cuts
    for record in all_records:
        words = [words[choice.index]
                 for words, choice in zip(prepared.parameter_fous, record.choices)]
        upper, lower, height = _lwa_exact_per_call(words, grid)
        for got in (lwa_exact(words, grid=grid), lwa_exact(words, grid=grid, table=table)):
            assert got.height == height
            for samples, expected in ((got.upper, upper), (got.lower, lower)):
                assert np.array_equal(samples, expected), record.codes
                assert samples.tobytes() == expected.tobytes(), record.codes


def test_alpha_cut_table_rejects_a_word_it_lacks(codebook):
    words = codebook.word_fous(RECOMMENDATION)
    table = AlphaCutTable(words[:4])
    lwa_exact(words[:4], table=table)
    with pytest.raises(ValueError, match="not in the alpha-cut table"):
        lwa_exact(words[1:], table=table)


def test_index_methods_cost_one_evaluation_per_index_multiset(
        monkeypatch, codebook, all_records):
    calls = collections.Counter()
    original = cwwkit.pipeline.evaluate_student

    def counting(record, method, *args, **kwargs):
        calls[method] += 1
        return original(record, method, *args, **kwargs)

    monkeypatch.setattr(cwwkit.pipeline, "evaluate_student", counting)
    report = evaluate_batch(all_records, cb=codebook)
    assert all(row.error is None for row in report.rows)
    multisets = {tuple(sorted(record.indices)) for record in all_records}
    assert len(multisets) == 70
    assert calls == {Method.EXTENSION_PRINCIPLE: 70, Method.SYMBOLIC: 70,
                     Method.TWO_TUPLE: 70, Method.PERCEPTUAL: 625}
