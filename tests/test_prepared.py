"""Exhaustive checks of the per-batch prepared codebook and memo.

The default schema has 4 parameters x 5 words = 625 feedback vectors, so
each property below is checked on every one of them, in both LWA modes.
"""

import itertools
import random

import pytest

import cwwkit.it2
import cwwkit.pipeline
from cwwkit import (Codebook, CodebookEntry, CwwError, DiscretizationGrid,
                    EvalOptions, FeedbackRecord, Method, evaluate_batch,
                    evaluate_student, jaccard_similarity, lwa_exact, lwa_paper)
from cwwkit.it2 import jaccard_similarities, membership_stack
from cwwkit.pipeline import ALL_METHODS, LWA_MODES, MethodCell
from cwwkit.vocabulary import LinguisticTerm, ParameterSchema, TermSet


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


@pytest.mark.parametrize("sample_count", [1001, 51])
@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_vectorized_jaccard_equals_pairwise(codebook, all_records, lwa_mode,
                                            sample_count):
    grid = DiscretizationGrid(sample_count=sample_count)
    words = codebook.recommendation_fous()
    upper, lower = membership_stack(words, grid)
    for record in all_records:
        fous = [codebook.lookup(param.name, choice.code)
                for param, choice in zip(codebook.schema.parameters, record.choices)]
        aggregate = lwa_paper(fous) if lwa_mode == "paper" else lwa_exact(fous, grid=grid)
        vectorized = jaccard_similarities(aggregate, upper, lower, grid).tolist()
        pairwise = [jaccard_similarity(aggregate, word, grid) for word in words]
        assert vectorized == pairwise, record.codes


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
