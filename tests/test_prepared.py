"""Exhaustive checks of the codebook's word-level data and the batch memo.

The default schema has 4 parameters x 5 words = 625 feedback vectors, so
each property below is checked on every one of them, in both LWA modes.
"""

import collections
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cwwkit.it2
import cwwkit.pipeline
from cwwkit import (CentroidInterval, Codebook, CodebookEntry, CwwError,
                    DiscretizationGrid, EvalOptions, FeedbackRecord, Method,
                    TrapezoidIT2, build_default_schema, centroid, evaluate_batch,
                    evaluate_student, jaccard_similarity, lwa_exact, lwa_paper)
from cwwkit.it2 import (jaccard_similarities, membership_samples, membership_stack,
                        sample_fou)
from cwwkit.pipeline import ALL_METHODS, LWA_MODES, MethodCell
from cwwkit.vocabulary import RECOMMENDATION
from strategies import trapezoid_it2


@pytest.fixture(scope="module")
def all_records(schema):
    vectors = itertools.product(*(param.terms for param in schema.parameters))
    records = [FeedbackRecord(str(i), choices) for i, choices in enumerate(vectors)]
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


def _recommendation_words(cb):
    """The recommendation word models, in term-index order."""
    return [cb.lookup(RECOMMENDATION, term.code) for term in build_default_schema().recommendation]


def test_codebook_keeps_its_word_data_and_one_grid_of_samples(codebook):
    cb = Codebook(codebook.entries)
    assert cb.parameter_fous == tuple(tuple(cb.lookup(p.name, term.code) for term in p)
                                      for p in build_default_schema().parameters)
    words = _recommendation_words(cb)
    coarse = cb.recommendation_samples(DiscretizationGrid(51))
    assert cb.recommendation_samples(DiscretizationGrid(51)) is coarse
    for sample_count in (1001, 51):
        grid = DiscretizationGrid(sample_count)
        upper, lower = cb.recommendation_samples(grid)
        expected = membership_stack(words, grid)
        assert np.array_equal(upper, expected[0]) and np.array_equal(lower, expected[1])
        # only the last grid's samples are held
        held_grid, (held_upper, _) = cb._samples
        assert held_grid == grid and held_upper is upper
    assert cb.recommendation_samples(DiscretizationGrid(51)) is not coarse


def test_samples_are_read_as_one_grid_and_samples_pair(codebook):
    # The comparison with the held grid lets another caller replace the
    # held pair in between, as a thread switch could; the caller still
    # gets the samples of the grid it compared.
    cb = Codebook(codebook.entries)
    other = DiscretizationGrid(101)

    class Meddling(DiscretizationGrid):
        def __ne__(self, held):
            cb.recommendation_samples(other)
            return False

    cb.recommendation_samples(DiscretizationGrid(51))
    upper, lower = cb.recommendation_samples(Meddling(51))
    assert upper.shape == lower.shape == (5, 51)
    assert cb._samples[0] == other


@pytest.mark.parametrize("sample_count", [1001, 51])
@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_vectorized_jaccard_equals_pairwise(codebook, all_records, lwa_mode,
                                            sample_count):
    grid = DiscretizationGrid(sample_count=sample_count)
    words = _recommendation_words(codebook)
    upper, lower = membership_stack(words, grid)
    for record in all_records:
        fous = [codebook.lookup(param.name, choice.code)
                for param, choice in zip(build_default_schema().parameters, record.choices)]
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


@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_repeated_vector_reuses_failed_cells(codebook, all_records, lwa_mode):
    # every parameter word a spike between two grid samples: no aggregate
    # has membership mass on the grid, so each perceptual cell fails
    spike = TrapezoidIT2(*[0.105] * 8, 1.0)
    cb = Codebook(entry if entry.parameter == RECOMMENDATION
                  else CodebookEntry(entry.parameter, entry.term, spike)
                  for entry in codebook.entries)
    options = EvalOptions(lwa_mode=lwa_mode)
    batch = all_records + [FeedbackRecord(f"again {r.student_id}", r.choices)
                           for r in all_records]
    report = evaluate_batch(batch, cb=cb, options=options)
    expected = _expected_cells(all_records, cb, options)
    for row, record in zip(report.rows, batch):
        assert row.error is None
        assert "no membership mass on the grid" in row.cells[Method.PERCEPTUAL].error
        for method in ALL_METHODS:
            assert row.cells[method] == expected[(method, record.choices)]
            if method is not Method.PERCEPTUAL:
                assert row.cells[method].error is None
    # a repeated vector reuses the first row's cells, failed ones included
    for first, again in zip(report.rows[:625], report.rows[625:]):
        for method in ALL_METHODS:
            assert again.cells[method] is first.cells[method]


# Two valid words whose parameter-wise average is not a footprint: its
# lower membership exceeds its upper one at x = 1.
PAPER_AVERAGE_FAILS = (TrapezoidIT2(0, 1, 9, 10, 0, 1, 9, 10, 1.0),
                       TrapezoidIT2(0, 10, 10, 10, 0, 1, 1, 1, 0.1))


def test_invalid_paper_average_fails_only_its_cell(codebook, all_records):
    with pytest.raises(CwwError, match=r"worst gap -3\.682e-01 at x=1\.0"):
        lwa_paper(PAPER_AVERAGE_FAILS)
    # the first word of each of the first two parameters
    replaced = {(param.name, 0): word
                for param, word in zip(build_default_schema().parameters, PAPER_AVERAGE_FAILS)}
    cb = Codebook(CodebookEntry(entry.parameter, entry.term, replaced[key])
                  if (key := (entry.parameter, entry.term.index)) in replaced else entry
                  for entry in codebook.entries)
    options = EvalOptions(lwa_mode="paper")
    report = evaluate_batch(all_records, cb=cb, options=options)
    expected = _expected_cells(all_records, cb, options)
    failed = 0
    for row, record in zip(report.rows, all_records):
        assert row.error is None
        for method in ALL_METHODS:
            cell = row.cells[method]
            assert cell == expected[(method, record.choices)]
            if cell.error is not None:
                assert method is Method.PERCEPTUAL
                assert "parameter-wise average is not a footprint" in cell.error
                failed += 1
    assert 0 < failed < len(all_records)


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


# Reference implementations of the perceptual path, each made of the numpy
# calls the engine used before it cut its per-vector call count: scalar
# `searchsorted`, `ndarray.sum`, `@` and interpolation over the whole grid,
# where the engine now uses `bisect`, `np.add.reduce`, `ndarray.dot` and
# interpolates only the cut edges. The centroid's switch search is restated
# with its sums taken from scratch at every candidate, as the engine takes
# them. The engine must match them bit for bit.

def _lwa_exact_per_call(fous, grid, alpha_levels=65):
    """`lwa_exact` as it was before words kept their cuts: the cut matrices
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
    upper = _cuts_to_membership_reference(grid.samples, alphas_u, left_u, right_u)
    lower = _cuts_to_membership_reference(grid.samples, alphas_l, left_l, right_l)
    return upper, np.minimum(lower, upper)


def _words(codebook, record):
    """The record's word models, as the pipeline passes them to `lwa_exact`."""
    return [words[choice.index]
            for words, choice in zip(codebook.parameter_fous, record.choices)]


def _cuts_to_membership_reference(xs, alphas, lefts, rights):
    from_left = np.interp(xs, lefts, alphas)
    from_right = np.interp(xs, rights[::-1], alphas[::-1])
    mu = np.minimum(from_left, from_right)
    mu[xs.searchsorted(lefts[-1]):xs.searchsorted(rights[-1], side="right")] = alphas[-1]
    mu[:xs.searchsorted(lefts[0])] = 0.0
    mu[xs.searchsorted(rights[0], side="right"):] = 0.0
    return mu


def _ekm_side_reference(xs, upper, lower, left):
    """One end of the centroid: the enhanced Karnik-Mendel starting switch
    and stop rule, every candidate computed from scratch. The inputs here
    never run the search out of weight, into a cycle or past n passes."""
    n = len(xs)
    head, tail = (upper, lower) if left else (lower, upper)
    k = int(round(n / 2.4)) if left else int(round(n / 1.7))
    k = min(max(k, 1), n - 1)
    previous = -1
    for _ in range(n):
        num = float(xs[:k] @ head[:k] + xs[k:] @ tail[k:])
        den = float(head[:k].sum() + tail[k:].sum())
        assert den >= 1e-12, "the search ran out of weight"
        y = num / den
        k_new = min(max(int(np.searchsorted(xs, y, side="right")), 1), n - 1)
        if k_new == k:
            return y, k
        assert k_new != previous, "the search cycled"
        previous, k = k, k_new
    raise AssertionError("the search did not settle")


def _centroid_reference(xs, upper, lower):
    c_l, k_l = _ekm_side_reference(xs, upper, lower, left=True)
    c_r, k_r = _ekm_side_reference(xs, upper, lower, left=False)
    return CentroidInterval(c_l=c_l, c_r=c_r, switch_left=k_l, switch_right=k_r)


def _jaccard_similarities_reference(ua, la, upper, lower):
    numerator = np.minimum(ua, upper).sum(axis=1) + np.minimum(la, lower).sum(axis=1)
    denominator = np.maximum(ua, upper).sum(axis=1) + np.maximum(la, lower).sum(axis=1)
    return numerator / denominator


@pytest.mark.parametrize("sample_count", [1001, 51])
@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_perceptual_path_matches_reference_bit_for_bit(codebook, all_records,
                                                       lwa_mode, sample_count):
    grid = DiscretizationGrid(sample_count=sample_count)
    options = EvalOptions(grid=grid, lwa_mode=lwa_mode)
    report = evaluate_batch(all_records, [Method.PERCEPTUAL], codebook, options)
    for record, row in zip(all_records, report.rows):
        words = _words(codebook, record)
        if lwa_mode == "exact":
            upper, lower = _lwa_exact_per_call(words, grid)
            got = lwa_exact(words, grid=grid)
            assert np.array_equal(got.upper, upper), record.codes
            assert np.array_equal(got.lower, lower), record.codes
        else:
            aggregate = sample_fou(lwa_paper(words), grid)
            upper, lower = aggregate.upper, aggregate.lower
        similarities = tuple(_jaccard_similarities_reference(
            upper, lower, *codebook.recommendation_samples(grid)).tolist())
        rec = row.cells[Method.PERCEPTUAL].recommendation
        assert rec.centroid == _centroid_reference(grid.samples, upper, lower), record.codes
        assert rec.similarities == similarities, record.codes
        assert rec.linguistic.index == int(np.argmax(similarities)), record.codes


@pytest.mark.parametrize("sample_count", [1001, 51])
def test_centroid_on_a_grid_sample_matches_reference(sample_count):
    # crisp intervals centred on grid samples: the switch-point search
    # meets a sample exactly, where searching left or right of it differs
    grid = DiscretizationGrid(sample_count=sample_count)
    for middle in range(1, 10):
        for half in (0.5, 1.0):
            lo, hi = middle - half, middle + half
            fou = TrapezoidIT2(lo, lo, hi, hi, lo, lo, hi, hi)
            expected = _centroid_reference(grid.samples, *membership_samples(fou, grid))
            assert centroid(fou, grid) == expected, (lo, hi)


@pytest.mark.parametrize("sample_count", [1001, 51])
def test_kept_cuts_change_no_bit(codebook, all_records, sample_count):
    grid = DiscretizationGrid(sample_count=sample_count)
    # a full batch first, so the codebook's words hold every cut it uses
    evaluate_batch(all_records, [Method.PERCEPTUAL], codebook, EvalOptions(grid=grid))
    for record in all_records:
        words = _words(codebook, record)
        fresh = [TrapezoidIT2(*word.params) for word in words]
        upper, lower = _lwa_exact_per_call(words, grid)
        for got in (lwa_exact(fresh, grid=grid), lwa_exact(words, grid=grid)):
            for samples, expected in ((got.upper, upper), (got.lower, lower)):
                assert np.array_equal(samples, expected), record.codes
                assert samples.tobytes() == expected.tobytes(), record.codes


def test_words_keep_their_cuts(codebook, all_records):
    cb = Codebook(CodebookEntry(entry.parameter, entry.term,
                                TrapezoidIT2(*entry.fou.params), entry.stored)
                  for entry in codebook.entries)
    words = [word for parameter in cb.parameter_fous for word in parameter]
    assert not any("_cut_sets" in vars(word) for word in words)
    evaluate_batch(all_records, [Method.PERCEPTUAL], cb, EvalOptions(grid=DiscretizationGrid(51)))
    assert len({word.lmf_height for word in words}) == 6
    # the minimum heights each word is averaged at
    averaged_at = collections.defaultdict(set)
    for vector in itertools.product(*cb.parameter_fous):
        for word in vector:
            averaged_at[id(word)].add(min([w.lmf_height for w in vector]))
    for word in words:
        sets = dict(word._cut_sets)
        # one upper set, cut up to 1
        assert [top for lower, top in sets if not lower] == [1.0]
        # one lower set per minimum height the word was averaged at
        lower_tops = {top for lower, top in sets if lower}
        assert 1 <= len(lower_tops) <= 6
        assert lower_tops == averaged_at[id(word)]
        for (lower, top), cuts in sets.items():
            assert word._cuts(lower, top) is cuts
            assert cuts.shape == (2, 65, 1)
        assert len(word._cut_sets) == len(sets)


@settings(max_examples=200, deadline=None)
@given(words=st.lists(trapezoid_it2(), min_size=1, max_size=6),
       sample_count=st.sampled_from([51, 1001]))
def test_lwa_exact_matches_reference_on_any_words(words, sample_count):
    grid = DiscretizationGrid(sample_count=sample_count)
    upper, lower = _lwa_exact_per_call(words, grid)
    got = lwa_exact(words, grid=grid)
    assert np.array_equal(got.upper, upper)
    assert np.array_equal(got.lower, lower)


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
