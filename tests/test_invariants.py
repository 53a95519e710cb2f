"""Exhaustive invariants over the 625 feedback vectors of the default schema.

4 parameters x 5 words; every check covers each vector in both LWA modes,
on a coarse grid and on the default one.
"""

import itertools

import pytest

from cwwkit import (DiscretizationGrid, EvalOptions, FeedbackRecord, centroid,
                    centroid_brute_force, evaluate_batch, lwa_exact, lwa_paper)
from cwwkit.pipeline import ALL_METHODS, LWA_MODES

SAMPLE_COUNTS = (51, 1001)


@pytest.fixture(scope="module")
def vectors(schema):
    """Every feedback vector, as a tuple of terms in parameter order."""
    return list(itertools.product(*(param.terms for param in schema.parameters)))


@pytest.mark.parametrize("sample_count", SAMPLE_COUNTS)
@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_ekm_equals_exhaustive_scan(codebook, vectors, lwa_mode, sample_count):
    # values only: where the bound is flat, several switch indices give it
    grid = DiscretizationGrid(sample_count=sample_count)
    for choices in vectors:
        fous = [codebook.lookup(param.name, term.code)
                for param, term in zip(codebook.schema.parameters, choices)]
        aggregate = lwa_paper(fous) if lwa_mode == "paper" else lwa_exact(fous, grid=grid)
        ekm = centroid(aggregate, grid)
        scan = centroid_brute_force(aggregate, grid)
        codes = [term.code for term in choices]
        assert abs(ekm.c_l - scan.c_l) <= 1e-9, codes
        assert abs(ekm.c_r - scan.c_r) <= 1e-9, codes


@pytest.mark.parametrize("sample_count", SAMPLE_COUNTS)
@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_raising_one_word_never_lowers_the_result(codebook, schema, vectors, lwa_mode,
                                                  sample_count):
    options = EvalOptions(grid=DiscretizationGrid(sample_count=sample_count),
                          lwa_mode=lwa_mode)
    records = [FeedbackRecord(str(i), choices) for i, choices in enumerate(vectors)]
    report = evaluate_batch(records, ALL_METHODS, codebook, options=options)
    cells = {choices: row.cells for choices, row in zip(vectors, report.rows)}
    counterexamples = []
    for choices in vectors:
        for position, param in enumerate(schema.parameters):
            step = choices[position].index + 1
            if step == len(param):
                continue
            raised = choices[:position] + (param.terms[step],) + choices[position + 1:]
            for method in ALL_METHODS:
                low = cells[choices][method].recommendation
                high = cells[raised][method].recommendation
                if high.score < low.score or high.linguistic.index < low.linguistic.index:
                    counterexamples.append(
                        (method.value, [t.code for t in choices], param.name))
    assert counterexamples == []
