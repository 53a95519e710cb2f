import pytest

from cwwkit import (CodebookError, DiscretizationGrid, TrapezoidIT2,
                    default_codebook, verify_stored_centroids)
from cwwkit.codebook import (CODEBOOK_HEADER, Codebook, CodebookEntry,
                             StoredCentroid, load_codebook, loads_codebook)
from cwwkit.vocabulary import RECOMMENDATION, TIME_TAKEN


@pytest.fixture()
def lines(codebook_text):
    """The shipped codebook's lines, a fresh list for each test to edit."""
    return codebook_text.splitlines()


def test_default_codebook_is_complete(codebook, schema):
    assert len(codebook.entries) == 25
    seen = {(e.parameter, e.term.code) for e in codebook.entries}
    for ts in list(schema.parameters) + [schema.recommendation]:
        for term in ts:
            assert (ts.name, term.code) in seen


def test_lookup_by_code_and_label(codebook):
    fou = codebook.lookup(TIME_TAKEN, "S")
    assert fou.umf == (0.59, 2.00, 3.00, 4.41)
    assert fou.lmf == (1.79, 2.50, 2.50, 3.21)
    assert fou.lmf_height == 0.59
    assert codebook.lookup(TIME_TAKEN, "Small") == fou
    assert codebook.lookup(TIME_TAKEN, "small") == fou


def test_lookup_recommendation_word(codebook):
    fou = codebook.lookup(RECOMMENDATION, "SSVG")
    assert fou.umf == (7.16, 9.00, 10.0, 10.0)
    assert fou.lmf == (7.82, 9.00, 10.0, 10.0)
    assert fou.lmf_height == 1.0


def test_lookup_unknown_word(codebook):
    with pytest.raises(CodebookError):
        codebook.lookup(TIME_TAKEN, "XX")
    with pytest.raises(CodebookError):
        codebook.lookup("No such parameter", "S")


def test_recommendation_fous_in_index_order(codebook, schema):
    fous = codebook.word_fous(RECOMMENDATION)
    assert len(fous) == 5
    assert fous[4] == codebook.lookup(RECOMMENDATION, "SSVG")


def test_word_fous_follow_term_index_order(codebook, schema):
    by_word = {(e.parameter, e.term.code): e.fou for e in codebook.entries}
    for ts in schema.term_sets:
        expected = tuple(by_word[(ts.name, term.code)] for term in ts)
        assert codebook.word_fous(ts.name) == expected
        assert codebook.word_fous(ts.name.upper()) == expected
    with pytest.raises(CodebookError):
        codebook.word_fous("No such parameter")


def test_entry_outside_schema_rejected(codebook, schema):
    stray = CodebookEntry("No such parameter", codebook.entries[0].term,
                          codebook.entries[0].fou)
    with pytest.raises(CodebookError, match="not a word of the schema"):
        Codebook(schema, codebook.entries + (stray,))


def test_shoulder_words_have_full_height(codebook, schema):
    for ts in list(schema.parameters) + [schema.recommendation]:
        first = codebook.lookup(ts.name, ts.terms[0].code)
        last = codebook.lookup(ts.name, ts.terms[-1].code)
        assert first.lmf_height == 1.0
        assert last.lmf_height == 1.0


def test_params_rebuild_every_word(codebook):
    assert len(codebook.entries) == 25
    for entry in codebook.entries:
        assert TrapezoidIT2(*entry.fou.params) == entry.fou, entry.term.code


def test_load_from_path(tmp_path, codebook, codebook_text):
    path = tmp_path / "cb.csv"
    path.write_text(codebook_text)
    assert load_codebook(path).entries == codebook.entries


def test_rejects_bad_header():
    with pytest.raises(CodebookError, match="header"):
        loads_codebook("nope\n1,2,3\n")


def test_rejects_short_row(lines):
    lines[1] = "Time taken to solve the question,Very little,VL,0.0"
    with pytest.raises(CodebookError, match=":2:"):
        loads_codebook("\n".join(lines) + "\n")


def test_rejects_unordered_upper_trapezoid(lines):
    # swap c and d of the Small row so d < c
    lines[2] = "Time taken to solve the question,Small,S,0.59,2.00,4.41,3.00,1.79,2.50,2.50,3.21,0.59,1.88,3.12,2.50"
    with pytest.raises(CodebookError, match="'Small'"):
        loads_codebook("\n".join(lines) + "\n")


def test_rejects_missing_word(lines):
    del lines[3]  # drop Moderate (M)
    with pytest.raises(CodebookError, match="missing"):
        loads_codebook("\n".join(lines) + "\n")


def test_rejects_unknown_word_row(lines):
    lines.append("Time taken to solve the question,Immense,XXL,1,2,3,4,1.5,2,3,3.5,1,,,")
    with pytest.raises(CodebookError, match="XXL"):
        loads_codebook("\n".join(lines) + "\n")


def test_rejects_duplicate_word_row(lines):
    lines.append(lines[2])
    with pytest.raises(CodebookError, match="duplicate"):
        loads_codebook("\n".join(lines) + "\n")


def test_rejects_partial_stored_centroid(lines):
    lines[2] = lines[2].rsplit(",", 2)[0] + ",,"
    with pytest.raises(CodebookError, match="partial"):
        loads_codebook("\n".join(lines) + "\n")


def test_rejects_malformed_number(lines):
    lines[2] = lines[2].replace("0.59", "abc", 1)
    with pytest.raises(CodebookError, match="malformed"):
        loads_codebook("\n".join(lines) + "\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rejects_non_finite_stored_centroid(lines, value):
    cells = lines[2].split(",")
    cells[12] = value  # c_l of the Small row
    lines[2] = ",".join(cells)
    with pytest.raises(CodebookError, match=r":3: word 'Small': non-finite stored centroid"):
        loads_codebook("\n".join(lines) + "\n")


def test_stored_mean_must_be_midpoint():
    with pytest.raises(ValueError):
        StoredCentroid(1.0, 2.0, 1.8)
    StoredCentroid(1.0, 2.0, 1.5)


def test_missing_stored_centroid_is_allowed(codebook, schema):
    entries = [CodebookEntry(e.parameter, e.term, e.fou, None) for e in codebook.entries]
    cb = Codebook(schema, entries)
    report = verify_stored_centroids(cb, tolerance=0.0)
    assert report.passed
    assert "no stored centroid" in report.format_text()


def test_verification_passes_at_shipped_tolerance(codebook):
    report = verify_stored_centroids(codebook, tolerance=0.05)
    assert report.passed
    text = report.format_text()
    assert "all entries pass" in text
    assert text.count("\n") >= 26  # one line per word plus header/footer


def test_verification_fails_at_zero_tolerance(codebook):
    # stored values are rounded to 2 decimals, so residue must remain
    report = verify_stored_centroids(codebook, tolerance=0.0)
    assert not report.passed
    assert "FAIL" in report.format_text()


def test_verification_respects_grid(codebook):
    coarse = verify_stored_centroids(codebook, DiscretizationGrid(sample_count=11),
                                     tolerance=0.5)
    assert len(coarse.checks) == 25
