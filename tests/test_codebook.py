import pytest

from cwwkit import (CodebookError, DiscretizationGrid, LinguisticTerm,
                    TrapezoidIT2, verify_stored_centroids)
from cwwkit.codebook import (Codebook, CodebookEntry, StoredCentroid,
                             load_codebook, loads_codebook)
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


@pytest.mark.parametrize("parameter, word", [(5, "S"), (None, "S"), (TIME_TAKEN, 5)])
def test_lookup_of_a_non_text_name_or_word_is_codebook_error(codebook, parameter, word):
    with pytest.raises(CodebookError):
        codebook.lookup(parameter, word)


def test_recommendation_fous_in_index_order(codebook, schema):
    by_word = {(e.parameter, e.term.code): e.fou for e in codebook.entries}
    fous = [codebook.lookup(RECOMMENDATION, term.label) for term in schema.recommendation]
    assert len(fous) == 5
    assert fous == [by_word[RECOMMENDATION, term.code] for term in schema.recommendation]
    assert fous[4] == codebook.lookup(RECOMMENDATION, "SSVG")


def test_parameter_fous_follow_term_index_order(codebook, schema):
    by_word = {(e.parameter, e.term.code): e.fou for e in codebook.entries}
    assert codebook.parameter_fous == tuple(
        tuple(by_word[(ts.name, term.code)] for term in ts) for ts in schema.parameters)
    for ts in schema.term_sets:
        for term in ts:
            assert codebook.lookup(ts.name.upper(), term.code) is by_word[ts.name, term.code]


def test_entry_outside_schema_rejected(codebook):
    stray = CodebookEntry("No such parameter", codebook.entries[0].term,
                          codebook.entries[0].fou)
    with pytest.raises(CodebookError, match="not a word of the schema"):
        Codebook(codebook.entries + (stray,))


def _relabelled(entry):
    term = entry.term
    return CodebookEntry(entry.parameter, LinguisticTerm("Tiny", term.code, term.index),
                         entry.fou)


def _renamed(entry):
    return CodebookEntry(entry.parameter.upper(), entry.term, entry.fou)


# A hand-built entry names its parameter and term exactly as the parser
# builds them.
@pytest.mark.parametrize("edit, message", [
    (lambda entries: (_relabelled(entries[0]),) + entries[1:], "not a word of the schema"),
    (lambda entries: (_renamed(entries[0]),) + entries[1:], "not a word of the schema"),
    (lambda entries: entries + entries[:1], "duplicate entry"),
    (lambda entries: entries[1:], "is missing word 'Very little'"),
], ids=["relabelled-term", "case-changed-parameter", "duplicate", "missing"])
def test_hand_built_entries_rejected(codebook, edit, message):
    with pytest.raises(CodebookError, match=message):
        Codebook(edit(codebook.entries))


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


def test_error_names_the_line_a_record_starts_on(lines):
    # the quoted label of the first word spans lines 2 and 3
    lines[1] = lines[1].replace(",Very little,", ',"Very\nlittle",')
    lines[2] = lines[2].rsplit(",", 1)[0]
    with pytest.raises(CodebookError, match="^<string>:4: expected 15 cells, got 14$"):
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


def test_rejects_unknown_parameter_row(lines):
    lines.insert(3, "Shoe size,Large,L,1,2,3,4,1.5,2,3,3.5,1,,,")
    with pytest.raises(CodebookError, match=r"^<string>:4: unknown parameter 'Shoe size'$"):
        loads_codebook("\n".join(lines) + "\n")


def test_rejects_duplicate_word_row(lines):
    lines.append(lines[2])
    with pytest.raises(CodebookError, match="duplicate"):
        loads_codebook("\n".join(lines) + "\n")


def test_rejects_partial_stored_centroid(lines):
    lines[2] = lines[2].rsplit(",", 2)[0] + ",,"
    with pytest.raises(CodebookError, match="partial"):
        loads_codebook("\n".join(lines) + "\n")


def test_invalid_word_model_is_reported_before_partial_stored_centroid(lines):
    cells = lines[2].split(",")
    cells[11] = "1.5"  # lower-bound height of the Small row
    cells[13:15] = ["", ""]  # its stored c_r and mean
    lines[2] = ",".join(cells)
    with pytest.raises(CodebookError, match=r"^<string>:3: word 'Small': .*height exceeds 1"):
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


def _vla_ending_at(lines, d):
    """The codebook with the Very Large time word's support ending at `d`
    instead of 10."""
    row = lines[5].replace("VLA,6.05,9.72,10.00,10.00,", f"VLA,6.05,9.72,10.00,{d},")
    assert row != lines[5]
    lines[5] = row
    return "\n".join(lines) + "\n"


def test_rejects_word_off_the_scale(lines, codebook):
    message = r"FOU support \[6.05, 50.0\] exceeds grid domain \[0.0, 10.0\]"
    with pytest.raises(CodebookError, match=r"^<string>:6: word 'Very Large': " + message):
        loads_codebook(_vla_ending_at(lines, "50"))
    # a hand-built word off the scale cannot be built, so no codebook holds one
    vla = codebook.lookup(TIME_TAKEN, "VLA")
    with pytest.raises(ValueError, match=message):
        TrapezoidIT2(*vla.umf[:3], 50.0, *vla.params[4:])


def test_word_within_the_tolerance_of_the_scale_loads(lines):
    cb = loads_codebook(_vla_ending_at(lines, repr(10 + 1e-10)))
    assert cb.lookup(TIME_TAKEN, "VLA").umf_d == 10 + 1e-10


def test_stored_mean_must_be_midpoint():
    with pytest.raises(ValueError):
        StoredCentroid(1.0, 2.0, 1.8)
    StoredCentroid(1.0, 2.0, 1.5)


def test_missing_stored_centroid_is_allowed(codebook):
    entries = [CodebookEntry(e.parameter, e.term, e.fou, None) for e in codebook.entries]
    cb = Codebook(entries)
    report = verify_stored_centroids(cb, tolerance=0.0)
    assert report.passed
    assert all(check.delta_c_l is None and check.delta_c_r is None for check in report.checks)
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
