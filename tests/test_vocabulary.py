import csv
import os
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from cwwkit import (FeedbackRecord, LinguisticTerm, SchemaError, TermSet,
                    WordResolutionError, build_default_schema,
                    default_feedback_path, read_feedback_file,
                    resolve_feedback)
from cwwkit.vocabulary import (FEEDBACK_HEADER, LIKING, PREPARATION,
                               SUBJECT_KNOWLEDGE, TIME_TAKEN, RawFeedback)

SS1_WORDS = {
    TIME_TAKEN: "Small",
    SUBJECT_KNOWLEDGE: "Large",
    LIKING: "Moderate",
    PREPARATION: "Moderate",
}


def test_default_schema_shape(schema):
    assert len(schema.parameters) == 4
    assert all(len(p) == 5 for p in schema.parameters)
    assert len(schema.recommendation) == 5
    assert schema.parameters[0].terms[1].code == "S"
    assert schema.parameters[0].terms[1].index == 1
    assert schema.recommendation.terms[2].code == "SSA"
    assert schema.recommendation.terms[2].index == 2


def test_default_schema_deterministic(schema):
    assert build_default_schema() == schema


def test_default_schema_is_built_once(schema, sample_rows):
    assert build_default_schema() is build_default_schema()
    # counted in a fresh interpreter: clearing this process's cache would
    # leave the session fixtures holding a schema the cache no longer holds
    code = ("import contextlib, io\n"
            "from cwwkit.cli import main\n"
            "from cwwkit.vocabulary import ParameterSchema, build_default_schema\n"
            "builds, init = [], ParameterSchema.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    builds.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "ParameterSchema.__init__ = counting\n"
            "build_default_schema.cache_clear()\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    status = main(['evaluate'])\n"
            "print(status, len(out.getvalue()) > 0, len(builds))\n")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                           timeout=60)
    assert child.returncode == 0, child.stderr
    status, printed, builds = child.stdout.split()
    assert (status, printed) == ("0", "True")
    # the feedback reader, the codebook and the batch share one schema
    assert int(builds) <= 1
    # and the session fixtures hold the cached schema's own terms
    cached = build_default_schema()
    assert schema is cached
    assert all(term is ts.terms[term.index]
               for row in sample_rows for ts, term in zip(cached.parameters, row.choices))


def test_resolve_ss1_by_labels(schema):
    record = resolve_feedback(schema, SS1_WORDS, student_id="SS1")
    assert record.indices == (1, 3, 2, 2)
    assert record.codes == ("S", "SLA", "AM", "PM")


def test_resolution_is_case_insensitive(schema):
    record = resolve_feedback(schema, {**SS1_WORDS, TIME_TAKEN: "small"})
    assert record.indices[0] == 1
    record = resolve_feedback(schema, {**SS1_WORDS, TIME_TAKEN: "s"})
    assert record.indices[0] == 1


def test_unknown_word_names_parameter_and_word(schema):
    with pytest.raises(WordResolutionError) as err:
        resolve_feedback(schema, {**SS1_WORDS, TIME_TAKEN: "Tiny"})
    assert "Tiny" in str(err.value)
    assert TIME_TAKEN in str(err.value)


def test_missing_parameter_is_schema_error(schema):
    words = dict(SS1_WORDS)
    del words[LIKING]
    with pytest.raises(SchemaError):
        resolve_feedback(schema, words)


def test_a_parameter_named_twice_is_schema_error(schema):
    # keys fold to lower case, so these two name one parameter
    with pytest.raises(SchemaError, match="more than once"):
        resolve_feedback(schema, {**SS1_WORDS, TIME_TAKEN: "S", TIME_TAKEN.upper(): "L"})


def test_unknown_parameter_is_schema_error(schema):
    with pytest.raises(SchemaError):
        resolve_feedback(schema, {**SS1_WORDS, "Mood": "Good"})


@pytest.mark.parametrize("name", [5, None, b"Liking towards Subject", "Mood"])
def test_term_set_of_an_unknown_or_non_text_name_is_schema_error(schema, name):
    with pytest.raises(SchemaError, match="unknown parameter"):
        schema.term_set(name)


def test_choice_indices_always_in_range(schema):
    for param in schema.parameters:
        for term in param:
            for word in (term.label, term.code, term.label.upper()):
                resolved = param.find(word)
                assert resolved == term
                assert 0 <= resolved.index <= param.g


@given(case=st.sampled_from(["lower", "upper", "title"]), term_index=st.integers(0, 4))
def test_case_variants_resolve_identically(case, term_index):
    param = build_default_schema().parameters[1]
    term = param[term_index]
    for source in (term.label, term.code):
        variant = getattr(source, case)()
        assert param.find(variant) == term


def test_default_schema_invariants(schema):
    """The invariants `TermSet` and `ParameterSchema` leave unchecked hold
    for the one schema."""
    for ts in schema.term_sets:
        assert [term.index for term in ts] == list(range(ts.g + 1))
        assert len(ts) >= 2
        labels = [term.label.lower() for term in ts]
        codes = [term.code.lower() for term in ts]
        assert len(set(labels)) == len(labels), ts.name
        assert len(set(codes)) == len(codes), ts.name
    names = [param.name.lower() for param in schema.parameters]
    assert len(set(names)) == len(names)
    assert schema.recommendation.name.lower() not in names


def test_feedback_record_accessors(schema):
    record = FeedbackRecord("s", (schema.parameters[0][1], schema.parameters[1][3],
                                  schema.parameters[2][2], schema.parameters[3][2]))
    assert record.indices == (1, 3, 2, 2)


def test_read_sample_feedback(sample_rows):
    assert len(sample_rows) == 25
    assert sample_rows[0].student_id == "1"
    assert sample_rows[0].codes[0] == "S"
    assert sample_rows[21].student_id == "22"
    assert sample_rows[21].indices == (4, 0, 0, 0)


def test_read_feedback_file_matches_csv_rows():
    with default_feedback_path().open(encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert tuple(header) == FEEDBACK_HEADER
    expected = [(row[0], tuple(word.strip() for word in row[1:])) for row in rows]
    # read here, not taken from the session's fixture: a test that clears
    # the schema's cache leaves a new schema behind it
    records = read_feedback_file(default_feedback_path())
    got = [(record.student_id, record.codes) for record in records]
    assert len(got) == 25
    assert got == expected
    # every row resolves as it is read, to the schema's own terms
    parameters = build_default_schema().parameters
    for record in records:
        assert isinstance(record, FeedbackRecord)
        for param, term, code in zip(parameters, record.choices, record.codes):
            assert term is param.find(code)


def test_reader_resolves_padded_mixed_case_labels_and_keeps_unknown_words_raw(tmp_path):
    path = tmp_path / "district.csv"
    path.write_text(",".join(FEEDBACK_HEADER) + "\n"
                    " a1 ,  sMaLL ,LARGE,moderate,  Very HIGH\n"
                    "a2,VL,svla,Am,ph\n"
                    "a3, Tiny ,  SL ,AM,PM\n"
                    "a4, very little , Limited ,  HIGH,pl\n"
                    "a5,S,SLA,AM,Nope\n")
    rows = read_feedback_file(path)
    assert [row.student_id for row in rows] == ["a1", "a2", "a3", "a4", "a5"]
    time, knowledge, liking, preparation = build_default_schema().parameters
    expected = {
        0: (time[1], knowledge[3], liking[2], preparation[4]),
        1: (time[0], knowledge[4], liking[2], preparation[3]),
        3: (time[0], knowledge[1], liking[3], preparation[1]),
    }
    for position, choices in expected.items():
        record = rows[position]
        assert isinstance(record, FeedbackRecord)
        assert all(got is want for got, want in zip(record.choices, choices))
        assert len(record.choices) == len(choices)
    # a row whose word does not resolve keeps its stripped words
    assert rows[2] == RawFeedback("a3", {TIME_TAKEN: "Tiny", SUBJECT_KNOWLEDGE: "SL",
                                         LIKING: "AM", PREPARATION: "PM"})
    assert rows[4] == RawFeedback("a5", {TIME_TAKEN: "S", SUBJECT_KNOWLEDGE: "SLA",
                                         LIKING: "AM", PREPARATION: "Nope"})


def test_feedback_file_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("student,time\n1,S\n")
    with pytest.raises(SchemaError) as err:
        read_feedback_file(bad)
    assert ",".join(FEEDBACK_HEADER) in str(err.value)


def test_feedback_file_rejects_short_row(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(FEEDBACK_HEADER) + "\n1,S,SLA\n")
    with pytest.raises(SchemaError) as err:
        read_feedback_file(bad)
    assert ":2:" in str(err.value)


def test_feedback_error_names_the_line_a_record_starts_on(tmp_path):
    # the quoted id of the first record spans lines 2 and 3
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(FEEDBACK_HEADER) + '\n"a\nb",S,SL,AM,PM\n2,S,SL,AM\n')
    with pytest.raises(SchemaError, match=f"^{re.escape(str(bad))}:4: expected 5 cells, got 4$"):
        read_feedback_file(bad)


def _find_by_loop(ts, word):
    """The linear search `TermSet.find` replaced: the first term, by index,
    whose label or code matches."""
    needle = word.strip().lower()
    for term in ts.terms:
        if needle == term.label.lower() or needle == term.code.lower():
            return term
    raise WordResolutionError(ts.name, word)


def test_find_keeps_the_lower_index_when_a_label_is_another_code():
    # "hi" is term 0's label and term 1's code, "mid" term 1's label and
    # term 2's code, "x" term 0's code and term 2's label
    ts = TermSet("x", (LinguisticTerm("Hi", "X", 0), LinguisticTerm("Mid", "HI", 1),
                       LinguisticTerm("x", "mid", 2)))
    assert [ts.find(w).index for w in ("hi", "mid", "x")] == [0, 1, 0]
    words = [w for t in ts for w in (t.label, t.code)]
    for word in words + [" hI\t", "  MID ", "X  ", "\tx"]:
        assert ts.find(word) is _find_by_loop(ts, word)
    for word in ("nope", " Hi there ", ""):
        with pytest.raises(WordResolutionError) as err:
            ts.find(word)
        with pytest.raises(WordResolutionError) as expected:
            _find_by_loop(ts, word)
        assert str(err.value) == str(expected.value)
        assert (err.value.parameter, err.value.word) == ("x", word)


def test_term_hash_survives_a_pickle_from_another_process():
    # the hash is stored per term, and a string's hash changes with the
    # interpreter's hash seed, so an unpickled term must hash afresh
    code = ("import pickle, sys; from cwwkit import LinguisticTerm; "
            "sys.stdout.buffer.write(pickle.dumps(LinguisticTerm('Small', 'S', 1)))")
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed,
                                    PYTHONPATH=os.pathsep.join(sys.path)),
                           timeout=60, check=True)
    term = pickle.loads(child.stdout)
    assert term == LinguisticTerm("Small", "S", 1)
    assert {term: 1}.get(LinguisticTerm("Small", "S", 1)) == 1
    assert repr(term) == "LinguisticTerm(label='Small', code='S', index=1)"
