import csv
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cwwkit import (ConfigurationError, CwwError, DiscretizationGrid, EvalOptions,
                    FeedbackRecord, LinguisticTerm, Method, SchemaError,
                    build_default_schema, default_codebook, default_feedback_path,
                    evaluate_batch, evaluate_student, rank_students, read_feedback_file,
                    resolve_feedback, uniqueness_report)
from cwwkit.vocabulary import (FEEDBACK_HEADER, LIKING, PREPARATION,
                               SUBJECT_KNOWLEDGE, TIME_TAKEN, RawFeedback)
from reference_data import (ENGINE_EXTENSION_WORD, ENGINE_PERCEPTUAL,
                            ENGINE_PERCEPTUAL_PARAM_MODE, PUBLISHED)


def _words(record):
    """The record's words as the raw feedback the sample file gives: one
    code per parameter name."""
    schema = build_default_schema()
    return {param.name: term.code for param, term in zip(schema.parameters, record.choices)}


def _row(report, sid):
    return next(r for r in report.rows if r.student_id == str(sid))


def _rec(report, sid, method):
    return _row(report, sid).cells[method].recommendation


class TestFullBatch:
    def test_extension_column(self, full_report):
        for sid, expected_word in ENGINE_EXTENSION_WORD.items():
            rec = _rec(full_report, sid, Method.EXTENSION_PRINCIPLE)
            assert rec.linguistic.code == expected_word, f"student {sid}"

    def test_extension_numeric_is_matched_term(self, full_report):
        rec = _rec(full_report, 1, Method.EXTENSION_PRINCIPLE)
        assert rec.numeric.as_tuple() == (0.25, 0.5, 0.75)
        assert rec.aggregate.as_tuple() == (0.25, 0.5, 0.75)
        rec22 = _rec(full_report, 22, Method.EXTENSION_PRINCIPLE)
        assert rec22.numeric.as_tuple() == (0.0, 0.25, 0.5)
        assert rec22.aggregate.as_tuple() == (0.1875, 0.25, 0.4375)

    def test_symbolic_column(self, full_report):
        for sid, row in PUBLISHED.items():
            rec = _rec(full_report, sid, Method.SYMBOLIC)
            assert rec.numeric == row[3], f"student {sid}"
            assert rec.linguistic.code == row[4], f"student {sid}"

    def test_two_tuple_column(self, full_report):
        for sid, row in PUBLISHED.items():
            rec = _rec(full_report, sid, Method.TWO_TUPLE)
            assert rec.numeric == row[5], f"student {sid}"
            assert rec.linguistic.code == row[6], f"student {sid}"
            pair = rec.two_tuple
            assert pair.term_index + pair.alpha == rec.numeric

    def test_perceptual_column(self, full_report):
        for sid, (mean, word) in ENGINE_PERCEPTUAL.items():
            rec = _rec(full_report, sid, Method.PERCEPTUAL)
            assert rec.score == pytest.approx(mean, abs=2e-6), f"student {sid}"
            assert rec.numeric == round(rec.score, 2)
            assert rec.linguistic.code == word, f"student {sid}"

    def test_recommendations_use_recommendation_set(self, full_report, schema):
        codes = {t.code for t in schema.recommendation}
        for row in full_report.rows:
            for cell in row.cells.values():
                assert cell.recommendation.linguistic.code in codes

    def test_metadata(self, full_report):
        assert full_report.metadata["students"] == 25
        assert full_report.metadata["grid"]["sample_count"] == 1001
        assert full_report.metadata["lwa_mode"] == "exact"


class TestDeterminism:
    def test_identical_runs_identical_reports(self, sample_rows, codebook):
        first = evaluate_batch(sample_rows, cb=codebook)
        second = evaluate_batch(sample_rows, cb=codebook)
        assert first == second

    def test_row_permutation_permutes_report(self, sample_rows, codebook):
        forward = evaluate_batch(sample_rows, cb=codebook)
        backward = evaluate_batch(list(reversed(sample_rows)), cb=codebook)
        assert list(reversed(backward.rows)) == list(forward.rows)

    def test_rows_with_one_vector_share_its_codes(self, full_report):
        row2, row11 = _row(full_report, 2), _row(full_report, 11)
        assert row2.codes is row11.codes
        codes = [row.codes for row in full_report.rows]
        assert len({id(c) for c in codes}) == len(set(codes))

    def test_identical_feedback_identical_cells(self, full_report):
        row2, row11 = _row(full_report, 2), _row(full_report, 11)
        assert row2.codes == row11.codes
        for method in full_report.methods:
            a = row2.cells[method].recommendation
            b = row11.cells[method].recommendation
            assert (a.numeric_text, a.linguistic.code) == (b.numeric_text, b.linguistic.code)


_NAMES = [param.name for param in build_default_schema().parameters]
# the keys and words of a raw row: parameter names and vocabulary words,
# folded or not, among text, numbers, None, bytes and tuples
_RAW_NAMES = st.one_of(st.sampled_from(_NAMES), st.sampled_from(_NAMES).map(str.upper),
                       st.text(max_size=8), st.integers(), st.none(), st.binary(max_size=4),
                       st.tuples(st.text(max_size=4)))
_RAW_WORDS = st.one_of(
    st.sampled_from([w for param in build_default_schema().parameters
                     for term in param for w in (term.label, term.code.lower())]),
    st.text(max_size=8), st.integers(), st.floats(), st.none(), st.binary(max_size=4),
    st.tuples(st.text(max_size=4)), st.lists(st.integers(), max_size=2))


class TestErrorHandling:
    def test_single_bad_word_flags_one_row(self, sample_rows, codebook):
        rows = list(sample_rows)
        bad = RawFeedback("99", {**_words(rows[0]), TIME_TAKEN: "Tiny"})
        report = evaluate_batch(rows + [bad], cb=codebook)
        flagged = [r for r in report.rows if r.error is not None]
        assert len(flagged) == 1
        assert flagged[0].student_id == "99"
        assert "Tiny" in flagged[0].error
        assert sum(r.error is None for r in report.rows) == 25

    def test_duplicate_student_id_flags_later_rows(self, sample_rows, codebook):
        first = RawFeedback("1", {**_words(sample_rows[0]), TIME_TAKEN: "Tiny"})
        batch = [first, sample_rows[1], sample_rows[0],
                 RawFeedback("1", _words(sample_rows[2]))]
        report = evaluate_batch(batch, cb=codebook)
        assert "Tiny" in report.rows[0].error
        assert report.rows[1].error is None
        for row in report.rows[2:]:
            assert row.error == "duplicate student id '1', first used by row 1"
            assert row.cells == {}
        assert report.rows[2].codes == ("S", "SLA", "AM", "PM")

    @pytest.mark.parametrize("case", ["index beyond g", "three choices", "five choices",
                                      "another parameter's word", "unknown label",
                                      "a non-term with a term's fields", "a string choice",
                                      "a None choice", "no choices", "a non-text code"])
    def test_hand_built_record_off_the_schema_flags_its_row(self, schema, codebook, case):
        # The record refuses such a row when it is built, so neither a batch
        # nor evaluate_student can receive it.
        valid = tuple(param[2] for param in schema.parameters)
        time, knowledge = schema.parameters[:2]
        choices = {
            "index beyond g": (LinguisticTerm("Huge", "H", 7),) + valid[1:],
            "three choices": valid[:3],
            "five choices": valid + (time[1],),
            "another parameter's word": (knowledge[1],) + valid[1:],
            "unknown label": (LinguisticTerm("Huge", "H", 1),) + valid[1:],
            "a non-term with a term's fields": (
                SimpleNamespace(label="Small", code="S", index=1),) + valid[1:],
            "a string choice": ("S",) + valid[1:],
            "a None choice": valid[:2] + (None,) + valid[3:],
            "no choices": None,
            "a non-text code": (SimpleNamespace(label="x", code=5, index=9),) + valid[1:],
        }[case]
        with pytest.raises(SchemaError, match="is not one word of each parameter$"):
            FeedbackRecord("bad", choices)
        # an equal copy of the schema's terms builds and evaluates as they do
        copy = tuple(LinguisticTerm(t.label, t.code, t.index) for t in valid)
        ok, copied = evaluate_batch([FeedbackRecord("ok", valid),
                                     FeedbackRecord("copy", copy)], cb=codebook).rows
        assert ok.error is None and copied.error is None
        assert copied.cells == ok.cells
        assert all(cell.error is None for cell in ok.cells.values())

    @pytest.mark.parametrize("word", [None, 5])
    def test_raw_word_that_is_not_text_flags_its_row(self, sample_rows, codebook, word):
        bad = RawFeedback("bad", {**_words(sample_rows[0]), LIKING: word})
        flagged, ok = evaluate_batch([bad, sample_rows[1]], cb=codebook).rows
        assert flagged.error == f"unknown word {word!r} for parameter {LIKING!r}"
        assert flagged.codes is None and flagged.cells == {}
        assert ok.error is None

    @pytest.mark.parametrize("words, error", [
        ({5: "S"}, "unknown parameters in feedback: [5]"),
        ({None: "x"}, "unknown parameters in feedback: [None]"),
        ({TIME_TAKEN: "S", 5: "S", "Mood": "x"}, "unknown parameters in feedback: [5, 'Mood']"),
        (None, "feedback None is not a mapping of parameter names to words"),
        (5, "feedback 5 is not a mapping of parameter names to words"),
        ([(TIME_TAKEN, "S")], f"feedback {[(TIME_TAKEN, 'S')]!r} is not a mapping "
                              "of parameter names to words"),
    ])
    def test_raw_words_not_a_mapping_of_text_names_flag_their_row(self, schema, sample_rows,
                                                                  codebook, words, error):
        flagged, ok = evaluate_batch([RawFeedback("x", words), sample_rows[1]], cb=codebook).rows
        assert flagged.error == error
        assert flagged.codes is None and flagged.cells == {}
        assert ok.error is None
        with pytest.raises(SchemaError, match=f"^{re.escape(error)}$"):
            resolve_feedback(schema, words)

    @settings(max_examples=60, deadline=None)
    @given(words=st.one_of(
        st.dictionaries(_RAW_NAMES, _RAW_WORDS, max_size=6),
        st.lists(st.tuples(_RAW_NAMES, _RAW_WORDS), max_size=4),
        st.none(), st.integers()))
    def test_any_raw_row_fails_alone(self, words):
        # no fixtures: Hypothesis prints every argument of a failing example
        rows, cb = read_feedback_file(default_feedback_path()), default_codebook()
        report = evaluate_batch([RawFeedback("x", words), *rows], cb=cb)
        row = report.rows[0]
        try:
            record = resolve_feedback(build_default_schema(), words, "x")
        except CwwError as exc:
            assert row.error == str(exc)
        else:  # the drawn words happen to name one word of each parameter
            assert row.error is None and row.codes == record.codes
        assert report.rows[1:] == evaluate_batch(rows, cb=cb).rows

    @pytest.mark.parametrize("student_id", [5, None, 7.0, b"7"])
    def test_student_id_that_is_not_text_is_schema_error(self, schema, sample_rows,
                                                         student_id):
        # the table, the JSON and the ranking's tie-break read ids as text,
        # so neither kind of row can be built with another id
        message = f"^student id {re.escape(repr(student_id))} is not text$"
        valid = tuple(param[2] for param in schema.parameters)
        with pytest.raises(SchemaError, match=message):
            FeedbackRecord(student_id, valid)
        with pytest.raises(SchemaError, match=message):
            RawFeedback(student_id, _words(sample_rows[0]))

    def test_reader_rows_evaluate_as_the_raw_rows_they_replace(self, tmp_path, codebook):
        path = tmp_path / "batch.csv"
        path.write_text(",".join(FEEDBACK_HEADER) + "\n"
                        "1, small ,Large,moderate,MODERATE\n"
                        "2,L,SL,AH,PL\n"
                        "1,VL,SVL,AVL,PVL\n"
                        "3,Tiny,SL,AH,PL\n"
                        "2,Huge,SL,AH,PL\n"
                        "4,  l , sl ,ah,pl\n"
                        "5,S,SLA,AM,Nope\n")
        # each row as the reader kept it before it resolved rows: raw words
        with path.open(encoding="utf-8", newline="") as handle:
            _, *cells = csv.reader(handle)
        names = [param.name for param in build_default_schema().parameters]
        raw = [RawFeedback(row[0].strip(), {name: cell.strip()
                                            for name, cell in zip(names, row[1:])})
               for row in cells]
        rows = read_feedback_file(path)
        assert [type(row) for row in rows] == [FeedbackRecord] * 3 + [
            RawFeedback, RawFeedback, FeedbackRecord, RawFeedback]
        for options in (EvalOptions(), EvalOptions(lwa_mode="paper")):
            got = evaluate_batch(rows, cb=codebook, options=options)
            want = evaluate_batch(raw, cb=codebook, options=options)
            assert len(got.rows) == len(want.rows) == 7
            for got_row, want_row in zip(got.rows, want.rows):
                assert got_row == want_row
            assert got == want
        flagged = {row.student_id: row.error for row in got.rows if row.error}
        assert "Tiny" in flagged["3"] and "Nope" in flagged["5"]
        assert [row.error for row in got.rows[2:5:2]] == [
            "duplicate student id '1', first used by row 1",
            "duplicate student id '2', first used by row 2"]

    def test_records_of_schema_terms_compare_no_terms(self, monkeypatch, codebook):
        # read here, not taken from the session's fixture: a test that
        # clears the schema's cache leaves a new schema behind it
        expected = evaluate_batch(read_feedback_file(default_feedback_path()), cb=codebook)
        calls = []
        equal = LinguisticTerm.__eq__

        def counting(self, other):
            calls.append(other)
            return equal(self, other)

        monkeypatch.setattr(LinguisticTerm, "__eq__", counting)
        # the reader builds each record from the schema's own terms
        rows = read_feedback_file(default_feedback_path())
        report = evaluate_batch(rows, cb=codebook)
        assert calls == []
        assert report == expected
        # an equal copy still builds, by equality, and evaluates; another
        # parameter's term and a non-term are still refused
        valid = rows[0].choices
        copy = tuple(LinguisticTerm(t.label, t.code, t.index) for t in valid)
        copied, = evaluate_batch([FeedbackRecord("copy", copy)], cb=codebook).rows
        assert calls
        assert copied.error is None and copied.cells == expected.rows[0].cells
        other = (build_default_schema().parameters[1][1],) + valid[1:]
        duck = (SimpleNamespace(label="Small", code="S", index=1),) + valid[1:]
        for choices in (other, duck):
            with pytest.raises(SchemaError, match="is not one word of each parameter$"):
                FeedbackRecord("bad", choices)

    def test_perceptual_without_codebook(self, sample_rows):
        with pytest.raises(ConfigurationError):
            evaluate_batch(sample_rows, (Method.PERCEPTUAL,), cb=None)
        assert isinstance(sample_rows[0], FeedbackRecord)
        with pytest.raises(ConfigurationError, match="needs a loaded codebook"):
            evaluate_student(sample_rows[0], Method.PERCEPTUAL)

    def test_empty_batch(self, codebook):
        with pytest.raises(ValueError):
            evaluate_batch([], cb=codebook)

    def test_no_methods(self, sample_rows, codebook):
        with pytest.raises(ConfigurationError):
            evaluate_batch(sample_rows, (), cb=codebook)

    @pytest.mark.parametrize("methods", [
        ["symbolic", "symbolic"],
        [Method.TWO_TUPLE, "symbolic", Method.SYMBOLIC],
    ])
    def test_repeated_method(self, sample_rows, codebook, methods):
        with pytest.raises(ConfigurationError, match="method 'symbolic' is given twice"):
            evaluate_batch(sample_rows, methods, cb=codebook)

    def test_invalid_lwa_mode(self):
        with pytest.raises(ConfigurationError):
            EvalOptions(lwa_mode="bogus")

    @pytest.mark.parametrize("grid", [51, None, "1001"])
    def test_grid_that_is_not_a_grid(self, grid):
        # refused when the options are built, before a batch reads the grid
        with pytest.raises(ConfigurationError,
                           match=f"grid must be a DiscretizationGrid, got {grid!r}"):
            EvalOptions(grid=grid)


def test_record_flagged_exactly_when_a_choice_is_not_in_its_parameter(schema, codebook):
    # a choice outside its parameter refuses the record when it is built
    terms = [term for ts in schema.term_sets for term in ts]
    copies = [LinguisticTerm(t.label, t.code, t.index) for t in terms]
    others = [LinguisticTerm("Huge", "H", 1), SimpleNamespace(label="Small", code="S", index=1),
              None, "S", 1, (1,)]
    valid = tuple(param[2] for param in schema.parameters)
    batch, flagged = [], []
    for value in terms + copies + others:
        for position, ts in enumerate(schema.parameters):
            choices = valid[:position] + (value,) + valid[position + 1:]
            off = value not in ts.terms
            flagged.append(off)
            if off:
                with pytest.raises(SchemaError, match="is not one word of each parameter$"):
                    FeedbackRecord("bad", choices)
            else:
                batch.append(FeedbackRecord(str(len(batch)), choices))
    assert any(flagged) and not all(flagged)
    report = evaluate_batch(batch, cb=codebook)
    assert len(report.rows) == flagged.count(False)
    for row in report.rows:
        assert row.error is None
        assert all(cell.error is None for cell in row.cells.values())


class TestSingleStudent:
    def test_walkthrough_student_perceptual(self, codebook, schema):
        record = resolve_feedback(schema, {
            TIME_TAKEN: "Small", SUBJECT_KNOWLEDGE: "Large",
            LIKING: "Moderate", PREPARATION: "Moderate",
        }, "SS1")
        rec = evaluate_student(record, Method.PERCEPTUAL, codebook)
        assert rec.numeric == pytest.approx(4.95, abs=0.05)
        assert rec.linguistic.code == "SSA"
        interval = rec.centroid
        assert interval.c_l == pytest.approx(4.44, abs=0.05)
        assert interval.c_r == pytest.approx(5.47, abs=0.05)

    def test_row22_all_methods(self, codebook, schema, sample_rows):
        record = resolve_feedback(schema, _words(sample_rows[21]), "22")
        ep = evaluate_student(record, Method.EXTENSION_PRINCIPLE, codebook)
        assert ep.numeric.as_tuple() == (0.0, 0.25, 0.5)
        assert ep.linguistic.code == "SSBA"
        sm = evaluate_student(record, Method.SYMBOLIC, codebook)
        assert (sm.numeric, sm.linguistic.code) == (1, "SSBA")
        tt = evaluate_student(record, Method.TWO_TUPLE, codebook)
        assert (tt.numeric, tt.linguistic.code) == (1.0, "SSBA")
        pc = evaluate_student(record, Method.PERCEPTUAL, codebook)
        assert pc.numeric == pytest.approx(2.98, abs=0.05)
        assert pc.linguistic.code == "SSBA"

    def test_paper_lwa_mode_option(self, codebook, schema, sample_rows):
        options = EvalOptions(lwa_mode="paper")
        for sid, mean in ENGINE_PERCEPTUAL_PARAM_MODE.items():
            record = resolve_feedback(schema, _words(sample_rows[sid - 1]), str(sid))
            rec = evaluate_student(record, Method.PERCEPTUAL, codebook, options=options)
            assert rec.score == pytest.approx(mean, abs=2e-6)

    def test_coarse_grid_still_evaluates(self, codebook, sample_rows):
        report = evaluate_batch(sample_rows, cb=codebook,
                                options=EvalOptions(grid=DiscretizationGrid(sample_count=11)))
        assert all(r.error is None for r in report.rows)
        for row in report.rows:
            assert row.cells[Method.PERCEPTUAL].error is None


class TestRanking:
    def test_perceptual_top_three(self, full_report):
        ranking = rank_students(full_report, Method.PERCEPTUAL)
        assert [sid for sid, _ in ranking[:3]] == ["3", "8", "10"]
        assert ranking[0][1] == pytest.approx(6.93, abs=0.05)

    def test_two_tuple_order(self, full_report):
        ranking = rank_students(full_report, Method.TWO_TUPLE)
        position = {sid: i for i, (sid, _) in enumerate(ranking)}
        assert position["4"] < position["12"]

    def test_scores_non_increasing_and_permutation(self, full_report):
        ranking = rank_students(full_report, Method.PERCEPTUAL)
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)
        assert sorted(sid for sid, _ in ranking) == sorted(
            r.student_id for r in full_report.rows)

    def test_tied_scores_order_by_student_id(self, full_report):
        ranking = rank_students(full_report, Method.PERCEPTUAL)
        ids = [sid for sid, _ in ranking]
        # students 2 and 11 gave identical feedback, so they tie exactly;
        # ties order lexicographically by id
        assert ids.index("11") + 1 == ids.index("2")

    def test_unknown_method(self, full_report):
        with pytest.raises(ValueError):
            rank_students(full_report, "bogus")

    def test_method_absent_from_report(self, sample_rows, codebook):
        report = evaluate_batch(sample_rows, (Method.SYMBOLIC,), cb=codebook)
        with pytest.raises(ValueError):
            rank_students(report, Method.PERCEPTUAL)


class TestUniqueness:
    def test_extension_groups(self, full_report):
        groups = uniqueness_report(full_report)[Method.EXTENSION_PRINCIPLE]
        sizes = sorted(len(g.students) for g in groups)
        assert sizes == [3, 5, 17]
        biggest = max(groups, key=lambda g: len(g.students))
        assert biggest.numeric == "{0.25,0.5,0.75}"
        assert biggest.word == "SSA"

    def test_symbolic_groups_include_all_sharers(self, full_report):
        groups = {g.numeric: g for g in uniqueness_report(full_report)[Method.SYMBOLIC]}
        # index 2 is shared beyond the walkthrough students: 20 and 24 too
        assert set(groups["2"].students) >= {"1", "2", "20", "24"}
        assert len(groups["2"].students) == 12

    def test_perceptual_identical_feedback_not_counted(self, full_report):
        # the only 2-decimal coincidence (students 2/11) comes from
        # identical feedback, so no perceptual duplicate group remains
        assert uniqueness_report(full_report)[Method.PERCEPTUAL] == ()

    def test_single_student_batch_empty_summary(self, sample_rows, codebook):
        report = evaluate_batch(sample_rows[:1], cb=codebook)
        assert all(not groups for groups in uniqueness_report(report).values())

    def test_flagged_rows_excluded(self, sample_rows, codebook):
        bad = RawFeedback("99", {**_words(sample_rows[0]), TIME_TAKEN: "Tiny"})
        report = evaluate_batch(list(sample_rows) + [bad], cb=codebook)
        for groups in uniqueness_report(report).values():
            for group in groups:
                assert "99" not in group.students
