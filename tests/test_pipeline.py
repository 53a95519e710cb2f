import pytest

from cwwkit import (ConfigurationError, DiscretizationGrid, EvalOptions, Method,
                    evaluate_batch, evaluate_student, rank_students,
                    resolve_feedback, uniqueness_report)
from cwwkit.pipeline import numeric_key
from cwwkit.vocabulary import (LIKING, PREPARATION, SUBJECT_KNOWLEDGE,
                               TIME_TAKEN, LinguisticTerm, ParameterSchema,
                               RawFeedback, TermSet)
from reference_data import (ENGINE_EXTENSION_WORD, ENGINE_PERCEPTUAL,
                            ENGINE_PERCEPTUAL_PARAM_MODE, PUBLISHED)


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

    def test_identical_feedback_identical_cells(self, full_report):
        row2, row11 = _row(full_report, 2), _row(full_report, 11)
        assert row2.codes == row11.codes
        for method in full_report.methods:
            a = row2.cells[method].recommendation
            b = row11.cells[method].recommendation
            assert (numeric_key(a), a.linguistic.code) == (numeric_key(b), b.linguistic.code)


class TestErrorHandling:
    def test_single_bad_word_flags_one_row(self, sample_rows, codebook):
        rows = list(sample_rows)
        bad = RawFeedback("99", {**rows[0].words, TIME_TAKEN: "Tiny"})
        report = evaluate_batch(rows + [bad], cb=codebook)
        flagged = [r for r in report.rows if r.error is not None]
        assert len(flagged) == 1
        assert flagged[0].student_id == "99"
        assert "Tiny" in flagged[0].error
        assert sum(r.error is None for r in report.rows) == 25

    def test_duplicate_student_id_flags_later_rows(self, sample_rows, codebook):
        first = RawFeedback("1", {**sample_rows[0].words, TIME_TAKEN: "Tiny"})
        batch = [first, sample_rows[1], sample_rows[0],
                 RawFeedback("1", sample_rows[2].words)]
        report = evaluate_batch(batch, cb=codebook)
        assert "Tiny" in report.rows[0].error
        assert report.rows[1].error is None
        for row in report.rows[2:]:
            assert row.error == "duplicate student id '1', first used by row 1"
            assert row.cells == {}
        assert report.rows[2].codes == ("S", "SLA", "AM", "PM")

    def test_perceptual_without_codebook(self, sample_rows):
        with pytest.raises(ConfigurationError):
            evaluate_batch(sample_rows, (Method.PERCEPTUAL,), cb=None)

    def test_empty_batch(self, codebook):
        with pytest.raises(ValueError):
            evaluate_batch([], cb=codebook)

    def test_no_methods(self, sample_rows, codebook):
        with pytest.raises(ConfigurationError):
            evaluate_batch(sample_rows, (), cb=codebook)

    def test_invalid_lwa_mode(self):
        with pytest.raises(ConfigurationError):
            EvalOptions(lwa_mode="bogus")

    def test_mixed_cardinality_schema_rejected(self, codebook):
        tiny = TermSet("Tiny parameter", (
            LinguisticTerm("low", "LO", 0), LinguisticTerm("high", "HI", 1),
        ))
        schema = ParameterSchema(parameters=(tiny,), recommendation=TermSet(
            "Out", tuple(LinguisticTerm(f"t{i}", f"T{i}", i) for i in range(5))))
        record = resolve_feedback(schema, {"Tiny parameter": "LO"}, "x")
        with pytest.raises(ConfigurationError):
            evaluate_student(record, Method.SYMBOLIC, schema=schema)


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
        record = resolve_feedback(schema, sample_rows[21].words, "22")
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
            record = resolve_feedback(schema, sample_rows[sid - 1].words, str(sid))
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
        summary = uniqueness_report(full_report)
        groups = summary.groups[Method.EXTENSION_PRINCIPLE]
        sizes = sorted(len(g.students) for g in groups)
        assert sizes == [3, 5, 17]
        biggest = max(groups, key=lambda g: len(g.students))
        assert biggest.numeric == "{0.25,0.5,0.75}"
        assert biggest.word == "SSA"

    def test_symbolic_groups_include_all_sharers(self, full_report):
        summary = uniqueness_report(full_report)
        groups = {g.numeric: g for g in summary.groups[Method.SYMBOLIC]}
        # index 2 is shared beyond the walkthrough students: 20 and 24 too
        assert set(groups["2"].students) >= {"1", "2", "20", "24"}
        assert len(groups["2"].students) == 12

    def test_perceptual_identical_feedback_not_counted(self, full_report):
        summary = uniqueness_report(full_report)
        # the only 2-decimal coincidence (students 2/11) comes from
        # identical feedback, so no perceptual duplicate group remains
        assert summary.groups[Method.PERCEPTUAL] == ()

    def test_single_student_batch_empty_summary(self, sample_rows, codebook):
        report = evaluate_batch(sample_rows[:1], cb=codebook)
        summary = uniqueness_report(report)
        assert all(not groups for groups in summary.groups.values())

    def test_flagged_rows_excluded(self, sample_rows, codebook):
        bad = RawFeedback("99", {**sample_rows[0].words, TIME_TAKEN: "Tiny"})
        report = evaluate_batch(list(sample_rows) + [bad], cb=codebook)
        summary = uniqueness_report(report)
        for groups in summary.groups.values():
            for group in groups:
                assert "99" not in group.students
