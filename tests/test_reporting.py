import csv
import hashlib
import io
import itertools
import json
import math
import textwrap
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cwwkit import EvalOptions, FeedbackRecord, Method, evaluate_batch, uniqueness_report
from cwwkit.cli import EXIT_DATA, _exit_status
from cwwkit.reporting import (_UNIQUENESS_NOTE, render_csv, render_flags, render_json,
                              render_ranking, render_table, render_uniqueness)
from cwwkit.pipeline import (ALL_METHODS, LWA_MODES, DuplicateGroup, EvaluationReport,
                             MethodCell, ReportRow, rank_students)
from cwwkit.vocabulary import FEEDBACK_COLUMNS, TIME_TAKEN, RawFeedback
from strategies import feedback_batches


def _text(render, *args, **kwargs) -> str:
    """What a renderer writes, as one string."""
    out = io.StringIO()
    render(*args, out=out, **kwargs)
    return out.getvalue()


def test_table_is_deterministic(full_report):
    assert _text(render_table, full_report) == _text(render_table, full_report)


def test_table_contains_cells(full_report):
    text = _text(render_table, full_report)
    lines = text.splitlines()
    assert lines[0].startswith("student")
    assert len(lines) == 26
    row1 = lines[1].split()
    assert row1[0] == "1"
    assert "{0.25,0.5,0.75}" in row1
    assert "SSA" in row1


def test_table_verbose_full_precision(full_report):
    text = _text(render_table, full_report, verbose=True)
    # full-precision perceptual scores have more than two decimals
    assert "4.963" in text


def test_csv_parses_back(full_report):
    text = _text(render_csv, full_report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "student_id"
    assert rows[0][-1] == "error"
    assert len(rows) == 26
    header = rows[0]
    assert "perceptual_numeric" in header
    first = dict(zip(header, rows[1]))
    assert first["student_id"] == "1"
    assert first["two_tuple_numeric"] == "2"
    assert first["error"] == ""


def test_csv_flags_failed_rows(schema, sample_rows, codebook):
    words = dict(zip([param.name for param in schema.parameters], sample_rows[0].codes))
    bad = RawFeedback("99", {**words, TIME_TAKEN: "Tiny"})
    report = evaluate_batch(list(sample_rows) + [bad], cb=codebook)
    rows = list(csv.reader(io.StringIO(_text(render_csv, report))))
    last = dict(zip(rows[0], rows[-1]))
    assert last["student_id"] == "99"
    assert "Tiny" in last["error"]


def _printed_rows_report(full_report):
    """A valid row, a flagged row without codes, a flagged row with codes
    and a row whose perceptual cell failed."""
    valid = full_report.rows[0]
    failed = {**valid.cells,
              Method.PERCEPTUAL: MethodCell(error="FOU carries no membership mass on the grid")}
    rows = (valid,
            ReportRow("x7", None, {}, error="unknown word 'Tiny' for parameter "
                                            "'Time taken to solve the question'"),
            ReportRow("1", valid.codes, {}, error="duplicate student id '1', first used by row 1"),
            ReportRow("f", valid.codes, failed))
    return EvaluationReport(methods=full_report.methods, rows=rows)



def test_a_cell_holds_exactly_one_of_a_recommendation_and_an_error(full_report):
    recommendation = full_report.rows[0].cells[Method.SYMBOLIC].recommendation
    for args in ((), (None, None), (recommendation, "boom")):
        with pytest.raises(ValueError, match="exactly one"):
            MethodCell(*args)


def test_an_empty_error_still_flags_its_cell(full_report):
    # a cell without a recommendation failed, so an empty reason still flags it
    valid = full_report.rows[0]
    cells = {**valid.cells, Method.SYMBOLIC: MethodCell(error="")}
    report = EvaluationReport(methods=full_report.methods,
                              rows=(ReportRow("e", valid.codes, cells),))
    flags = io.StringIO()
    render_flags(report, flags)
    assert flags.getvalue() == "# e: symbolic: \n"
    assert _exit_status(report) == EXIT_DATA
    assert _text(render_table, report).splitlines()[1].split()[7:9] == ["!", "failed"]
    assert rank_students(report, Method.SYMBOLIC) == []
    assert uniqueness_report(report)[Method.SYMBOLIC] == ()


def test_a_row_with_two_failed_cells_gives_both_reasons_in_method_order(full_report):
    valid = full_report.rows[0]
    cells = {**valid.cells, Method.PERCEPTUAL: MethodCell(error="no mass"),
             Method.SYMBOLIC: MethodCell(error="bad index")}
    # the cells in reverse, so that only the report's method order can sort them
    row = ReportRow("t", valid.codes, dict(reversed(cells.items())))
    report = EvaluationReport(methods=full_report.methods, rows=(row,))
    assert row.reasons(report.methods) == ["symbolic: bad index", "perceptual: no mass"]
    assert _text(render_flags, report) == ("# t: symbolic: bad index\n"
                                           "# t: perceptual: no mass\n")
    assert _text(render_table, report).splitlines()[-2:] == [
        "# t: symbolic: bad index", "# t: perceptual: no mass"]
    rows = list(csv.DictReader(io.StringIO(_text(render_csv, report))))
    assert rows[0]["error"] == "symbolic: bad index; perceptual: no mass"
    assert _exit_status(report) == EXIT_DATA
    assert row.recommendation(Method.SYMBOLIC) is None
    assert row.recommendation(Method.TWO_TUPLE) is valid.cells[Method.TWO_TUPLE].recommendation


def test_a_table_row_without_one_code_per_parameter_fails(full_report):
    # a hand-built row with too few codes must not cut every line's columns short
    valid = full_report.rows[0]
    report = EvaluationReport(methods=full_report.methods,
                              rows=(valid, ReportRow("7", ("S",), valid.cells)))
    with pytest.raises(ValueError):
        render_table(report, io.StringIO())


# sha256 of each text format of `_printed_rows_report`, by (renderer, verbose)
PRINTED_ROWS_SHA256 = {
    (render_table, False): "efa092fcddb651b1332a181a35543cf1e095dae2064d974ec3892405537aab01",
    (render_table, True): "02ba6aa41b400f9b412637e60265b9d47699bf490b44eee00710626baa6cf2b8",
    (render_csv, False): "41c9421cae5f99193fc65558690cfdf3638006f092d809af4fef5a8539737556",
    (render_csv, True): "b4f3f4e5c958b45731d44d0632c90ad75355dcc188d26f9965691d8801db3dad",
}


@pytest.mark.parametrize("render, verbose", list(PRINTED_ROWS_SHA256))
def test_flagged_rows_and_failed_cells_print_as_pinned(full_report, render, verbose):
    text = _text(render, _printed_rows_report(full_report), verbose=verbose)
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTED_ROWS_SHA256[render, verbose]
    if render is render_csv and not verbose:
        assert text.splitlines()[1:] == [
            '1,S,SLA,AM,PM,"{0.25,0.5,0.75}",SSA,2,SSA,2,SSA,4.96,SSA,',
            "x7,,,,,,,,,,,,,unknown word 'Tiny' for parameter "
            "'Time taken to solve the question'",
            '1,S,SLA,AM,PM,,,,,,,,,"duplicate student id \'1\', first used by row 1"',
            'f,S,SLA,AM,PM,"{0.25,0.5,0.75}",SSA,2,SSA,2,SSA,,,'
            'perceptual: FOU carries no membership mass on the grid',
        ]
    if render is render_table:
        lines = text.splitlines()
        assert lines[2].split() == ["x7"] + ["?"] * 4 + ["!", "failed"] * 4
        assert lines[4].split()[-2:] == ["!", "failed"]
        assert lines[-1] == "# f: perceptual: FOU carries no membership mass on the grid"


def test_json_structure(full_report):
    data = json.loads(_text(render_json, full_report))
    assert data["metadata"]["students"] == 25
    assert len(data["rows"]) == 25
    row = data["rows"][0]
    assert row["student_id"] == "1"
    assert row["methods"]["symbolic"]["numeric"] == "2"
    assert row["methods"]["perceptual"]["word"] == "SSA"
    assert "centroid" in row["methods"]["perceptual"]
    assert "centroid_mean" not in row["methods"]["perceptual"]


def test_json_verbose_exposes_full_precision(full_report):
    data = json.loads(_text(render_json, full_report, verbose=True))
    cell = data["rows"][0]["methods"]["perceptual"]
    assert abs(cell["centroid_mean"] - 4.963515) < 1e-4
    assert len(cell["similarities"]) == 5


def test_json_with_uniqueness(full_report):
    summary = uniqueness_report(full_report)
    data = json.loads(_text(render_json, full_report, uniqueness=summary))
    assert "uniqueness" in data
    ep_groups = data["uniqueness"]["groups"]["extension_principle"]
    assert max(len(g["students"]) for g in ep_groups) == 17


def test_uniqueness_text(full_report):
    summary = uniqueness_report(full_report)
    text = _text(render_uniqueness, summary)
    assert "uniqueness summary" in text
    assert "Perceptual: all recommendations unique" in text
    assert "shared by 17 students" in text


def test_ranking_text(full_report):
    ranking = rank_students(full_report, Method.PERCEPTUAL)
    text = _text(render_ranking, ranking, Method.PERCEPTUAL)
    lines = text.splitlines()
    assert lines[0] == "ranking by Perceptual"
    assert lines[1].startswith("  1. student 3")


# The JSON document as `render_json` built it before it wrote the
# document itself: one payload dict per row, dumped by json.dumps.
def _row_payload_reference(row, methods, verbose):
    payload = {"student_id": row.student_id}
    payload["words"] = dict(zip(FEEDBACK_COLUMNS, row.codes)) if row.codes else None
    if row.error is not None:
        payload["error"] = row.error
        return payload
    method_payload = {}
    for method in methods:
        cell = row.cells[method]
        if cell.error is not None:
            method_payload[method.value] = {"error": cell.error}
            continue
        rec = cell.recommendation
        entry = {
            "numeric": rec.numeric_text,
            "word": rec.linguistic.code,
            "label": rec.linguistic.label,
        }
        if rec.centroid is not None:
            entry["centroid"] = [rec.centroid.c_l, rec.centroid.c_r]
            if verbose:
                entry["centroid_mean"] = rec.score
                entry["similarities"] = [float(s) for s in rec.similarities]
        if rec.two_tuple is not None:
            entry["two_tuple"] = [rec.two_tuple.term_index, rec.two_tuple.alpha]
        if rec.aggregate is not None:
            entry["aggregate"] = list(rec.aggregate.as_tuple())
        method_payload[method.value] = entry
    payload["methods"] = method_payload
    return payload


def _render_json_reference(report, verbose, uniqueness):
    document = {
        "metadata": dict(report.metadata),
        "rows": [_row_payload_reference(row, report.methods, verbose)
                 for row in report.rows],
    }
    if uniqueness is not None:
        document["uniqueness"] = {
            "note": _UNIQUENESS_NOTE,
            "groups": {
                method.value: [
                    {"numeric": grp.numeric, "word": grp.word,
                     "students": list(grp.students),
                     "distinct_feedback": grp.distinct_feedback}
                    for grp in groups
                ]
                for method, groups in uniqueness.items()
            },
        }
    return json.dumps(document, indent=2) + "\n"


# any text: non-ASCII, control characters, quotes and backslashes included
_TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8)


@st.composite
def _reports(draw, pool):
    """Reports built by hand from the bundled sample's cells, with drawn
    ids, words, errors and metadata. Rows share cell objects, as the rows
    of a batch do."""
    methods = tuple(draw(st.lists(st.sampled_from(ALL_METHODS), unique=True)))
    failed = [MethodCell(error=draw(_TEXT)) for _ in range(draw(st.integers(0, 2)))]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        codes = draw(st.none() | st.tuples(*[_TEXT] * len(FEEDBACK_COLUMNS)))
        if draw(st.booleans()):
            rows.append(ReportRow(draw(_TEXT), codes, {}, error=draw(_TEXT)))
            continue
        cells = {method: draw(st.sampled_from(pool[method] + failed))
                 for method in methods}
        rows.append(ReportRow(draw(_TEXT), codes, cells))
    metadata = draw(st.dictionaries(_TEXT, _JSON_VALUES, max_size=3))
    return EvaluationReport(methods=methods, rows=tuple(rows), metadata=metadata)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), verbose=st.booleans())
def test_json_equals_json_dumps_of_the_document(full_report, data, verbose):
    pool = {method: list({id(row.cells[method]): row.cells[method]
                          for row in full_report.rows}.values())
            for method in ALL_METHODS}
    report = data.draw(_reports(pool))
    summary = uniqueness_report(report)
    uniqueness = data.draw(st.sampled_from([None, {}, summary]))
    assert (_text(render_json, report, verbose=verbose, uniqueness=uniqueness)
            == _render_json_reference(report, verbose, uniqueness))


def _unshared(report):
    """`report` with each row's cells copied into a fresh dict, so that no
    two rows share an entry."""
    rows = tuple(ReportRow(row.student_id, row.codes, dict(row.cells), row.error)
                 for row in report.rows)
    return EvaluationReport(methods=report.methods, rows=rows, metadata=report.metadata)


def _uniqueness_reference(report):
    """`uniqueness_report` as it grouped rows before rows shared entries."""
    groups = {}
    for method in report.methods:
        buckets = {}
        for row in report.rows:
            if (rec := row.recommendation(method)) is not None:
                buckets.setdefault((rec.numeric_text, rec.linguistic.code), []).append(row)
        found = [DuplicateGroup(numeric, word, tuple(m.student_id for m in members),
                                len({m.codes for m in members}))
                 for (numeric, word), members in buckets.items()
                 if len({m.codes for m in members}) > 1]
        found.sort(key=lambda grp: (-len(grp.students), grp.numeric, grp.word))
        groups[method] = tuple(found)
    return groups


def _csv_reference(report, verbose):
    """`render_csv` as a csv writer writes it, one row at a time."""
    out = io.StringIO()
    # each line ended by "\r\n", so a field holding "\r" is quoted, then by "\n"
    writer = csv.writer(SimpleNamespace(write=lambda line: out.write(line[:-2] + "\n")),
                        lineterminator="\r\n")
    writer.writerow(["student_id", *FEEDBACK_COLUMNS,
                     *(f"{m.value}_{part}" for m in report.methods
                       for part in ("numeric", "word")), "error"])
    for row in report.rows:
        cells = [row.student_id, *(row.codes or ("",) * len(FEEDBACK_COLUMNS))]
        for method in report.methods:
            rec = row.recommendation(method)
            cells += (("", "") if rec is None else (
                repr(rec.score) if verbose and method is Method.PERCEPTUAL
                else rec.numeric_text, rec.linguistic.code))
        writer.writerow(cells + ["; ".join(row.reasons(report.methods))])
    return out.getvalue()


@settings(max_examples=80, deadline=None)
@given(batch=feedback_batches(), methods=st.lists(st.sampled_from(ALL_METHODS), min_size=1,
                                                 unique=True), verbose=st.booleans())
def test_shared_entries_do_not_show_in_the_output(codebook, batch, methods, verbose):
    report = evaluate_batch(batch, methods, cb=codebook)
    copy = _unshared(report)
    summary = uniqueness_report(report)
    assert summary == uniqueness_report(copy) == _uniqueness_reference(report)
    for shown in (report, copy):
        assert _text(render_csv, shown, verbose=verbose) == _csv_reference(report, verbose)
    for render, kwargs in ((render_table, {"verbose": verbose}), (render_flags, {}),
                           (render_json, {"verbose": verbose, "uniqueness": summary})):
        assert _text(render, report, **kwargs) == _text(render, copy, **kwargs)
    assert _exit_status(report) == _exit_status(copy)
    assert (_text(render_uniqueness, summary)
            == _text(render_uniqueness, uniqueness_report(copy)))


def test_json_rejects_what_json_dumps_rejects():
    value = {"tags": {1, 2}}
    with pytest.raises(TypeError) as expected:
        json.dumps(value)
    report = EvaluationReport(methods=(), rows=(), metadata=value)
    with pytest.raises(TypeError, match=f"^{expected.value}$"):
        _text(render_json, report)


@pytest.fixture(scope="module")
def every_vector_reports(codebook, schema):
    """The report of all 625 feedback vectors in each LWA mode."""
    vectors = itertools.product(*(param.terms for param in schema.parameters))
    records = [FeedbackRecord(str(i), choices) for i, choices in enumerate(vectors)]
    return {mode: evaluate_batch(records, cb=codebook, options=EvalOptions(lwa_mode=mode))
            for mode in LWA_MODES}


@pytest.mark.parametrize("lwa_mode", LWA_MODES)
def test_json_of_every_vector_equals_json_dumps(every_vector_reports, lwa_mode):
    report = every_vector_reports[lwa_mode]
    summary = uniqueness_report(report)
    for verbose in (False, True):
        for uniqueness in (None, summary):
            assert (_text(render_json, report, verbose=verbose, uniqueness=uniqueness)
                    == _render_json_reference(report, verbose, uniqueness))


class _Recorder:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# sha256 of each format for the 625-vector report in exact mode, as the
# renderers that returned one string wrote it
EVERY_VECTOR_SHA256 = {
    render_table: "6b873244eefda7d3de6232992f4960d6c535d5d63b53f3fcbf8d31e3c1efe83d",
    render_csv: "3bccef3b61b3e4ac17961c6f7b69f4b228e8efe36357d46925e6faac1f6deea4",
    render_json: "8100d0de3b707cf662280e9d16ac54a8b3432aa168b90e1362812ffbe7002652",
}


# Each row goes to the stream as soon as it is formatted, so no write is
# longer than one row's text: its line, or for JSON its object with the
# separator before it. A renderer that built the document first and wrote
# it once would write hundreds of times that.
@pytest.mark.parametrize("render", EVERY_VECTOR_SHA256, ids=lambda render: render.__name__)
def test_each_row_is_written_as_it_is_formatted(every_vector_reports, render):
    report = every_vector_reports["exact"]
    stream = _Recorder()
    render(report, stream)
    text = "".join(stream.writes)
    assert text == _text(render, report)
    assert hashlib.sha256(text.encode()).hexdigest() == EVERY_VECTOR_SHA256[render]
    if render is render_json:
        separator = "\n" + " " * 4 + "{"
        longest = max(len(row) for row in text.split(separator)) + len(separator)
    else:
        longest = max(len(line) for line in text.splitlines(keepends=True))
    assert max(len(write) for write in stream.writes) <= longest
    assert len(stream.writes) > len(report.rows)



# sha256 of `render_json` with the uniqueness block for the 625-vector
# report in exact mode, as the renderer that built the block whole wrote it
EVERY_VECTOR_UNIQUENESS_JSON_SHA256 = (
    "a3a5cf70499b6c16d418dded49380b2b26654b3d0124a786ea943ae41cdc3938")


# The uniqueness block goes out one duplicate group at a time, so no write
# is longer than one group's text with the separator before it.
def test_each_uniqueness_group_is_written_alone(every_vector_reports):
    report = every_vector_reports["exact"]
    summary = uniqueness_report(report)
    stream = _Recorder()
    render_json(report, stream, uniqueness=summary)
    text = "".join(stream.writes)
    assert text == _render_json_reference(report, False, summary)
    assert hashlib.sha256(text.encode()).hexdigest() == EVERY_VECTOR_UNIQUENESS_JSON_SHA256
    groups = [{"numeric": grp.numeric, "word": grp.word, "students": list(grp.students),
               "distinct_feedback": grp.distinct_feedback}
              for method_groups in summary.values() for grp in method_groups]
    longest = max(len(",\n" + textwrap.indent(json.dumps(group, indent=2), " " * 8))
                  for group in groups)
    assert max(len(write) for write in stream.writes) <= longest
    assert len(stream.writes) > len(report.rows) + len(groups)
