"""Render evaluation reports as a table, delimited text or JSON.

All formats are deterministic: fixed float formatting, stable ordering,
no timestamps, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import csv
import math
from types import SimpleNamespace
from typing import Mapping, TextIO

from .pipeline import DuplicateGroup, EvaluationReport, Method
from .vocabulary import FEEDBACK_COLUMNS

_METHOD_TITLES = {
    Method.EXTENSION_PRINCIPLE: "Extension principle",
    Method.SYMBOLIC: "Symbolic",
    Method.TWO_TUPLE: "2-tuple",
    Method.PERCEPTUAL: "Perceptual",
}

_UNIQUENESS_NOTE = (
    "groups are computed from the evaluated cells at reported precision; "
    "a group qualifies only if at least two members gave different feedback"
)


def _printed_id(student_id: str) -> str:
    """A student id as the line formats print it: its `repr` if it holds a
    line break or another unprintable character, so it keeps to its line."""
    return student_id if student_id.isprintable() else repr(student_id)


def _printed_cells(report: EvaluationReport, verbose: bool, unknown: str,
                   failed: tuple[str, str]):
    """Each entry and its printed cells after the student id: its four
    codes (`unknown` for each if it has none) and, for each method, the
    numeric text and the word (the full perceptual score under `verbose`),
    or `failed` for a flagged row or a failed cell."""
    no_codes = (unknown,) * len(FEEDBACK_COLUMNS)
    for entry in report.entries:
        cells = [*(entry.codes or no_codes)]
        for method in report.methods:
            rec = entry.recommendation(method)
            if rec is None:
                cells += failed
                continue
            numeric = (repr(rec.score) if verbose and method is Method.PERCEPTUAL
                       else rec.numeric_text)
            cells += (numeric, rec.linguistic.code)
        yield entry, cells


def render_table(report: EvaluationReport, out: TextIO, verbose: bool = False) -> None:
    """Fixed-width table: one row per student, two columns per method,
    then the `render_flags` lines; one write per line, each entry laid out once."""
    header = ["student"] + list(FEEDBACK_COLUMNS)
    for method in report.methods:
        title = _METHOD_TITLES[method]
        header += [f"{title} numeric", f"{title} word"]
    printed = {id(entry): cells for entry, cells
               in _printed_cells(report, verbose, "?", ("!", "failed"))}
    ids = [_printed_id(row.student_id) for row in report.rows]
    width = max(map(len, [header[0], *ids]))
    widths = [max(map(len, column)) for column in zip(header[1:], *printed.values(), strict=True)]
    tails = {key: "  ".join(map(str.ljust, cells, widths)) for key, cells in printed.items()}
    out.write("  ".join(map(str.ljust, header, [width, *widths])).rstrip() + "\n")
    for student_id, row in zip(ids, report.rows):
        out.write((student_id.ljust(width) + "  " + tails[id(row.entry)]).rstrip() + "\n")
    render_flags(report, out)


def render_flags(report: EvaluationReport, out: TextIO) -> None:
    """One `# <id>: <reason>` line per flagged row and one
    `# <id>: <method>: <reason>` line per failed cell, in method order."""
    reasons = {id(entry): entry.reasons(report.methods) for entry in report.entries}
    for row in report.rows:
        for reason in reasons[id(row.entry)]:
            out.write(f"# {_printed_id(row.student_id)}: {reason}\n")


def render_csv(report: EvaluationReport, out: TextIO, verbose: bool = False) -> None:
    """Delimited text with a header, the `render_flags` reasons joined by
    "; " in the `error` column; one write per row, each entry quoted once."""
    lines = []  # the writer writes each row in one call
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    header = ["student_id"] + list(FEEDBACK_COLUMNS)
    for method in report.methods:
        header += [f"{method.value}_numeric", f"{method.value}_word"]
    writer.writerow(header + ["error"])
    out.write(lines.pop())
    tails = {}  # id(entry) -> its line from the comma after the student id
    for entry, cells in _printed_cells(report, verbose, "", ("", "")):
        writer.writerow(["", *cells, "; ".join(entry.reasons(report.methods))])
        tails[id(entry)] = lines.pop()
    for row in report.rows:
        student_id = row.student_id
        if not student_id.isprintable() or "," in student_id or '"' in student_id:
            writer.writerow([student_id])  # quoted as the writer quotes it
            student_id = lines.pop()[:-1]
        out.write(student_id + tails[id(row.entry)])


# The C string encoder json.dumps uses, bound by `render_json`, which alone
# imports json; json.dumps(indent=2) itself runs CPython's pure-Python
# encoder, which formatted every shared cell again.
_json_str = None
# Keys and indents of the nested row objects, in json.dumps(indent=2) form.
_ROW_INDENT, _ROW_KEY, _METHOD_KEY = " " * 4, "\n" + " " * 6, "\n" + " " * 8


def _json(value, indent: str) -> str:
    """`json.dumps(value, indent=2)` for a value nested at `indent`."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = "\n" + indent + "  "
    if isinstance(value, dict):
        items = [_json_str(key) + ": " + _json(item, indent + "  ")
                 for key, item in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = [_json(item, indent + "  ") for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + "\n" + indent + closing


def _cell_entry(cell, verbose: bool) -> dict:
    if cell.error is not None:
        return {"error": cell.error}
    rec = cell.recommendation
    entry: dict[str, object] = {
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
    return entry


def _write_json_rows(report: EvaluationReport, out: TextIO, verbose: bool) -> None:
    """The report's "rows" list, one write per row. Rows that repeat a
    feedback vector or an index multiset share cell objects, so each cell's
    entry is formatted once and spliced into every row that holds it."""
    keys = [(method, _METHOD_KEY + _json_str(method.value) + ": ")
            for method in report.methods]
    entries: dict[int, str] = {}  # id(cell) -> entry; the report keeps cells alive
    opening = "[\n" + _ROW_INDENT
    for row in report.rows:
        words = dict(zip(FEEDBACK_COLUMNS, row.codes)) if row.codes else None
        text = (opening + "{" + _ROW_KEY + '"student_id": ' + _json_str(row.student_id) + ","
                + _ROW_KEY + '"words": ' + _json(words, _ROW_INDENT + "  ") + ",")
        if row.error is not None:
            text += _ROW_KEY + '"error": ' + _json_str(row.error)
        elif not keys:
            text += _ROW_KEY + '"methods": {}'
        else:
            parts = []
            for method, key in keys:
                cell = row.cells[method]
                entry = entries.get(id(cell))
                if entry is None:
                    entry = entries[id(cell)] = _json(_cell_entry(cell, verbose), " " * 8)
                parts.append(key + entry)
            text += _ROW_KEY + '"methods": {' + ",".join(parts) + _ROW_KEY + "}"
        out.write(text + "\n" + _ROW_INDENT + "}")
        opening = ",\n" + _ROW_INDENT
    out.write("\n  ]" if report.rows else "[]")


def _write_json_uniqueness(uniqueness: Mapping[Method, tuple[DuplicateGroup, ...]],
                           out: TextIO) -> None:
    """The document's "uniqueness" block: its head, then one write per
    method's key and per duplicate group."""
    out.write(',\n  "uniqueness": {\n    "note": ' + _json_str(_UNIQUENESS_NOTE)
              + ',\n    "groups": {' + ("" if uniqueness else "}"))
    opening = "\n      "
    for method, groups in uniqueness.items():
        out.write(opening + _json_str(method.value) + ": " + ("[" if groups else "[]"))
        separator = "\n        "
        for grp in groups:
            out.write(separator + _json({
                "numeric": grp.numeric,
                "word": grp.word,
                "students": list(grp.students),
                "distinct_feedback": grp.distinct_feedback,
            }, " " * 8))
            separator = ",\n        "
        if groups:
            out.write("\n      ]")
        opening = ",\n      "
    out.write("\n    }\n  }" if uniqueness else "\n  }")


def render_json(report: EvaluationReport, out: TextIO, verbose: bool = False,
                uniqueness: Mapping[Method, tuple[DuplicateGroup, ...]] | None = None) -> None:
    """Write the report as a JSON document, byte for byte what
    `json.dumps(document, indent=2)` writes, newline-terminated: the head,
    one write per row, then the uniqueness block one group at a time and
    the closing brace."""
    global _json_str
    import json  # here, so that the table and CSV formats do not load it

    _json_str = json.encoder.encode_basestring_ascii
    out.write('{\n  "metadata": ' + _json(dict(report.metadata), "  ") + ',\n  "rows": ')
    _write_json_rows(report, out, verbose)
    if uniqueness is not None:
        _write_json_uniqueness(uniqueness, out)
    out.write("\n}\n")


def render_uniqueness(uniqueness: Mapping[Method, tuple[DuplicateGroup, ...]],
                      out: TextIO) -> None:
    out.write("uniqueness summary\n")
    out.write(f"note: {_UNIQUENESS_NOTE}\n")
    for method, groups in uniqueness.items():
        title = _METHOD_TITLES[method]
        if not groups:
            out.write(f"{title}: all recommendations unique\n")
            continue
        out.write(f"{title}: {len(groups)} duplicate group(s)\n")
        for grp in groups:
            students = ", ".join(map(_printed_id, grp.students))
            out.write(
                f"  ({grp.numeric}, {grp.word}) shared by {len(grp.students)} students "
                f"[{students}] ({grp.distinct_feedback} distinct feedback vectors)\n"
            )


def render_ranking(ranking, method: Method, out: TextIO) -> None:
    title = _METHOD_TITLES[Method(method)]
    out.write(f"ranking by {title}\n")
    for position, (student_id, score) in enumerate(ranking, start=1):
        out.write(f"{position:3d}. student {_printed_id(student_id):8s} score {score:.4f}\n")
