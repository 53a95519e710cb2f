"""Linguistic vocabulary: parameters, term sets and feedback records.

The one schema, `build_default_schema()`, covers the four assessment
parameters (time taken, subject knowledge, liking, perceived preparation)
plus the recommendation set, each with five ordered terms. Its invariants
(indices 0..g, unique words and names) are tested, not checked by the
constructors; a `FeedbackRecord` is checked against it when it is built.
All values are immutable after construction and safe to share across
concurrent evaluations.
"""

from __future__ import annotations

import csv
from enum import Enum
from functools import cache, cached_property
from typing import Iterator, Mapping, TextIO

from ._value import Value, set_field
from .errors import CwwError, SchemaError, WordResolutionError

TIME_TAKEN = "Time taken to solve the question"
SUBJECT_KNOWLEDGE = "Subject's Knowledge"
LIKING = "Liking towards Subject"
PREPARATION = "Perceived preparation level"
RECOMMENDATION = "Strategy of student"

# Column layout of a feedback batch file, aligned with the parameter order.
FEEDBACK_COLUMNS = ("time_taken", "subject_knowledge", "liking", "preparation")
FEEDBACK_HEADER = ("student_id",) + FEEDBACK_COLUMNS


class Method(str, Enum):
    """The four evaluation methods the engine implements."""

    EXTENSION_PRINCIPLE = "extension_principle"
    SYMBOLIC = "symbolic"
    TWO_TUPLE = "two_tuple"
    PERCEPTUAL = "perceptual"


class LinguisticTerm(Value):
    """One word of a term set, e.g. label 'Small' with code 'S' at index 1."""

    _fields = ("label", "code", "index")

    def __init__(self, label: str, code: str, index: int):
        if index < 0:
            raise ValueError(f"term index must be >= 0, got {index}")
        set_field(self, "label", label)
        set_field(self, "code", code)
        set_field(self, "index", index)


class TermSet(Value):
    """Ordered vocabulary for one parameter; indices run 0..g without gaps."""

    _fields = ("name", "terms")

    def __init__(self, name: str, terms: tuple[LinguisticTerm, ...]):
        set_field(self, "name", name)
        set_field(self, "terms", terms)

    @property
    def g(self) -> int:
        """Largest term index; cardinality is g + 1."""
        return len(self.terms) - 1

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[LinguisticTerm]:
        return iter(self.terms)

    def __getitem__(self, index: int) -> LinguisticTerm:
        return self.terms[index]

    @cached_property
    def _by_word(self) -> dict[str, LinguisticTerm]:
        """Folded label and code -> term. A label may equal another term's
        code; the term with the lower index wins."""
        words: dict[str, LinguisticTerm] = {}
        for term in self.terms:
            words.setdefault(term.label.lower(), term)
            words.setdefault(term.code.lower(), term)
        return words

    def find(self, word: str) -> LinguisticTerm:
        """Resolve a word against label or code, case-insensitively."""
        try:
            return self._by_word[word.strip().lower()]
        except (AttributeError, KeyError):
            raise WordResolutionError(self.name, word) from None


class ParameterSchema(Value):
    """The evaluated parameters plus the recommendation term set."""

    _fields = ("parameters", "recommendation")

    def __init__(self, parameters: tuple[TermSet, ...], recommendation: TermSet):
        set_field(self, "parameters", parameters)
        set_field(self, "recommendation", recommendation)

    @cached_property
    def term_sets(self) -> tuple[TermSet, ...]:
        """The parameters followed by the recommendation set."""
        return self.parameters + (self.recommendation,)

    @cached_property
    def _by_name(self) -> dict[str, TermSet]:
        """Lower-cased name -> term set; a parameter wins a name clash."""
        return {ts.name.lower(): ts for ts in reversed(self.term_sets)}

    def term_set(self, name: str) -> TermSet:
        """The parameter or recommendation term set called `name`,
        case-insensitively; SchemaError for any other name, or one that is
        not text."""
        try:
            return self._by_name[name.lower()]
        except (AttributeError, KeyError):
            raise SchemaError(f"unknown parameter {name!r}") from None


class RawFeedback(Value):
    """Unresolved feedback under a text student id: one free-text word per parameter name."""

    _fields = ("student_id", "words")

    def __init__(self, student_id: str, words: Mapping[str, str]):
        if not isinstance(student_id, str):
            raise SchemaError(f"student id {student_id!r} is not text")
        set_field(self, "student_id", student_id)
        set_field(self, "words", words)


class FeedbackRecord(Value):
    """Feedback resolved against the default schema: one term of each
    parameter, in order, under a text student id. Other choices or ids
    raise SchemaError when the record is built, so every record can be
    scored and reported; equal copies of the schema's terms are accepted.
    `indices`, the term index of each choice, is stored with the record."""

    _fields = ("student_id", "choices")

    def __init__(self, student_id: str, choices: tuple[LinguisticTerm, ...]):
        if not isinstance(student_id, str):
            raise SchemaError(f"student id {student_id!r} is not text")
        # One comparison: tuples compare items by identity before `==`, so
        # a record of the schema's own terms runs no `Value.__eq__`.
        try:
            on_schema = tuple(choices) == tuple([
                ts.terms[term.index] for ts, term in zip(
                    build_default_schema().parameters, choices, strict=True)])
        except (AttributeError, IndexError, TypeError, ValueError):
            on_schema = False  # not terms, not one per parameter, or no tuple
        if not on_schema:
            raise SchemaError(f"feedback {choices!r} is not one word of each parameter")
        set_field(self, "student_id", student_id)
        set_field(self, "choices", choices)
        set_field(self, "indices", tuple([c.index for c in choices]))

    @classmethod
    def _resolved(cls, student_id: str, choices: tuple[LinguisticTerm, ...],
                  indices: tuple[int, ...]) -> FeedbackRecord:
        """A record of a text id and the schema's own terms, one per parameter
        by construction (`read_feedback_file`'s), so the check is skipped."""
        record = cls.__new__(cls)
        set_field(record, "student_id", student_id)
        set_field(record, "choices", choices)
        set_field(record, "indices", indices)
        return record

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(c.code for c in self.choices)


@cache
def build_default_schema() -> ParameterSchema:
    """Return the built-in five-term vocabulary for all five term sets.

    Built once per process: the schema is immutable, so every reader,
    codebook and batch shares it, and with it the word lookup tables the
    first of them builds.
    """

    def term_set(name, words):
        terms = tuple(
            LinguisticTerm(label, code, i) for i, (label, code) in enumerate(words)
        )
        return TermSet(name, terms)

    return ParameterSchema(
        parameters=(
            term_set(TIME_TAKEN, [
                ("Very little", "VL"),
                ("Small", "S"),
                ("Moderate", "M"),
                ("Large", "L"),
                ("Very Large", "VLA"),
            ]),
            term_set(SUBJECT_KNOWLEDGE, [
                ("Very Limited", "SVL"),
                ("Limited", "SL"),
                ("Moderate", "SM"),
                ("Large", "SLA"),
                ("Very Large", "SVLA"),
            ]),
            term_set(LIKING, [
                ("Very Less", "AVL"),
                ("Less", "AL"),
                ("Moderate", "AM"),
                ("High", "AH"),
                ("Very High", "AVH"),
            ]),
            term_set(PREPARATION, [
                ("Very Less", "PVL"),
                ("Less", "PL"),
                ("Moderate", "PM"),
                ("High", "PH"),
                ("Very High", "PVH"),
            ]),
        ),
        recommendation=term_set(RECOMMENDATION, [
            ("Not Good", "SSNG"),
            ("Below Average", "SSBA"),
            ("Average", "SSA"),
            ("Good", "SSG"),
            ("Very Good", "SSVG"),
        ]),
    )


def resolve_feedback(
    schema: ParameterSchema,
    raw: Mapping[str, str],
    student_id: str = "",
) -> FeedbackRecord:
    """Resolve one word per parameter, matching labels or codes.

    `schema` is the one default schema, `build_default_schema()`. Raises
    SchemaError for a `raw` that is not a mapping, a missing parameter or an
    unknown (or non-text) name, and WordResolutionError for an unknown word.
    """
    if not isinstance(raw, Mapping):
        raise SchemaError(f"feedback {raw!r} is not a mapping of parameter names to words")
    known = {param.name.lower(): param for param in schema.parameters}
    extra = [k for k in raw if not isinstance(k, str) or k.lower() not in known]
    if extra:
        raise SchemaError(f"unknown parameters in feedback: {sorted(extra, key=str)}")
    lowered = {k.lower(): v for k, v in raw.items()}
    if len(lowered) < len(raw):
        raise SchemaError(f"feedback names a parameter more than once: {sorted(raw)}")
    for name, param in known.items():
        if name not in lowered:
            raise SchemaError(f"feedback is missing parameter {param.name!r}")
    return FeedbackRecord(student_id, tuple([
        param.find(lowered[name]) for name, param in known.items()]))


def read_csv(handle: TextIO, source, header: tuple[str, ...],
             error: type[CwwError]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank records after `header`, as (line the record starts on,
    cells). A missing header, a record without one cell per header column,
    malformed CSV and undecodable bytes raise `error`, naming `source`."""
    reader = csv.reader(handle)
    try:
        first = next(reader, None)
        if first is None:
            raise error(f"{source}: empty file")
        if tuple(first) != header:
            raise error(f"{source}: expected header {','.join(header)}, "
                        f"got {','.join(first)}")
        line = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise error(f"{source}:{line}: expected {len(header)} cells, "
                                f"got {len(row)}")
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise error(f"{source}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{source}: {exc}") from None


def read_feedback_file(path) -> list[FeedbackRecord | RawFeedback]:
    """Read a feedback batch file (see FEEDBACK_HEADER for the layout).

    Each row is resolved as it is read, into a FeedbackRecord of the
    schema's own terms. A row with a word that does not resolve is kept
    as RawFeedback of its stripped words, so that it fails alone: pair
    with pipeline.evaluate_batch for per-row errors. A file without
    records raises SchemaError naming the file.
    """
    parameters = build_default_schema().parameters
    # indices -> (choices, indices): the rows that repeat a vector share both
    vectors: dict[tuple[int, ...], tuple[tuple[LinguisticTerm, ...], tuple[int, ...]]] = {}
    rows: list[FeedbackRecord | RawFeedback] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        for _, row in read_csv(handle, path, FEEDBACK_HEADER, SchemaError):
            student_id, cells = row[0].strip(), row[1:]
            try:
                choices = tuple([param.find(cell) for param, cell in zip(parameters, cells)])
            except WordResolutionError:
                rows.append(RawFeedback(student_id, {
                    param.name: cell.strip() for param, cell in zip(parameters, cells)}))
                continue
            indices = tuple([term.index for term in choices])
            rows.append(FeedbackRecord._resolved(
                student_id, *vectors.setdefault(indices, (choices, indices))))
    if not rows:
        raise SchemaError(f"{path}: no feedback rows")
    return rows
