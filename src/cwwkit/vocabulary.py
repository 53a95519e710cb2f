"""Linguistic vocabulary: parameters, term sets and feedback records.

The default schema covers the four assessment parameters (time taken,
subject knowledge, liking, perceived preparation) plus the recommendation
set, each with five ordered terms. All values are immutable after
construction and safe to share across concurrent evaluations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping

from .errors import SchemaError, WordResolutionError

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


@dataclass(frozen=True)
class LinguisticTerm:
    """One word of a term set, e.g. label 'Small' with code 'S' at index 1."""

    label: str
    code: str
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"term index must be >= 0, got {self.index}")
        # hashed once: every batch row looks its terms up in the memo
        object.__setattr__(self, "_hash", hash((self.label, self.code, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: a string's hash differs between processes
        return LinguisticTerm, (self.label, self.code, self.index)


@dataclass(frozen=True)
class TermSet:
    """Ordered vocabulary for one parameter; indices run 0..g without gaps."""

    name: str
    terms: tuple[LinguisticTerm, ...]

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError(f"term set {self.name!r} needs at least 2 terms")
        for position, term in enumerate(self.terms):
            if term.index != position:
                raise ValueError(
                    f"term set {self.name!r}: term {term.code!r} has index "
                    f"{term.index}, expected {position}"
                )
        labels = [t.label.lower() for t in self.terms]
        codes = [t.code.lower() for t in self.terms]
        if len(set(labels)) != len(labels) or len(set(codes)) != len(codes):
            raise ValueError(f"term set {self.name!r} has duplicate labels or codes")

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
        term = self._by_word.get(word.strip().lower())
        if term is None:
            raise WordResolutionError(self.name, word)
        return term


@dataclass(frozen=True)
class ParameterSchema:
    """The evaluated parameters plus the recommendation term set."""

    parameters: tuple[TermSet, ...]
    recommendation: TermSet

    def __post_init__(self):
        names = [p.name.lower() for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")

    @cached_property
    def term_sets(self) -> tuple[TermSet, ...]:
        """The parameters followed by the recommendation set."""
        return self.parameters + (self.recommendation,)

    @cached_property
    def parameters_by_name(self) -> Mapping[str, TermSet]:
        """Lower-cased parameter name -> term set, in parameter order."""
        return {p.name.lower(): p for p in self.parameters}

    def term_set(self, name: str) -> TermSet:
        """The parameter or recommendation term set called `name`,
        case-insensitively."""
        needle = name.lower()
        ts = self.parameters_by_name.get(needle)
        if ts is None and self.recommendation.name.lower() == needle:
            ts = self.recommendation
        if ts is None:
            raise SchemaError(f"unknown parameter {name!r}")
        return ts


@dataclass(frozen=True)
class RawFeedback:
    """Unresolved feedback: one word of free text per parameter name."""

    student_id: str
    words: Mapping[str, str]


@dataclass(frozen=True)
class FeedbackRecord:
    """Feedback resolved against a schema: one term per parameter, in order."""

    student_id: str
    choices: tuple[LinguisticTerm, ...]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.choices)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(c.code for c in self.choices)


def build_default_schema() -> ParameterSchema:
    """Return the built-in five-term vocabulary for all five term sets."""

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

    Raises SchemaError for missing or unknown parameter names and
    WordResolutionError for words not present in the term set.
    """
    known = schema.parameters_by_name
    extra = [k for k in raw if k.lower() not in known]
    if extra:
        raise SchemaError(f"unknown parameters in feedback: {sorted(extra)}")
    lowered = {k.lower(): v for k, v in raw.items()}
    choices = []
    for name, param in known.items():
        if name not in lowered:
            raise SchemaError(f"feedback is missing parameter {param.name!r}")
        choices.append(param.find(lowered[name]))
    return FeedbackRecord(student_id=student_id, choices=tuple(choices))


def read_feedback_file(path) -> list[RawFeedback]:
    """Read a feedback batch file (see FEEDBACK_HEADER for the layout).

    Word resolution is deferred so that a bad word in one row does not
    abort a batch; pair with pipeline.evaluate_batch for per-row errors.
    """
    schema = build_default_schema()
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty feedback file") from None
        if tuple(header) != FEEDBACK_HEADER:
            raise SchemaError(
                f"{path}: expected header {','.join(FEEDBACK_HEADER)}, "
                f"got {','.join(header)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(FEEDBACK_HEADER):
                raise SchemaError(f"{path}:{lineno}: expected {len(FEEDBACK_HEADER)} cells")
            words = {
                schema.parameters[i].name: row[i + 1].strip()
                for i in range(len(FEEDBACK_COLUMNS))
            }
            rows.append(RawFeedback(student_id=row[0].strip(), words=words))
    return rows

