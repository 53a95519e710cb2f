"""Per-student evaluation across the four methods, ranking and uniqueness.

Students are independent work units; all shared inputs (schema, codebook,
grid) are immutable, and report rows preserve input order. The codebook
holds the word-level data every student shares; a batch evaluates each
distinct feedback vector once with the perceptual method and each
multiset of term indices once with the others.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Sequence

from . import extension, symbolic, two_tuple
from ._value import Value, set_field
from .codebook import Codebook
from .errors import ConfigurationError, CwwError
from .extension import TriTuple
from .it2 import (DEFAULT_GRID, DOMAIN_MAX, DOMAIN_MIN, CentroidInterval,
                  DiscretizationGrid, centroid, jaccard_similarities, lwa_exact,
                  lwa_paper, sample_fou)
# Not called here, but kept importable from this module: the benchmark's
# tracer (benchmarks/tracing.py) wraps it under this name.
from .it2 import jaccard_similarity  # noqa: F401
from .two_tuple import TwoTuple
from .vocabulary import (FeedbackRecord, LinguisticTerm, Method, RawFeedback,
                         build_default_schema, resolve_feedback)

ALL_METHODS = tuple(Method)

# Aggregation modes for the perceptual method. "exact" (alpha-cut average,
# minimum lower height) is the default: its centroid lands within 0.05 of
# the shipped reference centroids (all but two of the published scores),
# which are means of the input words' stored centroids. "paper"
# (parameter-wise average) matches the reference aggregate tables
# parameter for parameter.
LWA_MODES = ("exact", "paper")


class EvalOptions(Value):
    """Tunable evaluation settings; defaults reproduce the reference setup."""

    _fields = ("grid", "lwa_mode")

    def __init__(self, grid: DiscretizationGrid = DEFAULT_GRID, lwa_mode: str = "exact"):
        if not isinstance(grid, DiscretizationGrid):
            raise ConfigurationError(f"grid must be a DiscretizationGrid, got {grid!r}")
        if lwa_mode not in LWA_MODES:
            raise ConfigurationError(
                f"lwa_mode must be one of {LWA_MODES}, got {lwa_mode!r}"
            )
        set_field(self, "grid", grid)
        set_field(self, "lwa_mode", lwa_mode)


DEFAULT_OPTIONS = EvalOptions()


class Recommendation(Value):
    """Per-method evaluation outcome: a numeric payload, its score and a word.

    The numeric payload is method specific: the matched triangular tuple
    for the extension principle, an integer index for the symbolic method,
    the aggregated mean for the 2-tuple method and the centroid mean
    rounded to two decimals for perceptual computing. `score` is the
    full-precision number students are ranked by (the middle of the
    matched tuple, the index, the mean, the unrounded centroid mean).
    The remaining fields are intermediates, each set only by its method;
    `similarities` has one per recommendation word.
    """

    _fields = ("method", "numeric", "linguistic", "score",
               "aggregate", "two_tuple", "centroid", "similarities")

    def __init__(self, method: Method, numeric: object, linguistic: LinguisticTerm,
                 score: float, aggregate: TriTuple | None = None,
                 two_tuple: TwoTuple | None = None, centroid: CentroidInterval | None = None,
                 similarities: tuple[float, ...] | None = None):
        set_field(self, "method", method)
        set_field(self, "numeric", numeric)
        set_field(self, "linguistic", linguistic)
        set_field(self, "score", score)
        set_field(self, "aggregate", aggregate)
        set_field(self, "two_tuple", two_tuple)
        set_field(self, "centroid", centroid)
        set_field(self, "similarities", similarities)

    @cached_property
    def numeric_text(self) -> str:
        """The numeric payload at the precision the report prints it,
        formatted once: rows that repeat a feedback vector share the
        recommendation, and every report prints it."""
        if self.method is Method.EXTENSION_PRINCIPLE:
            return "{%s}" % ",".join(format(v, "g") for v in self.numeric.as_tuple())
        if self.method is Method.PERCEPTUAL:
            return format(self.score, ".2f")
        return format(self.numeric, "g")


class MethodCell(Value):
    """One report cell: either a recommendation or the reason it failed."""

    _fields = ("recommendation", "error")

    def __init__(self, recommendation: Recommendation | None = None,
                 error: str | None = None):
        if (recommendation is None) == (error is None):
            raise ValueError("a cell holds exactly one of a recommendation and an error")
        set_field(self, "recommendation", recommendation)
        set_field(self, "error", error)


class ReportEntry(Value):
    """What the rows of one feedback vector share: the codes, the cells,
    whose recommendations hold their printed texts, and a flagged row's
    error. `evaluate_batch` builds one per distinct vector and flagged row."""

    _fields = ("codes", "cells", "error")

    def __init__(self, codes: tuple[str, ...] | None,
                 cells: Mapping[Method, MethodCell], error: str | None = None):
        set_field(self, "codes", codes)
        set_field(self, "cells", cells)
        set_field(self, "error", error)

    def recommendation(self, method: Method) -> Recommendation | None:
        """`method`'s recommendation; None if the row is flagged or the cell failed."""
        return None if self.error is not None else self.cells[method].recommendation

    def reasons(self, methods: Sequence[Method]) -> list[str]:
        """`[error]` for a flagged row, else one `"<method>: <error>"` per
        failed cell, in `methods` order."""
        if self.error is not None:
            return [self.error]
        return [f"{m.value}: {self.cells[m].error}" for m in methods
                if self.cells[m].recommendation is None]


class ReportRow(Value):
    """A student id and the entry of its feedback vector, which the rows
    that repeat the vector share; `ReportRow(...)` builds an entry of its own."""

    _fields = ("student_id", "codes", "cells", "error")

    def __init__(self, student_id: str, codes: tuple[str, ...] | None,
                 cells: Mapping[Method, MethodCell] | None = None,
                 error: str | None = None):
        set_field(self, "student_id", student_id)
        set_field(self, "entry", ReportEntry(codes, {} if cells is None else cells, error))

    @classmethod
    def _sharing(cls, student_id: str, entry: ReportEntry) -> ReportRow:
        row = cls.__new__(cls)
        set_field(row, "student_id", student_id)
        set_field(row, "entry", entry)
        return row

    codes = property(lambda self: self.entry.codes)
    cells = property(lambda self: self.entry.cells)
    error = property(lambda self: self.entry.error)
    recommendation = ReportEntry.recommendation
    reasons = ReportEntry.reasons


class EvaluationReport(Value):
    _fields = ("methods", "rows", "metadata")

    def __init__(self, methods: tuple[Method, ...], rows: tuple[ReportRow, ...],
                 metadata: Mapping[str, object] | None = None):
        set_field(self, "methods", methods)
        set_field(self, "rows", rows)
        set_field(self, "metadata", {} if metadata is None else metadata)

    @cached_property
    def entries(self) -> tuple[ReportEntry, ...]:
        """Each distinct entry, in the order of their first rows: the stages
        after the batch read each once."""
        return tuple({id(row.entry): row.entry for row in self.rows}.values())


def _evaluate_extension(fb: FeedbackRecord, cb: Codebook | None,
                        options: EvalOptions) -> Recommendation:
    recommendation = build_default_schema().recommendation
    terms = extension.uniform_triangular_partition(len(recommendation))
    aggregate = extension.aggregate_tri_tuples([terms[i] for i in fb.indices])
    index, _ = extension.linguistic_approximation(aggregate, terms)
    return Recommendation(
        method=Method.EXTENSION_PRINCIPLE,
        numeric=terms[index],
        linguistic=recommendation[index],
        score=float(terms[index].m),
        aggregate=aggregate,
    )


def _evaluate_symbolic(fb: FeedbackRecord, cb: Codebook | None,
                       options: EvalOptions) -> Recommendation:
    recommendation = build_default_schema().recommendation
    index = symbolic.sm_aggregate(fb.indices, recommendation.g)
    return Recommendation(
        method=Method.SYMBOLIC,
        numeric=index,
        linguistic=recommendation[index],
        score=float(index),
    )


def _evaluate_two_tuple(fb: FeedbackRecord, cb: Codebook | None,
                        options: EvalOptions) -> Recommendation:
    recommendation = build_default_schema().recommendation
    beta = two_tuple.aggregate_beta(fb.indices)
    pair = two_tuple.to_two_tuple(beta, recommendation.g)
    return Recommendation(
        method=Method.TWO_TUPLE,
        numeric=beta,
        linguistic=recommendation[pair.term_index],
        score=float(beta),
        two_tuple=pair,
    )


def _evaluate_perceptual(fb: FeedbackRecord, cb: Codebook | None,
                         options: EvalOptions) -> Recommendation:
    if cb is None:
        raise ConfigurationError("the perceptual method needs a loaded codebook")
    fous = [words[i] for words, i in zip(cb.parameter_fous, fb.indices)]
    grid = options.grid
    if options.lwa_mode == "paper":
        # sampled once: the centroid and the decode read the same arrays
        aggregate = sample_fou(lwa_paper(fous), grid)
    else:
        aggregate = lwa_exact(fous, grid=grid)
    interval = centroid(aggregate, grid)
    similarities = tuple(jaccard_similarities(
        aggregate.upper, aggregate.lower, *cb.recommendation_samples(grid)).tolist())
    index = similarities.index(max(similarities))  # the lowest index on ties
    score = interval.mean
    return Recommendation(
        method=Method.PERCEPTUAL,
        numeric=round(score, 2),
        linguistic=build_default_schema().recommendation[index],
        score=score,
        centroid=interval,
        similarities=similarities,
    )


_EVALUATORS = {
    Method.EXTENSION_PRINCIPLE: _evaluate_extension,
    Method.SYMBOLIC: _evaluate_symbolic,
    Method.TWO_TUPLE: _evaluate_two_tuple,
    Method.PERCEPTUAL: _evaluate_perceptual,
}


def evaluate_student(
    fb: FeedbackRecord,
    method: Method,
    cb: Codebook | None = None,
    options: EvalOptions = DEFAULT_OPTIONS,
) -> Recommendation:
    """Evaluate one resolved feedback record with one method.

    The perceptual method needs `cb`; the word-level data it reads is
    built by the codebook on first use and shared by every later call.
    """
    return _EVALUATORS[Method(method)](fb, cb, options)


def evaluate_batch(
    feedback: Sequence[RawFeedback | FeedbackRecord],
    methods: Sequence[Method] = ALL_METHODS,
    cb: Codebook | None = None,
    options: EvalOptions = DEFAULT_OPTIONS,
) -> EvaluationReport:
    """Evaluate a batch; per-row failures are recorded, not raised.

    Rows may be resolved records or raw (unresolved) feedback, as
    `read_feedback_file` returns them. A row is flagged for one of two
    causes: a raw word that fails to resolve, or a student id already
    used by an earlier row (rows count from 1 in input order). A record
    holds one schema word per parameter by construction. Configuration
    problems such as requesting the perceptual method without a codebook
    abort the whole batch.

    Each distinct feedback vector is evaluated once per method, and the
    extension, symbolic and 2-tuple methods once per multiset of term
    indices; rows that share a vector or multiset share the resulting
    cells, failed ones included, and rows that share a vector share one
    `ReportEntry`.
    """
    if not feedback:
        raise ValueError("cannot evaluate an empty batch")
    methods = tuple(Method(m) for m in methods)
    if not methods:
        raise ConfigurationError("no methods selected")
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise ConfigurationError(f"method {method.value!r} is given twice")
    if Method.PERCEPTUAL in methods and cb is None:
        raise ConfigurationError("the perceptual method needs a loaded codebook")
    schema = build_default_schema()

    # Every method reads only term indices, so a row's cells depend only
    # on its index vector. The index methods average with equal weights,
    # so theirs depend only on the multiset of indices; a perceptual cell
    # needs the vector, since each parameter has its own words.
    memo: dict[tuple[int, ...], ReportEntry] = {}
    by_multiset: dict[tuple[Method, tuple[int, ...]], MethodCell] = {}
    first_rows: dict[str, int] = {}
    rows = []
    for position, record in enumerate(feedback, start=1):
        student_id, row_error = record.student_id, None
        if not isinstance(record, FeedbackRecord):
            try:
                record = resolve_feedback(schema, record.words, student_id)
            except CwwError as exc:
                record, row_error = None, str(exc)
        first = first_rows.setdefault(student_id, position)
        if first != position:
            row_error = f"duplicate student id {student_id!r}, first used by row {first}"
        if row_error is not None:
            entry = ReportEntry(record.codes if record is not None else None, {}, row_error)
        elif (entry := memo.get(record.indices)) is None:
            evaluated = {}
            multiset = tuple(sorted(record.indices))
            for method in methods:
                if method is Method.PERCEPTUAL:
                    cell = _cell(record, method, cb, options)
                else:
                    cell = by_multiset.get((method, multiset))
                    if cell is None:
                        cell = by_multiset[method, multiset] = _cell(
                            record, method, cb, options)
                evaluated[method] = cell
            # read-only, since every row with this vector shares the entry
            entry = memo[record.indices] = ReportEntry(record.codes,
                                                       MappingProxyType(evaluated))
        rows.append(ReportRow._sharing(student_id, entry))

    metadata = {
        "methods": [m.value for m in methods],
        "grid": {"domain_min": DOMAIN_MIN, "domain_max": DOMAIN_MAX,
                 "sample_count": options.grid.sample_count},
        "lwa_mode": options.lwa_mode,
        "students": len(rows),
    }
    return EvaluationReport(methods=methods, rows=tuple(rows), metadata=metadata)


def _cell(record: FeedbackRecord, method: Method, cb: Codebook | None,
          options: EvalOptions) -> MethodCell:
    try:
        return MethodCell(recommendation=evaluate_student(record, method, cb, options))
    except CwwError as exc:
        return MethodCell(error=str(exc))


def rank_students(report: EvaluationReport, method: Method) -> list[tuple[str, float]]:
    """Students in descending score order; ties by ascending student id.

    Ids compare as strings, so on equal scores student "10" lists before
    student "3". Rows whose cell failed are left out of the ranking.
    """
    method = Method(method)
    if method not in report.methods:
        raise ValueError(f"report does not contain method {method.value!r}")
    scored = [
        (row.student_id, rec.score)
        for row in report.rows
        if (rec := row.recommendation(method)) is not None
    ]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


class DuplicateGroup(Value):
    """Students sharing one (numeric, word) cell despite differing feedback."""

    _fields = ("numeric", "word", "students", "distinct_feedback")

    def __init__(self, numeric: str, word: str, students: tuple[str, ...], distinct_feedback: int):
        set_field(self, "numeric", numeric)
        set_field(self, "word", word)
        set_field(self, "students", students)
        set_field(self, "distinct_feedback", distinct_feedback)


def uniqueness_report(report: EvaluationReport) -> dict[Method, tuple[DuplicateGroup, ...]]:
    """Group students with identical recommendations, per method in report order.

    Students whose shared cell is explained by byte-identical feedback do
    not count as a uniqueness failure, so groups where every member gave
    the same feedback vector are dropped (members with duplicated
    feedback still appear inside qualifying groups).
    """
    groups: dict[Method, tuple[DuplicateGroup, ...]] = {}
    ids = [row.student_id for row in report.rows]
    positions: dict[int, list[int]] = {}  # id(entry) -> the positions of its rows
    for position, row in enumerate(report.rows):
        positions.setdefault(id(row.entry), []).append(position)
    for method in report.methods:
        buckets: dict[tuple[str, str], list[ReportEntry]] = {}
        for entry in report.entries:
            if (rec := entry.recommendation(method)) is not None:
                key = (rec.numeric_text, rec.linguistic.code)
                buckets.setdefault(key, []).append(entry)
        found = []
        for (numeric, word), members in buckets.items():
            feedbacks = {entry.codes for entry in members}
            if len(feedbacks) < 2:
                continue
            # the students of all the members' rows, in row order
            rows = sorted(chain.from_iterable([positions[id(entry)] for entry in members]))
            found.append(DuplicateGroup(numeric=numeric, word=word,
                                        students=tuple(map(ids.__getitem__, rows)),
                                        distinct_feedback=len(feedbacks)))
        found.sort(key=lambda grp: (-len(grp.students), grp.numeric, grp.word))
        groups[method] = tuple(found)
    return groups
