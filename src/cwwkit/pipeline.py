"""Per-student evaluation across the four methods, ranking and uniqueness.

Students are independent work units; all shared inputs (schema, codebook,
grid) are immutable, and report rows preserve input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import extension, symbolic, two_tuple
from .codebook import Codebook
from .errors import ConfigurationError, CwwError
from .extension import TriTuple
from .it2 import (DEFAULT_GRID, CentroidInterval, DiscretizationGrid, centroid,
                  jaccard_similarity, lwa_exact, lwa_paper)
from .two_tuple import TwoTuple
from .vocabulary import (FeedbackRecord, LinguisticTerm, Method,
                         ParameterSchema, RawFeedback, build_default_schema,
                         resolve_feedback)

ALL_METHODS = tuple(Method)

# Aggregation modes for the perceptual method. "exact" (alpha-cut average,
# minimum lower height) is the default: its centroid lands within 0.05 of
# the shipped reference centroids (all but two of the published scores),
# which are means of the input words' stored centroids. "paper"
# (parameter-wise average) matches the reference aggregate tables
# parameter for parameter.
LWA_MODES = ("exact", "paper")


@dataclass(frozen=True)
class EvalOptions:
    """Tunable evaluation settings; defaults reproduce the reference setup."""

    grid: DiscretizationGrid = DEFAULT_GRID
    lwa_mode: str = "exact"

    def __post_init__(self):
        if self.lwa_mode not in LWA_MODES:
            raise ConfigurationError(
                f"lwa_mode must be one of {LWA_MODES}, got {self.lwa_mode!r}"
            )


DEFAULT_OPTIONS = EvalOptions()


@dataclass(frozen=True)
class Recommendation:
    """Per-method evaluation outcome: a numeric payload, its score and a word.

    The numeric payload is method specific: the matched triangular tuple
    for the extension principle, an integer index for the symbolic method,
    the aggregated mean for the 2-tuple method and the centroid mean
    rounded to two decimals for perceptual computing. `score` is the
    full-precision number students are ranked by (the middle of the
    matched tuple, the index, the mean, the unrounded centroid mean).
    The remaining fields are intermediates, each set only by its method.
    """

    method: Method
    numeric: object
    linguistic: LinguisticTerm
    score: float
    aggregate: TriTuple | None = None  # extension principle
    two_tuple: TwoTuple | None = None  # 2-tuple
    centroid: CentroidInterval | None = None  # perceptual
    similarities: tuple[float, ...] | None = None  # perceptual, per recommendation word


@dataclass(frozen=True)
class MethodCell:
    """One report cell: a recommendation or the reason it failed."""

    recommendation: Recommendation | None = None
    error: str | None = None


@dataclass(frozen=True)
class ReportRow:
    student_id: str
    codes: tuple[str, ...] | None
    cells: Mapping[Method, MethodCell] = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class EvaluationReport:
    methods: tuple[Method, ...]
    rows: tuple[ReportRow, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)


def _uniform_g(schema: ParameterSchema) -> int:
    gs = {ts.g for ts in schema.parameters} | {schema.recommendation.g}
    if len(gs) != 1:
        raise ConfigurationError(
            "index-based methods need all term sets to share one cardinality; "
            f"got g values {sorted(gs)}"
        )
    return gs.pop()


def _evaluate_extension(fb: FeedbackRecord, schema) -> Recommendation:
    tuples = [
        extension.uniform_triangular_partition(len(param))[choice.index]
        for param, choice in zip(schema.parameters, fb.choices)
    ]
    aggregate = extension.aggregate_tri_tuples(tuples)
    terms = extension.uniform_triangular_partition(len(schema.recommendation))
    index, _ = extension.linguistic_approximation(aggregate, terms)
    return Recommendation(
        method=Method.EXTENSION_PRINCIPLE,
        numeric=terms[index],
        linguistic=schema.recommendation[index],
        score=float(terms[index].m),
        aggregate=aggregate,
    )


def _evaluate_symbolic(fb: FeedbackRecord, schema) -> Recommendation:
    g = _uniform_g(schema)
    indices = symbolic.sort_terms_descending(fb.indices)
    weights = symbolic.WeightVector.equal(len(indices))
    index = symbolic.sm_aggregate(indices, weights, g)
    return Recommendation(
        method=Method.SYMBOLIC,
        numeric=index,
        linguistic=schema.recommendation[index],
        score=float(index),
    )


def _evaluate_two_tuple(fb: FeedbackRecord, schema) -> Recommendation:
    g = _uniform_g(schema)
    beta = two_tuple.aggregate_beta(fb.indices)
    pair = two_tuple.to_two_tuple(beta, g)
    return Recommendation(
        method=Method.TWO_TUPLE,
        numeric=beta,
        linguistic=schema.recommendation[pair.term_index],
        score=float(beta),
        two_tuple=pair,
    )


def _evaluate_perceptual(fb: FeedbackRecord, schema, cb: Codebook, options) -> Recommendation:
    fous = [
        cb.lookup(param.name, choice.code)
        for param, choice in zip(schema.parameters, fb.choices)
    ]
    if options.lwa_mode == "paper":
        aggregate = lwa_paper(fous)
    else:
        aggregate = lwa_exact(fous, grid=options.grid)
    interval = centroid(aggregate, options.grid)
    similarities = tuple(
        jaccard_similarity(aggregate, word_fou, options.grid)
        for word_fou in cb.recommendation_fous()
    )
    index = int(np.argmax(similarities))  # argmax keeps the lowest index on ties
    return Recommendation(
        method=Method.PERCEPTUAL,
        numeric=round(interval.mean, 2),
        linguistic=schema.recommendation[index],
        score=interval.mean,
        centroid=interval,
        similarities=similarities,
    )


def evaluate_student(
    fb: FeedbackRecord,
    method: Method,
    cb: Codebook | None = None,
    schema: ParameterSchema | None = None,
    options: EvalOptions = DEFAULT_OPTIONS,
) -> Recommendation:
    """Evaluate one resolved feedback record with one method."""
    method = Method(method)
    schema = schema or (cb.schema if cb is not None else build_default_schema())
    if method is Method.EXTENSION_PRINCIPLE:
        return _evaluate_extension(fb, schema)
    if method is Method.SYMBOLIC:
        return _evaluate_symbolic(fb, schema)
    if method is Method.TWO_TUPLE:
        return _evaluate_two_tuple(fb, schema)
    if cb is None:
        raise ConfigurationError("the perceptual method needs a loaded codebook")
    return _evaluate_perceptual(fb, schema, cb, options)


def evaluate_batch(
    feedback: Sequence[RawFeedback | FeedbackRecord],
    methods: Sequence[Method] = ALL_METHODS,
    cb: Codebook | None = None,
    schema: ParameterSchema | None = None,
    options: EvalOptions = DEFAULT_OPTIONS,
) -> EvaluationReport:
    """Evaluate a batch; per-row failures are recorded, not raised.

    Rows may be raw (unresolved) feedback; a word that fails to resolve
    flags that row only. Configuration problems such as requesting the
    perceptual method without a codebook abort the whole batch.
    """
    if not feedback:
        raise ValueError("cannot evaluate an empty batch")
    methods = tuple(Method(m) for m in methods)
    if not methods:
        raise ConfigurationError("no methods selected")
    schema = schema or (cb.schema if cb is not None else build_default_schema())
    if Method.PERCEPTUAL in methods and cb is None:
        raise ConfigurationError("the perceptual method needs a loaded codebook")

    rows = []
    for item in feedback:
        if isinstance(item, FeedbackRecord):
            record, row_error = item, None
        else:
            try:
                record = resolve_feedback(schema, item.words, item.student_id)
                row_error = None
            except CwwError as exc:
                record, row_error = None, str(exc)
        if record is None:
            rows.append(ReportRow(student_id=item.student_id, codes=None,
                                  cells={}, error=row_error))
            continue
        cells = {}
        for method in methods:
            try:
                cells[method] = MethodCell(
                    recommendation=evaluate_student(record, method, cb, schema, options)
                )
            except CwwError as exc:
                cells[method] = MethodCell(error=str(exc))
        rows.append(ReportRow(student_id=record.student_id, codes=record.codes,
                              cells=cells))

    grid = options.grid
    metadata = {
        "methods": [m.value for m in methods],
        "grid": {"domain_min": grid.domain_min, "domain_max": grid.domain_max,
                 "sample_count": grid.sample_count},
        "lwa_mode": options.lwa_mode,
        "students": len(rows),
    }
    return EvaluationReport(methods=methods, rows=tuple(rows), metadata=metadata)


def rank_students(report: EvaluationReport, method: Method) -> list[tuple[str, float]]:
    """Students in descending score order; ties by ascending student id.

    Rows whose cell failed are left out of the ranking.
    """
    method = Method(method)
    if method not in report.methods:
        raise ValueError(f"report does not contain method {method.value!r}")
    scored = [
        (row.student_id, row.cells[method].recommendation.score)
        for row in report.rows
        if row.error is None and row.cells[method].error is None
    ]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def numeric_key(rec: Recommendation) -> str:
    """The numeric payload at the precision the report prints it."""
    if rec.method is Method.EXTENSION_PRINCIPLE:
        tri = rec.numeric
        return "{%s}" % ",".join(format(v, "g") for v in tri.as_tuple())
    if rec.method is Method.PERCEPTUAL:
        return format(rec.score, ".2f")
    return format(rec.numeric, "g")


@dataclass(frozen=True)
class DuplicateGroup:
    """Students sharing one (numeric, word) cell despite differing feedback."""

    method: Method
    numeric: str
    word: str
    students: tuple[str, ...]
    distinct_feedback: int


@dataclass(frozen=True)
class UniquenessSummary:
    groups: Mapping[Method, tuple[DuplicateGroup, ...]]
    note: str = (
        "groups are computed from the evaluated cells at reported precision; "
        "a group qualifies only if at least two members gave different feedback"
    )

    def duplicate_count(self, method: Method) -> int:
        return len(self.groups.get(Method(method), ()))


def uniqueness_report(report: EvaluationReport) -> UniquenessSummary:
    """Group students with identical recommendations per method.

    Students whose shared cell is explained by byte-identical feedback do
    not count as a uniqueness failure, so groups where every member gave
    the same feedback vector are dropped (members with duplicated
    feedback still appear inside qualifying groups).
    """
    groups: dict[Method, tuple[DuplicateGroup, ...]] = {}
    for method in report.methods:
        buckets: dict[tuple[str, str], list[ReportRow]] = {}
        for row in report.rows:
            if row.error is not None:
                continue
            cell = row.cells[method]
            if cell.error is not None or cell.recommendation is None:
                continue
            rec = cell.recommendation
            key = (numeric_key(rec), rec.linguistic.code)
            buckets.setdefault(key, []).append(row)
        found = []
        for (numeric, word), members in buckets.items():
            if len(members) < 2:
                continue
            feedbacks = {m.codes for m in members}
            if len(feedbacks) < 2:
                continue
            found.append(DuplicateGroup(
                method=method,
                numeric=numeric,
                word=word,
                students=tuple(m.student_id for m in members),
                distinct_feedback=len(feedbacks),
            ))
        found.sort(key=lambda grp: (-len(grp.students), grp.numeric, grp.word))
        groups[method] = tuple(found)
    return UniquenessSummary(groups=groups)

