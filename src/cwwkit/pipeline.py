"""Per-student evaluation across the four methods, ranking and uniqueness.

Students are independent work units; all shared inputs (schema, codebook,
grid) are immutable, and report rows preserve input order. A batch
prepares its word-level data once, evaluates each distinct feedback
vector once with the perceptual method and each multiset of term indices
once with the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import extension, symbolic, two_tuple
from .codebook import Codebook
from .errors import ConfigurationError, CwwError
from .extension import TriTuple
from .it2 import (DEFAULT_GRID, DOMAIN_MAX, DOMAIN_MIN, AlphaCutTable,
                  CentroidInterval, DiscretizationGrid, TrapezoidIT2, centroid,
                  jaccard_similarities, lwa_exact, lwa_paper, membership_stack,
                  sample_fou)
# Not called here, but kept importable from this module: the benchmark's
# tracer (benchmarks/tracing.py) wraps it under this name.
from .it2 import jaccard_similarity  # noqa: F401
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


@dataclass(frozen=True, eq=False)
class PreparedCodebook:
    """The word-level data of one (schema, codebook, options) triple.

    Every student of a batch shares it, so it is built once per
    `evaluate_batch` call. Each part is computed on first use, by the
    first method that needs it, and never changes after.
    """

    schema: ParameterSchema
    cb: Codebook | None
    options: EvalOptions

    @classmethod
    def build(cls, cb: Codebook | None, schema: ParameterSchema | None,
              options: EvalOptions) -> "PreparedCodebook":
        schema = schema or (cb.schema if cb is not None else build_default_schema())
        return cls(schema, cb, options)

    @cached_property
    def g(self) -> int:
        """The largest term index, which index-based methods need every
        term set to share."""
        gs = {ts.g for ts in self.schema.term_sets}
        if len(gs) != 1:
            raise ConfigurationError(
                "index-based methods need all term sets to share one cardinality; "
                f"got g values {sorted(gs)}"
            )
        return gs.pop()

    @cached_property
    def partitions(self) -> Mapping[int, tuple[TriTuple, ...]]:
        """Uniform triangular partition per term-set cardinality."""
        sizes = {len(ts) for ts in self.schema.term_sets}
        return {n: extension.uniform_triangular_partition(n) for n in sizes}

    @cached_property
    def parameter_fous(self) -> tuple[tuple[TrapezoidIT2, ...], ...]:
        """Per parameter, the word models in term-index order."""
        if self.cb.schema != self.schema:
            # the codebook holds its words in its own schema's index order
            raise ConfigurationError("the codebook was built for another schema")
        return tuple(self.cb.word_fous(param.name) for param in self.schema.parameters)

    @cached_property
    def alpha_cuts(self) -> AlphaCutTable:
        """The alpha-cut endpoints of every parameter word, for `lwa_exact`."""
        return AlphaCutTable([fou for words in self.parameter_fous for fou in words])

    @cached_property
    def recommendation_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(k, G) upper and lower samples of the recommendation words."""
        return membership_stack(self.cb.word_fous(self.schema.recommendation.name),
                                self.options.grid)


def _evaluate_extension(fb: FeedbackRecord, prepared: PreparedCodebook) -> Recommendation:
    schema, partitions = prepared.schema, prepared.partitions
    tuples = [
        partitions[len(param)][choice.index]
        for param, choice in zip(schema.parameters, fb.choices)
    ]
    aggregate = extension.aggregate_tri_tuples(tuples)
    terms = partitions[len(schema.recommendation)]
    index, _ = extension.linguistic_approximation(aggregate, terms)
    return Recommendation(
        method=Method.EXTENSION_PRINCIPLE,
        numeric=terms[index],
        linguistic=schema.recommendation[index],
        score=float(terms[index].m),
        aggregate=aggregate,
    )


def _evaluate_symbolic(fb: FeedbackRecord, prepared: PreparedCodebook) -> Recommendation:
    g = prepared.g
    indices = symbolic.sort_terms_descending(fb.indices)
    index = symbolic.sm_aggregate(indices, g)
    return Recommendation(
        method=Method.SYMBOLIC,
        numeric=index,
        linguistic=prepared.schema.recommendation[index],
        score=float(index),
    )


def _evaluate_two_tuple(fb: FeedbackRecord, prepared: PreparedCodebook) -> Recommendation:
    g = prepared.g
    beta = two_tuple.aggregate_beta(fb.indices)
    pair = two_tuple.to_two_tuple(beta, g)
    return Recommendation(
        method=Method.TWO_TUPLE,
        numeric=beta,
        linguistic=prepared.schema.recommendation[pair.term_index],
        score=float(beta),
        two_tuple=pair,
    )


def _evaluate_perceptual(fb: FeedbackRecord, prepared: PreparedCodebook) -> Recommendation:
    if prepared.cb is None:
        raise ConfigurationError("the perceptual method needs a loaded codebook")
    fous = [
        words[choice.index]
        for words, choice in zip(prepared.parameter_fous, fb.choices)
    ]
    grid = prepared.options.grid
    if prepared.options.lwa_mode == "paper":
        # sampled once: the centroid and the decode read the same arrays
        aggregate = sample_fou(lwa_paper(fous), grid)
    else:
        aggregate = lwa_exact(fous, grid=grid, table=prepared.alpha_cuts)
    interval = centroid(aggregate, grid)
    similarities = tuple(jaccard_similarities(
        aggregate.upper, aggregate.lower, *prepared.recommendation_samples).tolist())
    index = int(np.argmax(similarities))  # argmax keeps the lowest index on ties
    return Recommendation(
        method=Method.PERCEPTUAL,
        numeric=round(interval.mean, 2),
        linguistic=prepared.schema.recommendation[index],
        score=interval.mean,
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
    schema: ParameterSchema | None = None,
    options: EvalOptions = DEFAULT_OPTIONS,
    *,
    prepared: PreparedCodebook | None = None,
) -> Recommendation:
    """Evaluate one resolved feedback record with one method.

    `prepared` is the word-level data of (cb, schema, options) and takes
    their place when given; `evaluate_batch` passes the one it built for
    the whole batch. Without it, it is built for this call.
    """
    method = Method(method)
    if prepared is None:
        prepared = PreparedCodebook.build(cb, schema, options)
    return _EVALUATORS[method](fb, prepared)


def evaluate_batch(
    feedback: Sequence[RawFeedback | FeedbackRecord],
    methods: Sequence[Method] = ALL_METHODS,
    cb: Codebook | None = None,
    schema: ParameterSchema | None = None,
    options: EvalOptions = DEFAULT_OPTIONS,
) -> EvaluationReport:
    """Evaluate a batch; per-row failures are recorded, not raised.

    Rows may be raw (unresolved) feedback; a word that fails to resolve
    flags that row only, and so does a student id already used by an
    earlier row (rows count from 1 in input order). Configuration
    problems such as requesting the perceptual method without a codebook
    abort the whole batch.

    Each distinct feedback vector is evaluated once per method, and the
    extension, symbolic and 2-tuple methods once per multiset of term
    indices; rows that share a vector or multiset share the resulting
    cells, failed ones included.
    """
    if not feedback:
        raise ValueError("cannot evaluate an empty batch")
    methods = tuple(Method(m) for m in methods)
    if not methods:
        raise ConfigurationError("no methods selected")
    if Method.PERCEPTUAL in methods and cb is None:
        raise ConfigurationError("the perceptual method needs a loaded codebook")
    prepared = PreparedCodebook.build(cb, schema, options)
    schema = prepared.schema

    memo: dict[tuple[LinguisticTerm, ...], Mapping[Method, MethodCell]] = {}
    # The index methods average with equal weights, so their cells depend
    # only on the multiset of (cardinality, index) pairs. A perceptual
    # cell depends on the vector: each parameter has its own words.
    cardinalities = tuple(len(param) for param in schema.parameters)
    by_multiset: dict[tuple[Method, tuple], MethodCell] = {}
    first_rows: dict[str, int] = {}
    rows = []
    for position, item in enumerate(feedback, start=1):
        if isinstance(item, FeedbackRecord):
            record, row_error = item, None
        else:
            try:
                record = resolve_feedback(schema, item.words, item.student_id)
                row_error = None
            except CwwError as exc:
                record, row_error = None, str(exc)
        first = first_rows.setdefault(item.student_id, position)
        if first != position:
            row_error = (f"duplicate student id {item.student_id!r}, "
                         f"first used by row {first}")
        if row_error is not None:
            rows.append(ReportRow(student_id=item.student_id,
                                  codes=record.codes if record is not None else None,
                                  cells={}, error=row_error))
            continue
        cells = memo.get(record.choices)
        if cells is None:
            evaluated = {}
            multiset = tuple(sorted(zip(cardinalities, record.indices)))
            for method in methods:
                if method is Method.PERCEPTUAL:
                    cell = _cell(record, method, prepared)
                else:
                    cell = by_multiset.get((method, multiset))
                    if cell is None:
                        cell = by_multiset[method, multiset] = _cell(
                            record, method, prepared)
                evaluated[method] = cell
            # read-only, since every row with this vector holds the same cells
            cells = memo[record.choices] = MappingProxyType(evaluated)
        rows.append(ReportRow(student_id=record.student_id, codes=record.codes,
                              cells=cells))

    metadata = {
        "methods": [m.value for m in methods],
        "grid": {"domain_min": DOMAIN_MIN, "domain_max": DOMAIN_MAX,
                 "sample_count": options.grid.sample_count},
        "lwa_mode": options.lwa_mode,
        "students": len(rows),
    }
    return EvaluationReport(methods=methods, rows=tuple(rows), metadata=metadata)


def _cell(record: FeedbackRecord, method: Method,
          prepared: PreparedCodebook) -> MethodCell:
    try:
        return MethodCell(recommendation=evaluate_student(
            record, method, prepared=prepared))
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
        (row.student_id, row.cells[method].recommendation.score)
        for row in report.rows
        if row.error is None and row.cells[method].error is None
    ]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


@dataclass(frozen=True)
class DuplicateGroup:
    """Students sharing one (numeric, word) cell despite differing feedback."""

    method: Method
    numeric: str
    word: str
    students: tuple[str, ...]
    distinct_feedback: int


def uniqueness_report(report: EvaluationReport) -> dict[Method, tuple[DuplicateGroup, ...]]:
    """Group students with identical recommendations, per method in report order.

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
            key = (rec.numeric_text, rec.linguistic.code)
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
    return groups

