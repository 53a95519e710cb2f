"""Span tracing of cwwkit's public functions, installed from outside.

`Tracer.installed()` replaces each target with a wrapper that records a
span (id, parent id, batch id, name, start, end, failed, note) and
restores the originals on exit. A target is patched where the *calling*
module looks it up: `pipeline` imports `lwa_exact` by name, so the span
for it wraps `cwwkit.pipeline.lwa_exact`, while the calls that `it2`
makes to `membership_samples` go through `cwwkit.it2.membership_samples`.

Spans stay in memory; `write()` dumps them as JSON lines when the run
ends. `batch_stats()` reduces them per batch, and `layer_metrics()` turns
that into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import zlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from workloads import METHODS


def _fou_key(args, kwargs, result):
    """Content key of a (FOU, grid) pair, for distinct-input ratios."""
    fou = args[0]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    if hasattr(fou, "upper"):  # sampled FOU: arrays are not hashable
        return hash((grid, len(fou.xs), zlib.crc32(np.ascontiguousarray(fou.upper)),
                     zlib.crc32(np.ascontiguousarray(fou.lower))))
    return hash((grid, fou))


def _student_key(args, kwargs, result):
    record, method = args[0], args[1] if len(args) > 1 else kwargs["method"]
    return (getattr(method, "value", method), ",".join(record.codes))


def _row_count(args, kwargs, result):
    return len(result)


# What a span's note means, and so how batch_stats() uses it.
COUNT = "count"  # a number, summed per batch
KEY = "key"  # a content key, counted once per distinct value
METHOD_KEY = "method_key"  # (method, key): a KEY, and calls split per method


@dataclass(frozen=True)
class Target:
    """One wrapped function: its span name, where it is patched, and an
    optional note taken from the call, of the given kind."""

    name: str  # "<layer>.<function>"
    module: str
    attribute: str  # may be "Class.method"
    note: Callable | None = None
    kind: str | None = None  # COUNT, KEY or METHOD_KEY when note is set

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


TARGETS = (
    Target("cli.main", "cwwkit.cli", "main"),
    Target("codebook.default_codebook", "cwwkit.cli", "default_codebook"),
    Target("codebook.lookup", "cwwkit.codebook", "Codebook.lookup"),
    Target("vocabulary.read_feedback_file", "cwwkit.cli", "read_feedback_file",
           _row_count, COUNT),
    Target("vocabulary.resolve_feedback", "cwwkit.pipeline", "resolve_feedback"),
    Target("pipeline.evaluate_batch", "cwwkit.cli", "evaluate_batch"),
    Target("pipeline.evaluate_student", "cwwkit.pipeline", "evaluate_student",
           _student_key, METHOD_KEY),
    Target("pipeline.uniqueness_report", "cwwkit.cli", "uniqueness_report"),
    Target("extension.uniform_triangular_partition", "cwwkit.extension",
           "uniform_triangular_partition"),
    Target("extension.aggregate_tri_tuples", "cwwkit.extension",
           "aggregate_tri_tuples"),
    Target("extension.linguistic_approximation", "cwwkit.extension",
           "linguistic_approximation"),
    Target("symbolic.sm_aggregate", "cwwkit.symbolic", "sm_aggregate"),
    Target("two_tuple.aggregate_beta", "cwwkit.two_tuple", "aggregate_beta"),
    Target("two_tuple.to_two_tuple", "cwwkit.two_tuple", "to_two_tuple"),
    Target("it2.lwa_exact", "cwwkit.pipeline", "lwa_exact"),
    Target("it2.lwa_paper", "cwwkit.pipeline", "lwa_paper"),
    Target("it2.centroid", "cwwkit.pipeline", "centroid"),
    Target("it2.jaccard_similarity", "cwwkit.pipeline", "jaccard_similarity"),
    Target("it2.membership_samples", "cwwkit.it2", "membership_samples",
           _fou_key, KEY),
    Target("reporting.render_json", "cwwkit.cli", "render_json"),
    Target("reporting.render_csv", "cwwkit.cli", "render_csv"),
    Target("reporting.render_table", "cwwkit.cli", "render_table"),
    Target("reporting.render_uniqueness", "cwwkit.cli", "render_uniqueness"),
)

LAYERS = ("cli", "codebook", "vocabulary", "pipeline", "extension", "symbolic",
          "two_tuple", "it2", "reporting")

# Per-layer metrics: name -> the spans it sums. A metric summed over
# several spans covers functions of which each workload calls exactly one
# (lwa_exact or lwa_paper; the renderers of one --format), so that it is
# measured, never a constant zero, on every workload. SPAN_METRICS report
# calls and busy seconds, BUSY_ONLY busy seconds.
SPAN_METRICS = {
    "it2.lwa": ("it2.lwa_exact", "it2.lwa_paper"),
    "it2.centroid": ("it2.centroid",),
    "it2.jaccard_similarity": ("it2.jaccard_similarity",),
    "it2.membership_samples": ("it2.membership_samples",),
    "codebook.lookup": ("codebook.lookup",),
    "vocabulary.resolve_feedback": ("vocabulary.resolve_feedback",),
    "extension.uniform_triangular_partition": ("extension.uniform_triangular_partition",),
    "extension.aggregate_tri_tuples": ("extension.aggregate_tri_tuples",),
    "extension.linguistic_approximation": ("extension.linguistic_approximation",),
}
BUSY_ONLY = {
    "codebook.default_codebook": ("codebook.default_codebook",),
    "vocabulary.read_feedback_file": ("vocabulary.read_feedback_file",),
    "pipeline.evaluate_batch": ("pipeline.evaluate_batch",),
    "pipeline.uniqueness_report": ("pipeline.uniqueness_report",),
    "symbolic.sm_aggregate": ("symbolic.sm_aggregate",),
    "two_tuple.aggregate_beta": ("two_tuple.aggregate_beta",),
    "two_tuple.to_two_tuple": ("two_tuple.to_two_tuple",),
    "reporting.render": ("reporting.render_json", "reporting.render_csv",
                         "reporting.render_table", "reporting.render_uniqueness"),
    "cli.main": ("cli.main",),
}


def _resolve(target: Target):
    """(owner, attribute name, original) or None if the target is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    path = target.attribute.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, path[-1], None)
    if not callable(original):
        return None
    return owner, path[-1], original


class Tracer:
    """In-memory span recorder; one batch id per traced `cli.main` call."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self.batch = 0
        self._stack: list[int] = []
        self._next_id = 1

    def _wrap(self, target: Target, original):
        spans, stack, name, note = self.spans, self._stack, target.name, target.note

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result, failed = None, True
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                value = None
                if note is not None and not failed:
                    # A note must never change what the call returns or
                    # raises; a failed note is None, and the metrics built
                    # from it are reported as missing.
                    try:
                        value = note(args, kwargs, result)
                    except Exception:
                        value = None
                # tuples of atomic values leave the garbage collector's
                # tracking, so a long trace does not slow collections
                spans.append((span_id, parent, self.batch, name, start, end,
                              failed, value))

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    @property
    def missing(self) -> tuple[str, ...]:
        """Targets that no longer exist in the code under test."""
        return tuple(t.name for t in self.targets if _resolve(t) is None)

    @contextlib.contextmanager
    def installed(self):
        """Patch every target that exists; restore the originals on exit."""
        patched = []
        try:
            for target in self.targets:
                found = _resolve(target)
                if found is not None:
                    owner, attr, original = found
                    setattr(owner, attr, self._wrap(target, original))
                    patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path, batch: int) -> list[tuple]:
    """Spans written by `Tracer.write`, moved to the given batch id."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span_id, parent, _, name, start, end, failed, note = json.loads(line)
            if isinstance(note, list):
                note = tuple(note)
            spans.append((span_id, parent, batch, name, start, end, failed, note))
    return spans


@dataclass
class BatchStats:
    calls: dict  # span name (or name.method) -> count
    busy: dict  # span name (or name.method) -> inclusive seconds
    self_time: dict  # span name -> seconds not covered by child spans
    distinct: dict  # span name -> set of content keys
    failed: dict  # span name -> count of calls that raised
    notes: dict  # span name -> list of recorded counts
    lost_notes: dict  # span name -> count of calls whose note failed


def batch_stats(spans, targets=TARGETS) -> list[BatchStats]:
    """Per batch id: calls, inclusive and self seconds, distinct keys."""
    kinds = {t.name: t.kind for t in targets}
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for span_id, parent, batch, name, start, end, failed, note in spans:
        if parent:
            child_time[(batch, parent)] += end - start
    stats: dict[int, BatchStats] = {}
    for span_id, parent, batch, name, start, end, failed, note in spans:
        st = stats.get(batch)
        if st is None:
            st = stats[batch] = BatchStats(defaultdict(int), defaultdict(float),
                                           defaultdict(float), defaultdict(set),
                                           defaultdict(int), defaultdict(list),
                                           defaultdict(int))
        duration = end - start
        st.calls[name] += 1
        st.busy[name] += duration
        st.self_time[name] += duration - child_time[(batch, span_id)]
        st.failed[name] += failed
        kind = kinds.get(name)
        if kind is None or failed:
            continue
        if note is None:
            st.lost_notes[name] += 1
        elif kind == COUNT:
            st.notes[name].append(note)
        else:
            st.distinct[name].add(note)
            if kind == METHOD_KEY:
                per_method = f"{name}.{note[0]}"
                st.calls[per_method] += 1
                st.busy[per_method] += duration
    return list(stats.values())


def layer_metrics(stats: list[BatchStats], missing=()) -> tuple[dict, list[str]]:
    """Per-layer metric values, each the median over traced batches, and
    the metrics left out because a function they are computed from is
    missing (reported as missing, never as zero).
    """
    if not stats:
        raise ValueError("no traced batches")
    missing = set(missing)
    values: dict[str, tuple[float, str]] = {}
    lost: list[str] = []

    def put(metric, sources, unit, fn, noted=()):
        gone = sorted(set(sources) & missing)
        if gone:
            lost.append(f"{metric} (missing: {', '.join(gone)})")
            return
        unnoted = sorted(n for n in noted if any(st.lost_notes[n] for st in stats))
        if unnoted:
            lost.append(f"{metric} (note failed: {', '.join(unnoted)})")
            return
        average = statistics.median_low if unit == "count" else statistics.median
        values[metric] = (average(fn(st) for st in stats), unit)

    for metric, sources in SPAN_METRICS.items():
        put(f"{metric}.calls", sources, "count",
            lambda st, s=sources: sum(st.calls[n] for n in s))
        put(f"{metric}.busy_s", sources, "s",
            lambda st, s=sources: sum(st.busy[n] for n in s))
    for metric, sources in BUSY_ONLY.items():
        put(f"{metric}.busy_s", sources, "s",
            lambda st, s=sources: sum(st.busy[n] for n in s))
    evaluate = ("pipeline.evaluate_student",)
    for method in METHODS:
        key = f"pipeline.evaluate_student.{method}"
        put(f"{key}.calls", evaluate, "count", lambda st, k=key: st.calls[k], evaluate)
        put(f"{key}.busy_s", evaluate, "s", lambda st, k=key: st.busy[k], evaluate)
    for name in ("pipeline.evaluate_student", "it2.membership_samples"):
        put(f"{name}.distinct_ratio", (name,), "ratio",
            lambda st, n=name: len(st.distinct[n]) / max(st.calls[n], 1), (name,))
    put("vocabulary.resolve_feedback.failed", ("vocabulary.resolve_feedback",),
        "count", lambda st: st.failed["vocabulary.resolve_feedback"])
    read = ("vocabulary.read_feedback_file",)
    put("vocabulary.read_feedback_file.rows", read, "count",
        lambda st: sum(st.notes[read[0]]), read)
    for layer in LAYERS:
        sources = [t.name for t in TARGETS if t.layer == layer]
        put(f"{layer}.self_s", sources, "s",
            lambda st, s=sources: sum(st.self_time[n] for n in s))
    return values, lost


def function_table(stats: list[BatchStats]) -> list[tuple[str, float, float, float | None]]:
    """(span name, calls, busy s, self s) per batch, medians over batches."""
    names = sorted({name for st in stats for name in st.calls})
    return [
        (name,
         statistics.median(st.calls.get(name, 0) for st in stats),
         statistics.median(st.busy.get(name, 0.0) for st in stats),
         statistics.median(st.self_time[name] for st in stats)
         if name in stats[0].self_time else None)
        for name in names
    ]
