"""Word codebook: the mapping from vocabulary words to their IT2 models.

The shipped default codebook carries one trapezoidal footprint per word
of the default schema plus the centroid values it was published with;
stored centroids are retained purely for verification and never feed the
computation.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable

from .errors import CodebookError, SchemaError, WordResolutionError
from .it2 import (DEFAULT_GRID, CentroidInterval, DiscretizationGrid,
                  TrapezoidIT2, centroid, centroid_brute_force)
from .vocabulary import (LinguisticTerm, ParameterSchema, TermSet,
                         build_default_schema)

CODEBOOK_HEADER = (
    "parameter", "label", "code",
    "a", "b", "c", "d", "e", "f", "g", "i", "h",
    "c_l", "c_r", "mean",
)

_MEAN_TOL = 0.01

# Largest |iterative - exhaustive scan| centroid difference that
# `verify_stored_centroids` accepts; the two routes agree to ~1e-14.
SCAN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StoredCentroid:
    """Centroid values a codebook row was shipped with."""

    c_l: float
    c_r: float
    mean: float

    def __post_init__(self):
        values = (self.c_l, self.c_r, self.mean)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite stored centroid in {values}")
        if abs(self.mean - 0.5 * (self.c_l + self.c_r)) > _MEAN_TOL:
            raise ValueError(
                f"stored mean {self.mean} is not the midpoint of "
                f"[{self.c_l}, {self.c_r}]"
            )


@dataclass(frozen=True)
class CodebookEntry:
    parameter: str
    term: LinguisticTerm
    fou: TrapezoidIT2
    stored: StoredCentroid | None = None


class Codebook:
    """Immutable word-to-FOU map covering every word of a schema."""

    def __init__(self, schema: ParameterSchema, entries: Iterable[CodebookEntry]):
        self.schema = schema
        self.entries = tuple(entries)
        # per term-set name, the word models in term-index order
        slots = {ts.name: [None] * len(ts) for ts in schema.term_sets}
        for entry in self.entries:
            try:
                ts = schema.term_set(entry.parameter)
                term = ts.find(entry.term.code)
            except (SchemaError, WordResolutionError):
                raise CodebookError(
                    f"entry ({entry.parameter!r}, {entry.term.code!r}) "
                    "is not a word of the schema"
                ) from None
            words = slots[ts.name]
            if words[term.index] is not None:
                raise CodebookError(
                    f"duplicate entry for ({entry.parameter!r}, {entry.term.code!r})"
                )
            words[term.index] = entry.fou
        for ts in schema.term_sets:
            for term, fou in zip(ts, slots[ts.name]):
                if fou is None:
                    raise CodebookError(
                        f"codebook is missing word {term.label!r} ({term.code}) "
                        f"of {ts.name!r}"
                    )
        self._fous = {name: tuple(words) for name, words in slots.items()}

    def _term_set(self, parameter: str) -> TermSet:
        try:
            return self.schema.term_set(parameter)
        except SchemaError as exc:
            raise CodebookError(str(exc)) from None

    def lookup(self, parameter: str, word: str) -> TrapezoidIT2:
        ts = self._term_set(parameter)
        try:
            term = ts.find(word)
        except WordResolutionError:
            raise CodebookError(
                f"no codebook entry for word {word!r} under {parameter!r}"
            ) from None
        return self._fous[ts.name][term.index]

    def word_fous(self, parameter: str) -> tuple[TrapezoidIT2, ...]:
        """Word models of one term set, in term-index order."""
        return self._fous[self._term_set(parameter).name]


def load_codebook(path) -> Codebook:
    """Parse and validate a codebook file.

    Raises CodebookError with the offending row number for malformed
    rows, with the word name for invariant violations, and for schema
    words without an entry.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        return _parse_codebook(handle, source=str(path))


def loads_codebook(text: str) -> Codebook:
    return _parse_codebook(io.StringIO(text), source="<string>")


def _parse_codebook(handle, source) -> Codebook:
    """Parse codebook rows against the default schema."""
    schema = build_default_schema()
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise CodebookError(f"{source}: empty codebook file") from None
    if tuple(header) != CODEBOOK_HEADER:
        raise CodebookError(
            f"{source}: expected header {','.join(CODEBOOK_HEADER)}, "
            f"got {','.join(header)}"
        )
    entries = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CODEBOOK_HEADER):
            raise CodebookError(
                f"{source}:{lineno}: expected {len(CODEBOOK_HEADER)} cells, got {len(row)}"
            )
        parameter, label, code = (cell.strip() for cell in row[:3])
        try:
            ts = schema.term_set(parameter)
        except SchemaError:
            raise CodebookError(
                f"{source}:{lineno}: unknown parameter {parameter!r}"
            ) from None
        try:
            term = ts.find(code)
        except WordResolutionError:
            raise CodebookError(
                f"{source}:{lineno}: word {label!r} ({code}) is not in {ts.name!r}"
            ) from None
        try:
            numbers = [float(cell) for cell in row[3:12]]
        except ValueError:
            raise CodebookError(f"{source}:{lineno}: malformed numeric cell") from None
        try:
            fou = TrapezoidIT2(*numbers)
        except ValueError as exc:
            raise CodebookError(f"{source}:{lineno}: word {label!r}: {exc}") from None
        stored_cells = [cell.strip() for cell in row[12:15]]
        stored = None
        if any(stored_cells):
            if not all(stored_cells):
                raise CodebookError(
                    f"{source}:{lineno}: partial stored centroid for {label!r}"
                )
            try:
                stored = StoredCentroid(*(float(cell) for cell in stored_cells))
            except ValueError as exc:
                raise CodebookError(f"{source}:{lineno}: word {label!r}: {exc}") from None
        entries.append(CodebookEntry(ts.name, term, fou, stored))
    return Codebook(schema, entries)


@lru_cache(maxsize=1)
def default_codebook() -> Codebook:
    """The codebook shipped with the package."""
    text = resources.files("cwwkit.data").joinpath("codebook_default.csv").read_text("utf-8")
    return loads_codebook(text)


def default_feedback_path():
    """Path of the 25-student feedback batch shipped with the package."""
    return resources.files("cwwkit.data").joinpath("feedback_sample.csv")


@dataclass(frozen=True)
class CentroidCheck:
    """Recomputed-versus-stored centroid comparison for one word."""

    parameter: str
    code: str
    recomputed: CentroidInterval
    stored: StoredCentroid | None
    tolerance: float

    @property
    def delta_c_l(self) -> float | None:
        if self.stored is None:
            return None
        return abs(self.recomputed.c_l - self.stored.c_l)

    @property
    def delta_c_r(self) -> float | None:
        if self.stored is None:
            return None
        return abs(self.recomputed.c_r - self.stored.c_r)

    @property
    def passed(self) -> bool:
        if self.stored is None:
            return True
        return self.delta_c_l <= self.tolerance and self.delta_c_r <= self.tolerance


@dataclass(frozen=True)
class CentroidVerification:
    checks: tuple[CentroidCheck, ...]
    tolerance: float
    scan_delta: float  # worst |iterative - exhaustive scan| over all ends

    @property
    def passed(self) -> bool:
        return (all(check.passed for check in self.checks)
                and self.scan_delta <= SCAN_TOLERANCE)

    def format_text(self) -> str:
        lines = [
            f"codebook centroid verification (tolerance {self.tolerance:g})",
            f"{'parameter':34s} {'word':6s} {'recomputed':>19s} "
            f"{'stored':>17s} {'d_cl':>7s} {'d_cr':>7s} status",
        ]
        for ch in self.checks:
            rec = f"[{ch.recomputed.c_l:7.4f},{ch.recomputed.c_r:8.4f}]"
            if ch.stored is None:
                lines.append(
                    f"{ch.parameter:34s} {ch.code:6s} {rec:>19s} "
                    f"{'(none)':>17s} {'-':>7s} {'-':>7s} no stored centroid"
                )
            else:
                sto = f"[{ch.stored.c_l:6.2f}, {ch.stored.c_r:6.2f}]"
                status = "ok" if ch.passed else "FAIL"
                lines.append(
                    f"{ch.parameter:34s} {ch.code:6s} {rec:>19s} "
                    f"{sto:>17s} {ch.delta_c_l:7.4f} {ch.delta_c_r:7.4f} {status}"
                )
        lines.append(f"iterative vs exhaustive scan, worst delta: {self.scan_delta:.3e}")
        lines.append("result: " + ("all entries pass" if self.passed else "FAILED"))
        return "\n".join(lines)


def verify_stored_centroids(cb: Codebook, grid: DiscretizationGrid = DEFAULT_GRID,
                            tolerance: float = 0.05) -> CentroidVerification:
    """Recompute every entry's centroid and compare with the stored values.

    Each centroid is also recomputed by the exhaustive switch scan; the
    verification fails if the two routes differ by more than
    SCAN_TOLERANCE at either end.
    """
    checks = []
    scan_delta = 0.0
    for entry in cb.entries:
        recomputed = centroid(entry.fou, grid)
        scan = centroid_brute_force(entry.fou, grid)
        scan_delta = max(scan_delta, abs(recomputed.c_l - scan.c_l),
                         abs(recomputed.c_r - scan.c_r))
        checks.append(CentroidCheck(
            parameter=entry.parameter,
            code=entry.term.code,
            recomputed=recomputed,
            stored=entry.stored,
            tolerance=tolerance,
        ))
    return CentroidVerification(checks=tuple(checks), tolerance=tolerance,
                                scan_delta=scan_delta)
