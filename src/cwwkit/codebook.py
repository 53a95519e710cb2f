"""Word codebook: the mapping from vocabulary words to their IT2 models.

The shipped default codebook carries one trapezoidal footprint per word
of the default schema plus the centroid values it was published with;
stored centroids are retained purely for verification and never feed the
computation. A codebook also holds the data every evaluation derives
from its words, built on first use and kept for its lifetime.
"""

from __future__ import annotations

import io
import math
from functools import lru_cache
from importlib import resources
from typing import Iterable

import numpy as np

from ._value import Value, set_field
from .errors import CodebookError, DegenerateInputError, SchemaError, WordResolutionError
from .it2 import (DEFAULT_GRID, CentroidInterval, DiscretizationGrid,
                  TrapezoidIT2, centroid, centroid_brute_force, membership_stack)
from .vocabulary import LinguisticTerm, build_default_schema, read_csv

CODEBOOK_HEADER = (
    "parameter", "label", "code",
    "a", "b", "c", "d", "e", "f", "g", "i", "h",
    "c_l", "c_r", "mean",
)

_MEAN_TOL = 0.01

# Largest |iterative - exhaustive scan| centroid difference that
# `verify_stored_centroids` accepts; the two routes agree to ~1e-14.
SCAN_TOLERANCE = 1e-9


class StoredCentroid(Value):
    """Centroid values a codebook row was shipped with."""

    _fields = ("c_l", "c_r", "mean")

    def __init__(self, c_l: float, c_r: float, mean: float):
        set_field(self, "c_l", c_l)
        set_field(self, "c_r", c_r)
        set_field(self, "mean", mean)
        values = (c_l, c_r, mean)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite stored centroid in {values}")
        if abs(self.mean - 0.5 * (self.c_l + self.c_r)) > _MEAN_TOL:
            raise ValueError(
                f"stored mean {self.mean} is not the midpoint of "
                f"[{self.c_l}, {self.c_r}]"
            )


class CodebookEntry(Value):
    _fields = ("parameter", "term", "fou", "stored")

    def __init__(self, parameter: str, term: LinguisticTerm, fou: TrapezoidIT2,
                 stored: StoredCentroid | None = None):
        set_field(self, "parameter", parameter)
        set_field(self, "term", term)
        set_field(self, "fou", fou)
        set_field(self, "stored", stored)


class Codebook:
    """Immutable word-to-FOU map covering every word of the default schema,
    each a `TrapezoidIT2`, so on the evaluation scale, held in schema order.
    The recommendation words' samples are built on first use of a grid."""

    def __init__(self, entries: Iterable[CodebookEntry]):
        term_sets = build_default_schema().term_sets
        self.entries = tuple(entries)
        # (term-set name, term) -> word model; an entry names both exactly
        # as `_parse_codebook` builds them
        fous = {(ts.name, term): None for ts in term_sets for term in ts}
        for entry in self.entries:
            key = name, term = entry.parameter, entry.term
            if key not in fous:
                raise CodebookError(
                    f"entry ({name!r}, {term.code!r}) is not a word of the schema")
            if fous[key] is not None:
                raise CodebookError(f"duplicate entry for ({name!r}, {term.code!r})")
            fous[key] = entry.fou
        for (name, term), fou in fous.items():
            if fou is None:
                raise CodebookError(
                    f"codebook is missing word {term.label!r} ({term.code}) of {name!r}")
        # per term set in schema order, so the recommendation words come last
        self._fous = tuple(tuple(fous[ts.name, term] for term in ts) for ts in term_sets)
        self.parameter_fous = self._fous[:-1]
        self._samples = None  # (grid, recommendation samples) of the last grid

    def lookup(self, parameter: str, word: str) -> TrapezoidIT2:
        schema = build_default_schema()
        try:
            ts = schema.term_set(parameter)
        except SchemaError as exc:
            raise CodebookError(str(exc)) from None
        try:
            term = ts.find(word)
        except WordResolutionError:
            raise CodebookError(
                f"no codebook entry for word {word!r} under {parameter!r}"
            ) from None
        return self._fous[schema.term_sets.index(ts)][term.index]

    def recommendation_samples(self, grid: DiscretizationGrid) -> tuple[np.ndarray, np.ndarray]:
        """(k, G) read-only upper and lower samples of the recommendation
        words. Only the last grid's are kept, in one (grid, samples) pair
        replaced whole, so no reader pairs a grid with another's samples."""
        last = self._samples
        if last is None or (last[0] is not grid and last[0] != grid):
            last = self._samples = (grid, membership_stack(self._fous[-1], grid))
        return last[1]


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
    entries = []
    for lineno, row in read_csv(handle, source, CODEBOOK_HEADER, CodebookError):
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
        stored_cells = [cell.strip() for cell in row[12:15]]
        stored = None
        try:
            fou = TrapezoidIT2(*numbers)
            if any(stored_cells):
                if not all(stored_cells):
                    raise CodebookError(
                        f"{source}:{lineno}: partial stored centroid for {label!r}")
                stored = StoredCentroid(*(float(cell) for cell in stored_cells))
        except ValueError as exc:  # not the CodebookError above
            raise CodebookError(f"{source}:{lineno}: word {label!r}: {exc}") from None
        entries.append(CodebookEntry(ts.name, term, fou, stored))
    return Codebook(entries)


@lru_cache(maxsize=1)
def default_codebook() -> Codebook:
    """The codebook shipped with the package."""
    text = resources.files("cwwkit.data").joinpath("codebook_default.csv").read_text("utf-8")
    return loads_codebook(text)


def default_feedback_path():
    """Path of the 25-student feedback batch shipped with the package."""
    return resources.files("cwwkit.data").joinpath("feedback_sample.csv")


class CentroidCheck(Value):
    """Recomputed-versus-stored centroid comparison for one word."""

    _fields = ("parameter", "code", "recomputed", "stored", "tolerance")

    def __init__(self, parameter: str, code: str, recomputed: CentroidInterval,
                 stored: StoredCentroid | None, tolerance: float):
        set_field(self, "parameter", parameter)
        set_field(self, "code", code)
        set_field(self, "recomputed", recomputed)
        set_field(self, "stored", stored)
        set_field(self, "tolerance", tolerance)

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


class CentroidVerification(Value):
    _fields = ("checks", "tolerance", "scan_delta")

    def __init__(self, checks: tuple[CentroidCheck, ...], tolerance: float,
                 scan_delta: float):
        # scan_delta: the worst |iterative - exhaustive scan| over all ends
        set_field(self, "checks", checks)
        set_field(self, "tolerance", tolerance)
        set_field(self, "scan_delta", scan_delta)

    @property
    def passed(self) -> bool:
        return (all(check.passed for check in self.checks)
                and self.scan_delta <= SCAN_TOLERANCE)

    def format_text(self) -> str:
        def line(parameter, code, recomputed, stored, d_cl, d_cr, status):
            return (f"{parameter:34s} {code:6s} {recomputed:>19s} "
                    f"{stored:>17s} {d_cl:>7s} {d_cr:>7s} {status}")

        lines = [
            f"codebook centroid verification (tolerance {self.tolerance:g})",
            line("parameter", "word", "recomputed", "stored", "d_cl", "d_cr", "status"),
        ]
        for ch in self.checks:
            rec = f"[{ch.recomputed.c_l:7.4f},{ch.recomputed.c_r:8.4f}]"
            if ch.stored is None:
                cells = ("(none)", "-", "-", "no stored centroid")
            else:
                cells = (f"[{ch.stored.c_l:6.2f}, {ch.stored.c_r:6.2f}]",
                         f"{ch.delta_c_l:7.4f}", f"{ch.delta_c_r:7.4f}",
                         "ok" if ch.passed else "FAIL")
            lines.append(line(ch.parameter, ch.code, rec, *cells))
        lines.append(f"iterative vs exhaustive scan, worst delta: {self.scan_delta:.3e}")
        lines.append("result: " + ("all entries pass" if self.passed else "FAILED"))
        return "\n".join(lines)


def verify_stored_centroids(cb: Codebook, grid: DiscretizationGrid = DEFAULT_GRID,
                            tolerance: float = 0.05) -> CentroidVerification:
    """Recompute every entry's centroid and compare with the stored values.

    Each centroid is also recomputed by the exhaustive switch scan; the
    verification fails if the two routes differ by more than
    SCAN_TOLERANCE at either end. A word whose switch search runs out of
    weight or cycles takes the scan's interval in `centroid`, so its
    delta is 0.
    """
    checks = []
    scan_delta = 0.0
    for entry in cb.entries:
        try:
            recomputed = centroid(entry.fou, grid)
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"word {entry.term.label!r} ({entry.term.code}) "
                                       f"of {entry.parameter!r}: {exc}") from None
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
