"""Output checks, run outside the timed region.

Each checker parses one `compare` output (table, JSON or CSV) and
compares every row with the generator's ground truth and with
independent references:

- the codes printed for a row are the codes of the generated words;
- a valid row has a result for every method, an injected bad row is
  flagged with an unknown-word error;
- the perceptual centroid (JSON) or 2-decimal score (table, CSV) agrees
  with `centroid_brute_force` on the aggregate rebuilt by the public
  `lwa_exact` / `lwa_paper`;
- every 2-tuple satisfies index + alpha == mean(indices), and its word
  is the term at that index.
"""

from __future__ import annotations

import csv
import io
import json
import math

from cwwkit import (DiscretizationGrid, build_default_schema,
                    centroid_brute_force, default_codebook, lwa_exact, lwa_paper)

from workloads import METHODS, PARAMETERS, Workload

GRID = DiscretizationGrid(sample_count=1001)
CENTROID_TOL = 1e-9
SCORE_TOL = 0.005 + 1e-9  # the score is printed rounded to 2 decimals
RECOMMENDATION_CODES = ("SSNG", "SSBA", "SSA", "SSG", "SSVG")


class BruteForce:
    """Reference centroid per distinct index vector, by exhaustive scan."""

    def __init__(self, lwa_mode: str):
        self.lwa_mode = lwa_mode
        self.codebook = default_codebook()
        self.names = [p.name for p in build_default_schema().parameters]
        self._cache = {}

    def centroid(self, vec):
        if vec not in self._cache:
            fous = [self.codebook.lookup(name, PARAMETERS[p][i][1])
                    for p, (name, i) in enumerate(zip(self.names, vec))]
            if self.lwa_mode == "paper":
                aggregate = lwa_paper(fous)
            else:
                aggregate = lwa_exact(fous, grid=GRID)
            self._cache[vec] = centroid_brute_force(aggregate, GRID)
        return self._cache[vec]


def _round_half_away(x: float) -> int:
    """Halves away from zero for x >= 0; independent of cwwkit.rounding."""
    return math.floor(x + 0.5)


def _codes(vec) -> list[str]:
    return [PARAMETERS[p][i][1] for p, i in enumerate(vec)]


class RowChecker:
    """Collects per-row problems; a row with any problem counts once."""

    def __init__(self, workload: Workload, lwa_mode: str):
        self.workload = workload
        self.reference = BruteForce(lwa_mode)
        self.bad_rows: set[int] = set()
        self.messages: list[str] = []

    def fail(self, row: int, message: str) -> None:
        self.bad_rows.add(row)
        if len(self.messages) < 20:
            self.messages.append(f"row {row + 1} "
                                 f"({self.workload.student_ids[row]}): {message}")

    def expect(self, row: int, condition: bool, message: str) -> None:
        if not condition:
            self.fail(row, message)

    def check_score(self, row: int, vec, score_text: str, interval=None) -> None:
        ref = self.reference.centroid(vec)
        self.expect(row, abs(float(score_text) - ref.mean) <= SCORE_TOL,
                    f"perceptual score {score_text} vs brute force {ref.mean!r}")
        if interval is not None:
            c_l, c_r = interval
            self.expect(row, abs(c_l - ref.c_l) <= CENTROID_TOL
                        and abs(c_r - ref.c_r) <= CENTROID_TOL,
                        f"centroid [{c_l!r}, {c_r!r}] vs brute force "
                        f"[{ref.c_l!r}, {ref.c_r!r}]")

    def check_two_tuple(self, row: int, vec, index: int, alpha: float, word: str) -> None:
        beta = sum(vec) / len(vec)
        self.expect(row, index + alpha == beta,
                    f"2-tuple ({index}, {alpha!r}) does not add up to {beta!r}")
        self.expect(row, index == _round_half_away(beta)
                    and word == RECOMMENDATION_CODES[index],
                    f"2-tuple word {word} at index {index} for beta {beta!r}")

    def check_beta(self, row: int, vec, beta_text: str, word: str) -> None:
        """Table and CSV print the 2-tuple as beta = index + alpha and its word."""
        beta = sum(vec) / len(vec)
        self.expect(row, float(beta_text) == beta,
                    f"2-tuple beta {beta_text} is not the mean of {vec}")
        self.expect(row, word == RECOMMENDATION_CODES[_round_half_away(beta)],
                    f"2-tuple word {word} for beta {beta!r}")

    def result(self) -> tuple[int, list[str]]:
        return len(self.bad_rows), self.messages


def check_table(workload: Workload, text: str, lwa_mode: str) -> tuple[int, list[str]]:
    """`compare --format table`: one whitespace-separated line per row."""
    checker = RowChecker(workload, lwa_mode)
    lines = text.split("\n")
    for row, vec in enumerate(workload.indices):
        cells = lines[row + 1].split() if row + 1 < len(lines) else []
        if len(cells) != 13:
            checker.fail(row, f"expected 13 table cells, got {len(cells)}")
            continue
        checker.expect(row, cells[0] == workload.student_ids[row],
                       f"student id {cells[0]}")
        checker.expect(row, cells[1:5] == _codes(vec), f"codes {cells[1:5]}")
        checker.expect(row, "!" not in cells[5:] and "failed" not in cells[5:],
                       "a method cell failed")
        checker.check_beta(row, vec, cells[9], cells[10])
        checker.check_score(row, vec, cells[11])
    return checker.result()


def check_json(workload: Workload, text: str, lwa_mode: str) -> tuple[int, list[str]]:
    """`compare --format json`: centroids and 2-tuples at full precision."""
    checker = RowChecker(workload, lwa_mode)
    rows = json.loads(text)["rows"]
    if len(rows) != workload.rows:
        checker.messages.append(f"expected {workload.rows} rows, got {len(rows)}")
        return workload.rows, checker.messages
    for row, (vec, payload) in enumerate(zip(workload.indices, rows)):
        checker.expect(row, payload["student_id"] == workload.student_ids[row],
                       f"student id {payload['student_id']}")
        words = payload.get("words") or {}
        checker.expect(row, list(words.values()) == _codes(vec), f"codes {words}")
        methods = payload.get("methods") or {}
        if "error" in payload or any("error" in methods.get(m, {"error": 1})
                                     for m in METHODS):
            checker.fail(row, "valid row flagged or a method cell failed")
            continue
        pair = methods["two_tuple"]["two_tuple"]
        checker.check_two_tuple(row, vec, pair[0], pair[1], methods["two_tuple"]["word"])
        perceptual = methods["perceptual"]
        checker.check_score(row, vec, perceptual["numeric"], perceptual["centroid"])
    return checker.result()


def check_csv(workload: Workload, text: str, lwa_mode: str) -> tuple[int, list[str]]:
    """`compare --format csv`: the CSV block before the uniqueness summary."""
    checker = RowChecker(workload, lwa_mode)
    block = text.split("\nuniqueness summary\n", 1)[0]
    rows = list(csv.DictReader(io.StringIO(block)))
    if len(rows) != workload.rows:
        checker.messages.append(f"expected {workload.rows} rows, got {len(rows)}")
        return workload.rows, checker.messages
    cell_columns = [f"{m}_{part}" for m in METHODS for part in ("numeric", "word")]
    for row, (vec, cells) in enumerate(zip(workload.indices, rows)):
        checker.expect(row, cells["student_id"] == workload.student_ids[row],
                       f"student id {cells['student_id']}")
        if vec is None:
            checker.expect(row, cells["error"].startswith("unknown word"),
                           f"injected bad row not flagged: {cells['error']!r}")
            continue
        codes = [cells[c] for c in ("time_taken", "subject_knowledge", "liking",
                                    "preparation")]
        checker.expect(row, codes == _codes(vec), f"codes {codes}")
        if cells["error"] or not all(cells[c] for c in cell_columns):
            checker.fail(row, f"valid row flagged or a cell failed: {cells['error']!r}")
            continue
        checker.check_beta(row, vec, cells["two_tuple_numeric"], cells["two_tuple_word"])
        checker.check_score(row, vec, cells["perceptual_numeric"])
    return checker.result()


CHECKERS = {"table": check_table, "json": check_json, "csv": check_csv}
