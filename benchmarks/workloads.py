"""Seeded input generation for the benchmark workloads.

Each workload is generated from one `random.Random` seeded with the
workload name and the `--seed` value, so the same seed always gives the
same bytes. The program under test only ever sees the CSV file written
here; the `Workload` object keeps the ground truth (term indices, which
rows were corrupted) that the output checks compare against.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Term sets of the default schema, in parameter order: (label, code) per
# index. Kept here rather than read from cwwkit so that the generator and
# the checks do not depend on the code they check.
PARAMETERS = (
    (("Very little", "VL"), ("Small", "S"), ("Moderate", "M"),
     ("Large", "L"), ("Very Large", "VLA")),
    (("Very Limited", "SVL"), ("Limited", "SL"), ("Moderate", "SM"),
     ("Large", "SLA"), ("Very Large", "SVLA")),
    (("Very Less", "AVL"), ("Less", "AL"), ("Moderate", "AM"),
     ("High", "AH"), ("Very High", "AVH")),
    (("Very Less", "PVL"), ("Less", "PL"), ("Moderate", "PM"),
     ("High", "PH"), ("Very High", "PVH")),
)
HEADER = "student_id,time_taken,subject_knowledge,liking,preparation\n"
METHODS = ("extension_principle", "symbolic", "two_tuple", "perceptual")

# cli-class runs on the program's bundled 25-student sample (no --feedback
# flag); the generator reads the same file for the ground truth, and
# district-repeats draws its words with the sample's frequencies.
BUNDLED_SAMPLE_ROWS = 25

DISTRICT_ROWS = 2000
# The share of label cells and of rows with an unknown word are assumptions,
# not measurements: the bundled sample has codes only and no bad rows.
DISTRICT_LABEL_SHARE = 0.5
DISTRICT_BAD_ROWS = 10  # 0.5% of DISTRICT_ROWS
# Words that resolve under no parameter, plus words of one parameter that
# a teacher might type under another (e.g. a Liking label under Time).
BAD_WORDS = ("Moderat", "unknown", "n/a", "V. Large", "Average", "Very Less")


@dataclass(frozen=True)
class Workload:
    """Generated input of one workload run.

    `indices[k]` is the term-index vector of row k, or None when row k
    was corrupted with an unknown word and must be flagged.
    """

    name: str
    seed: int
    csv_text: str | None
    student_ids: tuple[str, ...]
    indices: tuple[tuple[int, int, int, int] | None, ...]

    @property
    def rows(self) -> int:
        return len(self.indices)

    @property
    def bad_rows(self) -> int:
        return sum(1 for vec in self.indices if vec is None)

    @property
    def distinct_vectors(self) -> int:
        return len({vec for vec in self.indices if vec is not None})

    @property
    def distinct_ratio(self) -> float:
        """Distinct code vectors over valid rows; 1.0 means no repeats."""
        return self.distinct_vectors / (self.rows - self.bad_rows)


def _rng(name: str, seed: int) -> random.Random:
    # str seeds are hashed with SHA-512, so this is stable across runs
    return random.Random(f"{name}:{seed}")


def _mixed_case(rng: random.Random, text: str) -> str:
    return "".join(ch.upper() if rng.random() < 0.5 else ch.lower() for ch in text)


def _resolves(word: str, parameter: int) -> bool:
    needle = word.strip().lower()
    return any(needle in (label.lower(), code.lower())
               for label, code in PARAMETERS[parameter])


def _bundled_rows(bundled_csv: str) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """Student ids and term-index vectors of the bundled sample."""
    ids, vectors = [], []
    for line in bundled_csv.splitlines()[1:]:
        cells = line.split(",")
        ids.append(cells[0])
        vectors.append(tuple(
            next(k for k, (_, code) in enumerate(PARAMETERS[p]) if code == cell)
            for p, cell in enumerate(cells[1:])
        ))
    if len(vectors) != BUNDLED_SAMPLE_ROWS:
        raise ValueError(f"bundled sample has {len(vectors)} rows, "
                         f"expected {BUNDLED_SAMPLE_ROWS}")
    return tuple(ids), tuple(vectors)


def word_counts(bundled_csv: str) -> tuple[tuple[int, ...], ...]:
    """Per parameter, how often each term occurs in the bundled sample."""
    _, vectors = _bundled_rows(bundled_csv)
    return tuple(tuple(sum(vec[p] == i for vec in vectors) for i in range(5))
                 for p in range(4))


def cli_class(seed: int, bundled_csv: str) -> Workload:
    """The bundled sample; the seed does not change it."""
    ids, vectors = _bundled_rows(bundled_csv)
    return Workload("cli-class", seed, None, ids, vectors)


def cohort_distinct(seed: int) -> Workload:
    """All 625 vectors once each, as codes, in seeded order."""
    rng = _rng("cohort-distinct", seed)
    vectors = list(itertools.product(range(5), repeat=4))
    rng.shuffle(vectors)
    ids = tuple(f"c{k + 1:04d}" for k in range(len(vectors)))
    lines = [HEADER]
    for sid, vec in zip(ids, vectors):
        codes = (PARAMETERS[p][i][1] for p, i in enumerate(vec))
        lines.append(",".join((sid, *codes)) + "\n")
    return Workload("cohort-distinct", seed, "".join(lines), ids, tuple(vectors))


def district_repeats(seed: int, bundled_csv: str) -> Workload:
    """Words drawn with the bundled sample's frequencies, labels in mixed
    case, a few unknown words."""
    rng = _rng("district-repeats", seed)
    weights = word_counts(bundled_csv)
    bad = set(rng.sample(range(DISTRICT_ROWS), DISTRICT_BAD_ROWS))
    ids, vectors, lines = [], [], [HEADER]
    for k in range(DISTRICT_ROWS):
        sid = f"d{k + 1:05d}"
        vec = tuple(rng.choices(range(5), weights=weights[p])[0] for p in range(4))
        cells = []
        for p, i in enumerate(vec):
            label, code = PARAMETERS[p][i]
            cells.append(_mixed_case(rng, label) if rng.random() < DISTRICT_LABEL_SHARE
                         else code)
        if k in bad:
            p = rng.randrange(4)
            cells[p] = rng.choice([w for w in BAD_WORDS if not _resolves(w, p)])
            vec = None
        ids.append(sid)
        vectors.append(vec)
        lines.append(",".join((sid, *cells)) + "\n")
    return Workload("district-repeats", seed, "".join(lines), tuple(ids),
                    tuple(vectors))
