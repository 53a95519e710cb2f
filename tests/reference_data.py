"""Frozen reference data shared across the test suite.

PUBLISHED holds the shipped reference comparison table verbatim: 25
students with, per method, the numeric payload and word it was published
with. ENGINE holds what this engine's arithmetic yields under its
documented rules (mean aggregation, fixed distance weights, lowest-index
tie break; alpha-cut aggregation for the perceptual method); the
perceptual means were frozen from an independent brute-force
implementation.

The two agree everywhere except the five cells listed in DIVERGENCES:

- The perceptual scores of students 6 and 9 are explained. The published
  score column is not the centroid of the aggregate but the mean of the
  four input words' stored centroid means (codebook column `mean`),
  rounded half-up: (6.41 + 9.36 + 0.97 + 0.95) / 4 = 4.4225 -> 4.42 and
  3.915 -> 3.92. That rule gives 24 of the 25 published scores; row 23
  is its one exception (4.9475 -> 4.95, published 4.97). The engine's
  centroid lies 0.075 and 0.065 from those two values, outside the 0.05
  tolerance.
- The extension-principle words of students 8, 10 and 15 and the
  perceptual words of students 9 and 15 are not derivable from the
  published inputs. No partition shape, distance weights, tie rule,
  aggregation mode, grid resolution or Jaccard variant tried reproduces
  all of them.

The acceptance module checks each cell against this cause.

Decision steps of the perceptual word, pinned by the acceptance module's
test_perceptual_decision_steps:

- PUBLISHED: the words are a monotone step function of the score column,
  SSBA up to 3.53, SSA from 3.92 to 5.38, SSG from 5.96. The SSBA/SSA
  step lies in (3.53, 3.92] and the SSA/SSG step in (5.38, 5.96].
- The engine, over all 625 vectors on a 1001-point grid, decodes by
  Jaccard similarity, so its words are not a function of the score and
  the bands overlap. Exact LWA: largest SSBA score 4.0135, smallest SSA
  3.9934, largest SSA 5.9252, smallest SSG 5.9130. Paper LWA: 4.0047,
  4.0007, 5.9315 and 5.9219. The upper step lies in the published band;
  the lower one lies at least 0.07 above it, which is why the published
  words of students 9 and 15 (score 3.92, SSA) differ from the engine's.
"""

# student id -> (words, published extension tuple, published extension word,
#                symbolic index, symbolic word, beta, two-tuple word,
#                published perceptual score, perceptual word)
PUBLISHED = {
    1:  (("S", "SLA", "AM", "PM"),    (0.25, 0.5, 0.75), "SSA", 2, "SSA", 2.0,  "SSA", 4.95, "SSA"),
    2:  (("L", "SL", "AH", "PL"),     (0.25, 0.5, 0.75), "SSA", 2, "SSA", 2.0,  "SSA", 4.73, "SSA"),
    3:  (("L", "SLA", "AVH", "PM"),   (0.5, 0.75, 1.0),  "SSG", 3, "SSG", 3.0,  "SSG", 6.94, "SSG"),
    4:  (("L", "SVLA", "AM", "PL"),   (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.5,  "SSG", 5.96, "SSG"),
    5:  (("S", "SVLA", "AVL", "PM"),  (0.25, 0.5, 0.75), "SSA", 2, "SSA", 1.75, "SSA", 4.48, "SSA"),
    6:  (("L", "SVLA", "AVL", "PVL"), (0.25, 0.5, 0.75), "SSA", 2, "SSA", 1.75, "SSA", 4.42, "SSA"),
    7:  (("S", "SM", "AL", "PVH"),    (0.25, 0.5, 0.75), "SSA", 2, "SSA", 2.0,  "SSA", 5.05, "SSA"),
    8:  (("VLA", "SLA", "AH", "PL"),  (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.75, "SSG", 6.56, "SSG"),
    9:  (("M", "SVLA", "AVL", "PVL"), (0.25, 0.5, 0.75), "SSA", 2, "SSA", 1.5,  "SSA", 3.92, "SSA"),
    10: (("L", "SVL", "AVH", "PVH"),  (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.75, "SSG", 6.37, "SSG"),
    11: (("L", "SL", "AH", "PL"),     (0.25, 0.5, 0.75), "SSA", 2, "SSA", 2.0,  "SSA", 4.73, "SSA"),
    12: (("M", "SL", "AM", "PVH"),    (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.25, "SSA", 5.23, "SSA"),
    13: (("VL", "SM", "AVH", "PM"),   (0.25, 0.5, 0.75), "SSA", 2, "SSA", 2.0,  "SSA", 5.07, "SSA"),
    14: (("L", "SVL", "AVH", "PL"),   (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.0,  "SSA", 4.87, "SSA"),
    15: (("S", "SVL", "AL", "PVH"),   (0.25, 0.5, 0.75), "SSA", 2, "SSA", 1.5,  "SSA", 3.92, "SSA"),
    16: (("VLA", "SM", "AVL", "PVH"), (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.5,  "SSG", 6.12, "SSG"),
    17: (("VL", "SLA", "AH", "PL"),   (0.25, 0.5, 0.75), "SSA", 2, "SSA", 1.75, "SSA", 4.47, "SSA"),
    18: (("M", "SVLA", "AM", "PM"),   (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.5,  "SSG", 5.96, "SSG"),
    19: (("S", "SM", "AM", "PL"),     (0.0, 0.25, 0.5),  "SSBA", 1, "SSBA", 1.5, "SSA", 4.00, "SSA"),
    20: (("VL", "SLA", "AL", "PL"),   (0.0, 0.25, 0.5),  "SSBA", 2, "SSA", 1.25, "SSBA", 3.53, "SSBA"),
    21: (("S", "SL", "AVH", "PH"),    (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.25, "SSA", 5.24, "SSA"),
    22: (("VLA", "SVL", "AVL", "PVL"), (0.0, 0.25, 0.5), "SSBA", 1, "SSBA", 1.0, "SSBA", 2.98, "SSBA"),
    23: (("S", "SVLA", "AH", "PVL"),  (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.0,  "SSA", 4.97, "SSA"),
    24: (("VL", "SL", "AH", "PL"),    (0.0, 0.25, 0.5),  "SSBA", 2, "SSA", 1.25, "SSBA", 3.30, "SSBA"),
    25: (("L", "SVL", "AVH", "PM"),   (0.25, 0.5, 0.75), "SSA", 3, "SSG", 2.25, "SSA", 5.38, "SSA"),
}

# Extension-principle words from this engine's arithmetic. Rows 8 and 10
# aggregate to a point whose distance to the Good word is smaller in
# every component, and row 15 lands on an exact two-way tie resolved to
# the lower index, so these three differ from PUBLISHED.
ENGINE_EXTENSION_WORD = {
    sid: row[2] for sid, row in PUBLISHED.items()
}
ENGINE_EXTENSION_WORD.update({8: "SSG", 10: "SSG", 15: "SSBA"})

# Perceptual column from this engine under the default (alpha-cut)
# aggregation: full-precision centroid mean (independently recomputed,
# frozen to 6 decimals) and the maximum-similarity word.
ENGINE_PERCEPTUAL = {
    1:  (4.963515, "SSA"),
    2:  (4.742422, "SSA"),
    3:  (6.932160, "SSG"),
    4:  (5.958852, "SSG"),
    5:  (4.506279, "SSA"),
    6:  (4.494547, "SSA"),
    7:  (5.010728, "SSA"),
    8:  (6.554266, "SSG"),
    9:  (3.984673, "SSBA"),
    10: (6.334320, "SSG"),
    11: (4.742422, "SSA"),
    12: (5.210768, "SSA"),
    13: (5.061600, "SSA"),
    14: (4.876093, "SSA"),
    15: (3.903352, "SSBA"),
    16: (6.071175, "SSG"),
    17: (4.498780, "SSA"),
    18: (5.971084, "SSG"),
    19: (3.993436, "SSA"),
    20: (3.568680, "SSBA"),
    21: (5.218590, "SSA"),
    22: (2.991494, "SSBA"),
    23: (4.978757, "SSA"),
    24: (3.306537, "SSBA"),
    25: (5.390913, "SSA"),
}

# Perceptual means under the parameter-averaging aggregation mode.
ENGINE_PERCEPTUAL_PARAM_MODE = {
    1: 4.965980,
    19: 3.987706,
    22: 2.991494,
}

# Cells where the engine's documented method disagrees with PUBLISHED:
# (student, method) -> (engine cell, published cell). The two scores are
# stored-centroid means (see the module docstring); the five words are
# not derivable from the published inputs.
DIVERGENCES = {
    (8, "extension_principle"): ("SSG", "SSA"),
    (10, "extension_principle"): ("SSG", "SSA"),
    (15, "extension_principle"): ("SSBA", "SSA"),
    (9, "perceptual"): ("SSBA", "SSA"),
    (15, "perceptual"): ("SSBA", "SSA"),
    (6, "perceptual:score"): (4.494547, 4.42),
    (9, "perceptual:score"): (3.984673, 3.92),
}

# Published aggregate rows for the two walked-through students:
# UMF (a, b, c, d), LMF (e, f, g, i), lower height, centroid, mean.
PUBLISHED_AGGREGATES = {
    "SS1": {
        "words": ("S", "SLA", "AM", "PM"),
        "params": (2.88, 4.62, 5.27, 6.97, 4.05, 4.97, 4.99, 5.98, 0.77),
        "centroid": (4.44, 5.47),
        "mean": 4.95,
    },
    "SS2": {
        "words": ("L", "SL", "AH", "PL"),
        "params": (2.82, 4.41, 5.01, 6.63, 3.93, 4.77, 4.78, 5.65, 0.73),
        "centroid": (4.19, 5.27),
        "mean": 4.73,
    },
}


def published_words(sid: int) -> tuple[str, ...]:
    return PUBLISHED[sid][0]
