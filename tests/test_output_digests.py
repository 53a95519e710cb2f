"""Byte-identity guard: sha256 of stdout for the CLI runs on the bundled
sample, pinned at a known-good state of the engine.

The digests cover every `evaluate` combination of `--format`,
`--lwa-mode` and `--verbose-precision`, `evaluate` on the coarse
`--grid 51` for every `--format` and `--lwa-mode`, `rank` for each
method, `compare --format json` and `compare --format csv --lwa-mode
paper`. Two `compare --grid 3 --format json` runs, one per `--lwa-mode`,
cover a report with a failed perceptual cell. Five more runs read
`data/district_sample.csv`, a small file shaped like a district's:
repeated vectors, mixed-case labels with surrounding spaces, an unknown
word and a repeated student id. They pin the CSV, JSON and table formats
(the table in both `--lwa-mode`s) and `rank --method perceptual`, whose
flag lines name the two flagged rows. Below the
CLI, one digest covers the `repr` of every `Recommendation` field for all
625 feedback vectors. `codebook validate` is pinned at the default grid,
at `--grid 51`, where ten words fail, and on the shipped codebook with one
word's stored centroid blanked. A change that alters any printed byte fails
here; if the change is meant to alter output, recompute the digest and
say why in CHANGES.md.
"""

import hashlib
import itertools
from pathlib import Path

import pytest

from cwwkit import (DiscretizationGrid, EvalOptions, FeedbackRecord, build_default_schema,
                    evaluate_batch)
from cwwkit.cli import main
from cwwkit.pipeline import LWA_MODES

DISTRICT_SAMPLE = Path(__file__).parent / "data" / "district_sample.csv"

STDOUT_SHA256 = {
    ('evaluate', '--format', 'table', '--lwa-mode', 'exact'):
        "d87e0d7a3c565afecc52811321c3f32c090f32c2bf68d589e338ad898ec0f6ee",
    ('evaluate', '--format', 'table', '--lwa-mode', 'exact', '--verbose-precision'):
        "439a68bac1e14b68f77eedf98e3514aa38178f5a18abc800665166292efe2f97",
    ('evaluate', '--format', 'table', '--lwa-mode', 'paper'):
        "73b63240ae5da1c7d331596125c9875ef985fef38845789f912c9e9fa8800422",
    ('evaluate', '--format', 'table', '--lwa-mode', 'paper', '--verbose-precision'):
        "c734ab2164976d6fefa5d91db766a43fb0a405479cfadf08ccc7408ce91abb47",
    ('evaluate', '--format', 'csv', '--lwa-mode', 'exact'):
        "18664d46c6f7e37c392394795ba0db39dfe91f097832efed051eb7a77a2bd4ab",
    ('evaluate', '--format', 'csv', '--lwa-mode', 'exact', '--verbose-precision'):
        "14ff3fb619c9d81518f46060d5aa58d93ba326517767a5568f306e2a97ec9fb8",
    ('evaluate', '--format', 'csv', '--lwa-mode', 'paper'):
        "ba2b45b3add9ef4c1e46a4d4ab093c84eabce2e018d98f09bc52d45fa7438d81",
    ('evaluate', '--format', 'csv', '--lwa-mode', 'paper', '--verbose-precision'):
        "f313500ce5fdd8ddde6782f014c9f474d9222f50772bf46a79754dbeb5abc3ab",
    ('evaluate', '--format', 'json', '--lwa-mode', 'exact'):
        "d154db67cc8d75c118868d638c12ef54a3520170245af382e1064f8e18aea711",
    ('evaluate', '--format', 'json', '--lwa-mode', 'exact', '--verbose-precision'):
        "bfb6c5a280ffcdbc592abccba15d98ed56c0943c44978cbbd851dd607356f328",
    ('evaluate', '--format', 'json', '--lwa-mode', 'paper'):
        "79028b4afc462bdb84f9efb01c7161271036c82604ef3c954b1141158c1c5104",
    ('evaluate', '--format', 'json', '--lwa-mode', 'paper', '--verbose-precision'):
        "72cc5e843c941f415f8f7fcbba7d3acddd67804eca12b99767ea9cf6339e5f41",
    ('evaluate', '--format', 'table', '--lwa-mode', 'exact', '--grid', '51'):
        "2c692c00818f835f3e82627be77952a0f5b28f00ad709f59a54a6ef829c7c1f8",
    ('evaluate', '--format', 'table', '--lwa-mode', 'paper', '--grid', '51'):
        "79a88adb4638ae76bb6fff9b79b1fb1119421aae95baa294bac0e2ea9391c929",
    ('evaluate', '--format', 'csv', '--lwa-mode', 'exact', '--grid', '51'):
        "e715629a8cd4b6aab3b5165cdd5bcb625de782ea7b6cfd697781a1d440f8cf15",
    ('evaluate', '--format', 'csv', '--lwa-mode', 'paper', '--grid', '51'):
        "1daede2d81aa855f9255c0763193416ce85a994dc47bcb5fce0be1070923b235",
    ('evaluate', '--format', 'json', '--lwa-mode', 'exact', '--grid', '51'):
        "c40ebd7e8fe30bc2edcaaf508bb5e8f77c11609a21b4773a0b1d83f07a216ce2",
    ('evaluate', '--format', 'json', '--lwa-mode', 'paper', '--grid', '51'):
        "9875cce1130554103ee6550413730b0773353618cea04e12201126d2a976b8d7",
    ('rank', '--method', 'extension_principle'):
        "39d48f788237c8786942a0a5b3769352110b701b35efab911ea6e14606ea2bb6",
    ('rank', '--method', 'symbolic'):
        "b2a166369589b6583df848cd1db99090aa325ed7d2c35edccfff1a3785645e3a",
    ('rank', '--method', 'two_tuple'):
        "77decc766a471bd751a459bc800de1d778d5d18a3ef6a905067ba35fca78927d",
    ('rank', '--method', 'perceptual'):
        "c6c0897db5d9f5a7aa056c2c4bf28bd65bf9791b41d817019516461de17033fc",
    ('compare', '--format', 'json'):
        "ff13185554296ce9e17e9d80af85ad50e2eca6bb81a79e18f4434a19fa301a2d",
    ('compare', '--format', 'csv', '--lwa-mode', 'paper'):
        "25f45abe0bdaee72ab15c59cea53306595c53da18d13cf1dc895da80e185424e",
}


# Runs on DISTRICT_SAMPLE; exit status 2, because two rows are flagged.
DISTRICT_STDOUT_SHA256 = {
    ('compare', '--format', 'csv', '--lwa-mode', 'paper'):
        "22ba46e30a0387c9c003653e436211fbcb99599f42566d3fb3526b9254dafd1a",
    ('evaluate', '--format', 'json', '--verbose-precision', '--lwa-mode', 'paper'):
        "33c0b19c291f8976f9db4bc6dfe0cbda086e37bc89347d6ee7d15be143db4c90",
    ('compare', '--format', 'table', '--lwa-mode', 'exact'):
        "c55fee98a612e22cd5c03c06b3a7082405e89b1879c219dfee50f81afd41f8f6",
    ('compare', '--format', 'table', '--lwa-mode', 'paper'):
        "e49fcb1aef00e3f6ab610992c0fa18b57b1245b301c351932001e7d428b94e89",
    ('rank', '--method', 'perceptual'):
        "db94e32c582103d92845c9b62e7ed775a22a7e2ccceb45863d26ad0ce4feab72",
}

# Runs on the bundled sample at 3 samples, where student 22's perceptual
# cell fails; exit status 2.
FAILED_CELL_STDOUT_SHA256 = {
    ('compare', '--format', 'json', '--grid', '3', '--lwa-mode', 'exact'):
        "b9a0de8eb9e9324149a1073c6182edef5167ef34035f9d4748a0770c135f7701",
    ('compare', '--format', 'json', '--grid', '3', '--lwa-mode', 'paper'):
        "87a3cde69286373fc285ea43b5eae14e22b8c7b31272481941c15cba178069b9",
}

# `codebook validate` runs on the shipped codebook: (exit status, digest of
# stdout without its `worst delta:` line, whose last digits depend on the
# BLAS kernel).
VALIDATE_STDOUT_SHA256 = {
    ('codebook', 'validate'):
        (0, "26d1d8e4560f269e5a39220d8b4c0b5136d8416abb6f89c3d27721364a2f8860"),
    ('codebook', 'validate', '--grid', '51'):
        (2, "8d8adc52316cdd00d7f1327a735562ce9dddb21f536e2df457ad758ab52ede09"),
}

# The same digest with the Small time word's stored centroid blanked.
BLANKED_VALIDATE_STDOUT_SHA256 = (
    "c26b335ea161a8782217dd79813458016da9776bbf07c6c2933d3c3884eeb1f6")

RECOMMENDATION_FIELDS_SHA256 = (
    "8b8ea88bce4af6d8b8021bc6f0c58d5623267c7ab6b9e295b8144b9b79fdde25")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_stdout_digest(capsys, argv):
    assert main(list(argv)) == 0
    assert _digest(capsys.readouterr().out) == STDOUT_SHA256[argv]


@pytest.mark.parametrize("argv", list(DISTRICT_STDOUT_SHA256), ids=" ".join)
def test_district_sample_stdout_digest(capsys, argv):
    assert main([*argv, "--feedback", str(DISTRICT_SAMPLE)]) == 2
    assert _digest(capsys.readouterr().out) == DISTRICT_STDOUT_SHA256[argv]


@pytest.mark.parametrize("argv", list(FAILED_CELL_STDOUT_SHA256), ids=" ".join)
def test_failed_cell_stdout_digest(capsys, argv):
    assert main(list(argv)) == 2
    assert _digest(capsys.readouterr().out) == FAILED_CELL_STDOUT_SHA256[argv]


def _validate_digest(text: str) -> str:
    return _digest("".join(line for line in text.splitlines(keepends=True)
                           if "worst delta:" not in line))


@pytest.mark.parametrize("argv", list(VALIDATE_STDOUT_SHA256), ids=" ".join)
def test_codebook_validate_stdout_digest(capsys, argv):
    status, digest = VALIDATE_STDOUT_SHA256[argv]
    assert main(list(argv)) == status
    assert _validate_digest(capsys.readouterr().out) == digest


def test_codebook_validate_without_a_stored_centroid_digest(capsys, tmp_path, codebook_text):
    lines = codebook_text.splitlines()
    cells = lines[2].split(",")
    cells[12:15] = ["", "", ""]  # stored c_l, c_r and mean of the Small time word
    lines[2] = ",".join(cells)
    path = tmp_path / "no_stored.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["codebook", "validate", "--codebook", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(none)" in out
    assert _validate_digest(out) == BLANKED_VALIDATE_STDOUT_SHA256


def test_recommendation_fields_digest(codebook):
    """Every field of every cell, by `repr`, for all 625 vectors x both
    LWA modes x grid {51, 1001}: catches a change in the last bit or in
    the type of any number, printed or not."""
    vectors = itertools.product(*(param.terms for param in build_default_schema().parameters))
    records = [FeedbackRecord(str(i), choices) for i, choices in enumerate(vectors)]
    lines = []
    for lwa_mode in LWA_MODES:
        for sample_count in (51, 1001):
            options = EvalOptions(grid=DiscretizationGrid(sample_count=sample_count),
                                  lwa_mode=lwa_mode)
            report = evaluate_batch(records, cb=codebook, options=options)
            for row in report.rows:
                for method in report.methods:
                    rec = row.cells[method].recommendation
                    lines.extend(repr(getattr(rec, name))
                                 for name in rec._fields)
    assert len(lines) == 2 * 2 * 625 * 4 * 8
    assert _digest("\n".join(lines)) == RECOMMENDATION_FIELDS_SHA256
