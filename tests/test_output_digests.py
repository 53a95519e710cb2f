"""Byte-identity guard: sha256 of stdout for the CLI runs on the bundled
sample, pinned at a known-good state of the engine.

The digests cover every `evaluate` combination of `--format`,
`--lwa-mode` and `--verbose-precision`, `evaluate` on the coarse
`--grid 51` for every `--format` and `--lwa-mode`, `rank` for each
method, `compare --format json` and `compare --format csv --lwa-mode
paper`. A change that alters any printed byte fails
here; if the change is meant to alter output, recompute the digest and
say why in CHANGES.md.
"""

import hashlib

import pytest

from cwwkit.cli import main

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


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_stdout_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
