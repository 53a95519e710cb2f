import sys
from importlib import resources
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cwwkit import (build_default_schema, default_codebook,
                    default_feedback_path, evaluate_batch, read_feedback_file)


@pytest.fixture(scope="session")
def schema():
    return build_default_schema()


@pytest.fixture(scope="session")
def codebook():
    return default_codebook()


@pytest.fixture(scope="session")
def codebook_text():
    """The shipped default codebook file, verbatim."""
    return resources.files("cwwkit.data").joinpath("codebook_default.csv").read_text("utf-8")


@pytest.fixture(scope="session")
def sample_rows():
    return read_feedback_file(default_feedback_path())


@pytest.fixture(scope="session")
def full_report(sample_rows, codebook):
    """The 25-student batch under default options, shared where the test
    only reads it."""
    return evaluate_batch(sample_rows, cb=codebook)
