"""Exception hierarchy shared by all cwwkit modules.

The CLI maps these onto its exit-code contract: configuration problems
exit 1, data and validation problems exit 2.
"""


class CwwError(Exception):
    """Base class for all cwwkit errors."""


class SchemaError(CwwError):
    """A feedback record or file does not match the parameter schema."""


class WordResolutionError(CwwError):
    """A word could not be resolved against a parameter's term set."""

    def __init__(self, parameter: str, word: str):
        self.parameter = parameter
        self.word = word
        super().__init__(f"unknown word {word!r} for parameter {parameter!r}")


class CodebookError(CwwError):
    """Codebook parsing, validation, completeness or lookup failure."""


class DegenerateInputError(CwwError):
    """A fuzzy set carries no membership mass on the evaluation grid, or an
    aggregate of valid word models is not a valid word model."""


class ConfigurationError(CwwError):
    """The evaluation pipeline was configured inconsistently."""
