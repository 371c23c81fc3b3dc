"""Exception hierarchy with machine-readable categories (used by the CLI exit paths)."""


class AkisubError(Exception):
    """Base error. `category` is the machine-readable identifier emitted by the CLI."""

    category = "internal"


class DimensionError(AkisubError):
    category = "dimension"


class ArgumentError(AkisubError):
    category = "argument"


class ConfigError(AkisubError):
    category = "config"


class SchemaError(AkisubError):
    category = "schema"


class ParseError(AkisubError):
    category = "parse"


class DataError(AkisubError):
    category = "data"


class InsufficientDataError(AkisubError):
    category = "insufficient_data"


class ImputationError(AkisubError):
    category = "imputation"


class TrainingError(AkisubError):
    category = "training"


class OptimizationError(AkisubError):
    category = "optimization"


class MetricError(AkisubError):
    category = "metric"


class FoldError(AkisubError):
    category = "fold"


class DegenerateInputError(AkisubError):
    category = "degenerate_input"


class NumericalRankError(AkisubError):
    category = "numerical_rank"


class StageDependencyError(AkisubError):
    category = "stage_dependency"


#: Exit codes per error category; anything unlisted exits 1.
EXIT_CODES = {
    "config": 2,
    "argument": 2,
    "schema": 2,
    "stage_dependency": 3,
    "parse": 4,
    "data": 4,
    "insufficient_data": 4,
    "imputation": 4,
    "dimension": 5,
    "training": 5,
    "optimization": 5,
    "metric": 5,
    "fold": 5,
    "degenerate_input": 5,
    "numerical_rank": 5,
    "internal": 1,
}
