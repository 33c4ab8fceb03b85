"""Exception hierarchy for the lir package.

Every failure mode raises a subclass of LirError so callers (and the CLI)
can distinguish data problems from numerical ones without string matching.
Every numeric argument passes _check_int or _check_real, which return a plain
int or float and raise a ConfigError (RankError for ranks and k) naming it.
"""

import numbers
import sys

_MAX = sys.float_info.max
_POSITIVE = 5e-324  # the least positive float: as a low bound, "> 0"
_AT_LEAST = "{name} must be >= {low}"


class LirError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(LirError):
    """Matrix input is empty, non-rectangular, or contains non-finite entries."""


class InvalidVector(LirError):
    """Vector or record field is empty or contains non-finite entries."""


class DimensionError(LirError):
    """Operands have incompatible dimensions."""


class RankError(LirError):
    """Requested rank or component count is outside the valid range."""


class ZeroVectorError(LirError):
    """Operation is undefined for a zero-length vector."""


class NumericalFailure(LirError):
    """An iterative routine did not converge within its budget."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


class LanguageMismatch(LirError):
    """Record and basis (or records in one set) carry different language tags."""


class MissingBasis(LirError):
    """No component basis is available for a record's language."""

    def __init__(self, lang: str):
        super().__init__(f"no component basis for language {lang!r}")
        self.lang = lang


class NoRelevantError(LirError):
    """A query has an empty relevant set."""


class DegenerateLabels(LirError):
    """Training labels contain fewer than two classes."""


class DatasetError(LirError):
    """A retrieval dataset violates a structural invariant."""


class ConfigError(LirError):
    """Invalid generator or harness configuration."""


class FormatError(LirError):
    """A file violates the expected binary or JSON layout."""


class TruncatedFile(FormatError):
    """A file ended before its declared payload was fully read."""


class CorruptBasis(LirError):
    """A stored component basis is too far from orthonormal."""


class ParseError(LirError):
    """A malformed line in a line-oriented input file."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateKey(LirError):
    """An identifier that must be unique appeared more than once."""

    def __init__(self, key: str, message: str | None = None):
        super().__init__(message or f"duplicate key {key!r}")
        self.key = key


def _check_int(name, value, low=0, high=_MAX, message=_AT_LEAST, error=ConfigError) -> int:
    """value as an int in [low, high], else error "<name> must be an integer" (a bool or
    another type), "<name> must be finite" (beyond +/-_MAX) or message, its fields filled in."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer")
    if not low <= int(value) <= high:
        message = message if -_MAX <= value <= _MAX else "{name} must be finite"
        raise error(message.format(name=name, value=value, low=low, high=high))
    return int(value)


def _check_real(name, value, low=-_MAX, what="finite") -> float:
    """value as a float in [low, _MAX], else a ConfigError "<name> must be a real number"
    (a bool or another type) or "<name> must be <what>" (NaN, +/-inf and 10**400 too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number")
    number = value if isinstance(value, numbers.Rational) else float(value)  # exact for ints
    if not low <= number <= _MAX:
        raise ConfigError(f"{name} must be {what}")
    return float(number)
