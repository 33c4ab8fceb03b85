"""Exception hierarchy for the lir package, and its argument policy: one checker
per kind of argument (_check_int, _check_real, _real_array, _check_name,
_check_choice, _mapping, _check_type), each raising a LirError subclass that
names the argument before any work starts, as the README's argument table lists.
"""

import numbers
import sys
from collections.abc import Iterable, Mapping

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


def _check_real(name, value, low=-_MAX, what="finite", high=_MAX) -> float:
    """value as a float in [low, high], else a ConfigError "<name> must be a real number"
    (a bool or another type) or "<name> must be <what>" (NaN, +/-inf and 10**400 too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number")
    number = value if isinstance(value, numbers.Rational) else float(value)  # exact for ints
    if not low <= number <= high:
        raise ConfigError(f"{name} must be {what}")
    return float(number)


def _check_name(name, value, error=ConfigError, empty="{name} is empty", strip=False) -> str:
    """value (a str, or a subclass such as np.str_), trimmed with strip, else error
    "<name> must be a string" (another type) or empty (empty or, with strip, blank)."""
    if not isinstance(value, str):
        raise error(f"{name} must be a string")
    value = value.strip() if strip else value
    if not value:
        raise error(empty.format(name=name))
    return value


def _check_choice(name, value, choices, error=ConfigError):
    """value if it equals a choice of its own type ("orthogonal" is no RemovalMode), else error."""
    if not any(type(value) is type(choice) and value == choice for choice in choices):
        raise error(f"{name} must be one of {', '.join(map(repr, choices))}, got {value!r}")
    return value


def _real_array(name, value, ndim, error, nonempty=(), finite=True):
    """value as a float64 array (a float64 array is not copied), else error
    "<name> must be an array of real numbers" (str, object, complex, ragged),
    "<name> must be <ndim>-D" (ndim: a count or a tuple), "<name> is empty"
    (an axis in nonempty) or, with finite, "<name> has non-finite entries"."""
    import numpy as np  # here, not at the top: importing the errors alone loads no numpy
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise error(f"{name} must be an array of real numbers")
    ndims = ndim if isinstance(ndim, tuple) else (ndim,)
    if array.ndim not in ndims:
        raise error(f"{name} must be {' or '.join(f'{n}-D' for n in ndims)}, got ndim={array.ndim}")
    if any(array.shape[axis] == 0 for axis in nonempty):
        raise error(f"{name} is empty: shape {array.shape}")
    array = array.astype(np.float64, copy=False)
    if finite and not np.isfinite(array).all():
        raise error(f"{name} has non-finite entries")
    return array


def _mapping(name, value, error=ConfigError) -> Mapping:
    """value if a Mapping (a list of pairs is not), else error "<name> must be a mapping"."""
    if not isinstance(value, Mapping):
        raise error(f"{name} must be a mapping")
    return value


def _check_type(name, value, kind, error=ConfigError, each=False):
    """value if an instance of kind (a flag's is bool, which np.True_ is not), else error
    "<name> must be of type <kind>, got <type>". With each, value is an iterable of such
    instances, returned as a tuple; the error then names "<name>[i]", the first other item."""
    items = tuple(_check_type(name, value, Iterable, error)) if each else (value,)
    for i, item in enumerate(items):
        if not isinstance(item, kind):
            label = f"{name}[{i}]" if each else name
            raise error(f"{label} must be of type {kind.__name__}, got {type(item).__name__}")
    return items if each else value
