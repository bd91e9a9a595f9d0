"""Exception types shared across the package, and the two value checks
that every input parser uses.

The CLI maps these onto distinct exit codes, so keeping the taxonomy
small and explicit matters more than fine-grained subclassing.
"""

import math
import numbers


class FieldCorrespondError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(FieldCorrespondError, ValueError):
    """Array shapes or axis counts do not agree."""


class WindowError(FieldCorrespondError, ValueError):
    """A site or sub-window falls outside the available data window."""


class CommutationError(FieldCorrespondError, ValueError):
    """A matrix tuple (or mixing matrix) fails a required commutation check."""


class NumericRangeError(FieldCorrespondError, ValueError):
    """Inputs exceed the numeric range the implementation can represent."""


class ConfigError(FieldCorrespondError, ValueError):
    """A run configuration is malformed or violates the schema."""


class VerificationError(FieldCorrespondError):
    """A verification command found residuals or checks out of tolerance."""


def check_int(value, what: str, minimum: int = None) -> int:
    """``value`` as an int (>= minimum when given); bools and non-integers
    (numpy integers pass) raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value}")
    return int(value)


def check_threshold(value, what: str, zero_ok: bool = False) -> float:
    """``value`` as a float if it is a finite number > 0 (>= 0 with ``zero_ok``).

    Anything else, bools included, raises ConfigError.
    """
    number = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value))
    if not (number and (value > 0 or zero_ok and value == 0)):
        sign = "non-negative" if zero_ok else "positive"
        raise ConfigError(f"{what} must be a {sign} finite number, got {value!r}")
    return float(value)
