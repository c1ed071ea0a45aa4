"""Exception hierarchy shared across the package, and the checks on
decoded JSON numbers that raise FormatError.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""

import math
import numbers


class KerndebiasError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(KerndebiasError):
    """Malformed input file or config (bad embedding line, bad JSON, ...)."""


class DataError(KerndebiasError):
    """Inputs are well-formed but insufficient or degenerate for the task.

    Examples: requesting more components than the available rank, an
    all-out-of-vocabulary word list, a constant vector where a correlation
    is required.
    """


class NumericalError(KerndebiasError):
    """A numerical routine failed: non-finite values, asymmetry,
    non-convergence."""


def checked_integer(value: object, name: str) -> int:
    """value as an int if it is an integer: not a bool, not a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FormatError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def checked_finite(value: object, name: str) -> float:
    """value as a float if it is a finite number: not a bool, not text."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise FormatError(f"{name!r} must be a finite number, got {value!r}")
