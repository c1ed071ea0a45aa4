"""Exception hierarchy shared across the package, the checks on decoded
JSON numbers that raise FormatError, and warn, which every warning the
package logs goes through.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""

import math
import numbers

# The format of the command line's warnings, "WARNING: <message>": None
# until cli.main sets it, and until then warn leaves logging as the caller
# configured it.
LOG_FORMAT: str | None = None


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


def warn(logger: str, message: str, *args: object) -> None:
    """Log message % args as a WARNING on the named logger.

    logging is imported here, not with the package, since most runs warn
    about nothing.  Once the command line has set LOG_FORMAT, this also
    applies logging.basicConfig with it, which does nothing where the root
    logger already has a handler.
    """
    import logging

    if LOG_FORMAT is not None:
        logging.basicConfig(level=logging.WARNING, format=LOG_FORMAT)
    logging.getLogger(logger).warning(message, *args)
