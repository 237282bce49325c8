"""Exception taxonomy shared by the library and the command line tool.

Every error carries a short machine-parsable ``code`` and the process exit
status the CLI maps it to: 2 for usage problems, 3 for bad data or files,
4 for provenance violations.

``_is_int`` and ``_is_real`` are the package's one definition of an integer
and of a (finite) real number argument; ``_check_range`` checks one against
a declared range, as every config table and argument check does.  The ranges
modules share are declared here once: ``_COUNT`` (a positive integer),
``_SEED``, ``_RATE`` (a dropout rate) and ``_SAMPLE_COUNT`` (the pixel count
behind a corrected z-score, at most 2**53 so that it converts to a float
exactly).
"""
import math

import numpy as np

__all__ = [
    "IceFusionError",
    "UsageError",
    "ConfigurationError",
    "DimensionError",
    "DataError",
    "DegenerateStatisticsError",
    "FormatError",
    "IntegrityError",
    "UnsupportedVersionError",
    "DeadNodeError",
    "ProvenanceError",
]


class IceFusionError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3
    code = "E_ERROR"


class UsageError(IceFusionError):
    """The caller invoked an operation outside its contract."""

    exit_code = 2
    code = "E_USAGE"


class ConfigurationError(UsageError):
    """A configuration value is invalid or inconsistent."""

    code = "E_CONFIG"


class DimensionError(UsageError):
    """Array shapes do not line up with the declared geometry."""

    code = "E_DIMENSION"


class DataError(IceFusionError):
    """Input values are outside the domain an operation accepts."""

    code = "E_DATA"


class DegenerateStatisticsError(DataError):
    """A statistic was requested from too few samples to be defined."""

    code = "E_DEGENERATE_STATS"


class FormatError(DataError):
    """A file does not follow the expected on-disk layout."""

    code = "E_FORMAT"


class IntegrityError(FormatError):
    """Stored payload bytes do not match their recorded length or digest."""

    code = "E_INTEGRITY"


class UnsupportedVersionError(FormatError):
    """The file was written with a format version this build cannot read."""

    code = "E_VERSION"


class DeadNodeError(IceFusionError):
    """A z-score was requested for an input whose variance is zero."""

    code = "E_DEAD_NODE"


class ProvenanceError(IceFusionError):
    """Statistics were computed on the wrong grid for the requested analysis."""

    exit_code = 4
    code = "E_PROVENANCE"


_COUNT = (int, "[)", 1, math.inf)
_SEED = (int, "[)", 0, 2**64)
_RATE = (float, "[)", 0.0, 1.0)
_SAMPLE_COUNT = (int, "[]", 1, 2**53)


def _is_int(value) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and numpy integers and finite floats, but not for bools."""
    return _is_int(value) or (isinstance(value, (float, np.floating)) and math.isfinite(value))


def _check_range(name: str, value, spec: tuple, error: type = ConfigurationError) -> None:
    """Refuse ``value`` unless it fits ``spec``, a ``(kind, brackets, low, high)`` range.

    ``kind`` is ``int`` or ``float``, checked by ``_is_int`` or ``_is_real``;
    ``brackets`` writes the interval's ends as in ``"[)"``, square for closed.
    """
    kind, brackets, low, high = spec
    if not ((_is_int(value) if kind is int else _is_real(value))
            and (low < value if brackets[0] == "(" else low <= value)
            and (value < high if brackets[1] == ")" else value <= high)):
        ends = ", ".join(f"{end:g}" if isinstance(end, float) else str(end) for end in (low, high))
        noun = "an integer" if kind is int else "a number"
        raise error(f"{name.replace('_', ' ')} must be {noun} in "
                    f"{brackets[0]}{ends}{brackets[1]}, got {value!r}")
