"""Exception taxonomy shared by the library and the command line tool.

Every error carries a short machine-parsable ``code`` and the process exit
status the CLI maps it to: 2 for usage problems, 3 for bad data or files,
4 for provenance violations.

``_is_int`` and ``_is_real`` are the package's one definition of an integer
and of a (finite) real number argument.
"""
import math

import numpy as np


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


def _is_int(value) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and numpy integers and finite floats, but not for bools."""
    return _is_int(value) or (isinstance(value, (float, np.floating)) and math.isfinite(value))
