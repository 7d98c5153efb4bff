"""Exception types shared across the package.

Validation problems (bad labels, dimension mismatches, malformed input,
exceeded size guardrails) raise :class:`ValidationError` or one of its
subclasses.  Iterative routines that fail to converge or to meet a residual
tolerance raise :class:`NumericalFailureError`.  The command line maps the
former to exit code 2 and the latter to exit code 3.  It also maps a
``MemoryError``, an input too large to allocate, to exit code 2.
"""
import math
from numbers import Integral

import numpy as np


class QcapError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QcapError):
    """An input violates a documented precondition."""


class LabelCollisionError(ValidationError):
    """Two subsystems in one tensor space share a label."""


class UnknownLabelError(ValidationError):
    """A subsystem label does not exist in the given space."""


class DimensionMismatchError(ValidationError):
    """Operator or state dimensions do not line up."""


class ResourceLimitError(ValidationError):
    """A requested computation exceeds a built-in size guardrail."""


class NumericalFailureError(QcapError):
    """An iterative numerical routine failed to reach its tolerance."""


def _nonnegative_int(value, message: str) -> int:
    """``value`` as a Python int if it is a non-negative integer, else ValidationError.

    Python and numpy integers pass; bool, floats and everything else do not.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ValidationError(message)
    return int(value)


def _positive_int(value, message: str) -> int:
    """``value`` as a Python int if it is a positive integer, else ValidationError."""
    if _nonnegative_int(value, message) == 0:
        raise ValidationError(message)
    return int(value)


def _positive_float(value, message: str) -> float:
    """``value`` as a float if 0 < value < inf and it is neither a bool nor complex,
    else ValidationError.

    Real numbers of any type pass, 0-d numpy arrays included; a value that
    cannot be compared with 0 (a string, None) fails like an out-of-range one.
    """
    try:
        ok = not isinstance(value, (bool, np.bool_)) and not np.iscomplexobj(value) \
            and 0 < value < math.inf
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValidationError(message)
    return float(value)
