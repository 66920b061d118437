"""Exception hierarchy shared across the package, and the one integer
test its validators share.

Numeric routines raise subclasses of :class:`FracfiltError` so callers can
catch one family of failures without swallowing programming errors.  The
classes double-inherit from the builtin they most resemble (``ValueError``
for bad inputs, ``RuntimeError`` for algorithmic failures) so existing
``except ValueError`` style code keeps working.
"""

import math
import operator


class FracfiltError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FracfiltError, ValueError):
    """Parameter combination rejected before any computation starts."""


class PoleError(FracfiltError, ValueError):
    """Evaluation requested exactly at a pole of the function."""


class DomainError(FracfiltError, ValueError):
    """Argument outside the region where the implementation is reliable."""


class ConvergenceError(FracfiltError, RuntimeError):
    """An iteration or quadrature failed to reach the requested accuracy."""


class GrowthError(FracfiltError, RuntimeError):
    """An integrand grew instead of decaying, so the tail cannot be bounded."""


def as_index(value):
    """value as a Python int when operator.index takes it (an int, a bool
    or a numpy integer), else NaN.  NaN compares false with everything, so
    a validator that raises unless its range test holds (``if not n >=
    1``) refuses a float, a string or None with its own message."""
    try:
        return operator.index(value)
    except TypeError:
        return math.nan
