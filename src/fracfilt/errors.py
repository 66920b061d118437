"""Exception hierarchy shared across the package, and the one check of
each design quantity: count, fractional order, step, weight exponents.

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


def as_count(value, name: str) -> int:
    """value as a Python int >= 1, else ValidationError.  operator.index
    takes an int, a bool or a numpy integer, and refuses a float, a string
    or None."""
    try:
        n = operator.index(value)
    except TypeError:
        n = 0
    if n >= 1:
        return n
    raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def check_order(nu, n=None) -> None:
    """Refuse a fractional order nu that is not finite, or that exceeds
    the scheme order n where the design has one."""
    if math.isfinite(nu) and (n is None or nu <= n):
        return
    scheme = "" if n is None else f" or exceeds the scheme order n = {n}"
    raise ValidationError(f"fractional order nu = {nu:g} is not finite{scheme}")


def check_step(delta, name: str = "step") -> None:
    """Refuse a step (or a corner frequency) that is not positive and
    finite."""
    if not 0.0 < delta < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {delta:g}")


def check_exponents(alpha, beta=None) -> None:
    """Refuse weight exponents alpha (and beta, where the weight has one)
    that are not finite or not above -1."""
    if -1.0 < alpha < math.inf and (beta is None or -1.0 < beta < math.inf):
        return
    got = f"alpha = {alpha:g}" if beta is None else f"alpha = {alpha:g}, beta = {beta:g}"
    raise ValidationError(f"weight exponents must be finite and exceed -1, got {got}")
