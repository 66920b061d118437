"""Reference fractional operators.

These are the oracles the rest of the package is checked against: exact
power-law actions of the fractional integral, a direct quadrature for the
integral definition, and the fractional backward difference with
binomial-type coefficients.  They are deliberately plain; nothing here is
tuned for speed beyond what correctness requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, as_count, check_order, check_step
from .hahn import FilterWeights, apply_discrete_filter
from .kernels import _level_nodes, _tanh_sinh
from .specfun import _nonpositive_int, _over_step, gamma, gamma_ratio, pochhammer_ratios


@dataclass(frozen=True)
class FractionalOrder:
    """Bookkeeping for a differentiation order nu = n - mu.

    n is the smallest integer strictly greater than nu, so mu = n - nu is
    always in (0, 1].  An exact integer order deliberately takes the
    fractional route with n = nu + 1: differentiating once more than nu and
    integrating the excess is how every identity in this package treats
    integer orders, and keeping that path exercised is the point.
    """

    nu: float

    def __post_init__(self) -> None:
        check_order(self.nu)
        if not self.nu > 0.0:
            raise ValidationError(f"order must be positive, got nu = {self.nu:g}")

    @property
    def n(self) -> int:
        return int(math.floor(self.nu)) + 1

    @property
    def mu(self) -> float:
        return self.n - self.nu


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniformly sampled function values f(x0 + k*delta), k = 0..len-1.

    causal=True declares f identically zero before x0, which is what makes
    backward fractional sums finite; with causal=False the available
    history is exactly the stored samples and nothing more is assumed.
    samples is a read-only copy of the values given, so the caller's array
    stays theirs and nothing computed from a signal can go stale.
    """

    x0: float
    delta: float
    samples: np.ndarray
    causal: bool = False

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if not math.isfinite(self.x0):
            raise ValidationError(f"first position x0 must be finite, got {self.x0:g}")
        check_step(self.delta)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValidationError("samples must be a non-empty one-dimensional array")

    def __len__(self) -> int:
        return int(self.samples.size)

    def position(self, index: int) -> float:
        return self.x0 + index * self.delta


def _gamma_ratio(top: float, bottom: float) -> float:
    """Gamma(top)/Gamma(bottom) with pole bookkeeping.

    A pole in the denominator alone kills the ratio (returns 0); poles in
    both arguments leave the finite limit (-1)^(bottom-top) *
    Gamma(1-bottom)/Gamma(1-top); a pole in the numerator alone is a real
    singularity and raises PoleError.
    """
    if _nonpositive_int(top) and _nonpositive_int(bottom):
        sign = -1.0 if round(bottom - top) % 2 else 1.0
        return sign * gamma_ratio((1.0 - bottom,), (1.0 - top,))
    return gamma_ratio((top,), (bottom,))


def rl_power(alpha: float, mu: float, x: float, extended: bool = False) -> float:
    """Fractional integral of order mu acting on the power x**alpha.

    Returns Gamma(alpha+1)/Gamma(alpha+mu+1) * x**(alpha+mu); negative mu
    is the fractional derivative of order -mu.  The classical coefficient
    requires alpha > -1; extended=True switches to the analytic
    continuation Gamma(-alpha-mu)/Gamma(-alpha) * x**(alpha+mu) that
    covers exponents alpha <= -1 (the decaying-power regime).
    """
    if not x > 0.0:
        raise ValidationError(f"power actions need x > 0, got x = {x:g}")
    check_order(mu)
    if extended:
        coeff = _gamma_ratio(-alpha - mu, -alpha)
    else:
        coeff = _gamma_ratio(alpha + 1.0, alpha + mu + 1.0)
    return coeff * x ** (alpha + mu)


def weyl_power(alpha: float, mu: float, x: float) -> float:
    """Upper-limit fractional integral of order mu acting on x**alpha.

    Returns Gamma(-alpha-mu)/Gamma(-alpha) * x**(alpha+mu), finite for the
    decaying powers (alpha + mu < 0) where the integral from above
    converges.  The ratio weyl_power/rl_power equals
    sin(pi*alpha)/sin(pi*(alpha+mu)) wherever both make sense.
    """
    return rl_power(alpha, mu, x, extended=True)


def rl_integral_numeric(f, mu: float, x: float, lower: float) -> float:
    """(1/Gamma(mu)) * integral of f(y) (x-y)^(mu-1) over [lower, x].

    Runs on apply_kernel's tanh-sinh levels, whose nodes carry x - y at
    full precision for the weight's endpoint power.  Both limits must be
    finite, and f smooth on [lower, x]: a kink or a jump there raises
    ConvergenceError.
    """
    check_order(mu)
    if not mu > 0.0:
        raise ValidationError(f"integral order must be positive, got mu = {mu:g}")
    if not -math.inf < lower <= x < math.inf:
        raise ValidationError(f"need finite limits lower <= x, got {lower:g} and {x:g}")
    if x == lower:
        return 0.0

    def level_values(level):
        y, d_lo, d_hi = _level_nodes(lower, x, level)      # d_hi = x - y
        fy = np.array([f(yi) for yi in y.tolist()], dtype=float)
        return fy * d_hi ** (mu - 1.0), d_lo, d_hi

    return _tanh_sinh(level_values, lower, x, (0.0, mu - 1.0)) / gamma(mu)


def gl_coefficients(nu: float, count: int) -> np.ndarray:
    """First `count` backward-difference coefficients (-nu)_k / k!.

    Computed as the running product c_0 = 1, c_k = c_{k-1} * ((k-1-nu)/k),
    which is stable, overflow-free, and terminates exactly at integer nu.
    """
    check_order(nu)
    return pochhammer_ratios(-nu, as_count(count, "coefficient count") - 1)


def gl_weights(nu: float, terms: int, delta: float) -> FilterWeights:
    """The fractional backward difference as a filter: forward tap
    c_0 = 1, backward taps c_1..c_{terms-1} with c_k = (-nu)_k / k! from
    gl_coefficients, which checks nu and terms, and prefactor 1/delta**nu
    from specfun._over_step.  A tap past double range raises DomainError."""
    check_step(delta)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = gl_coefficients(nu, terms)
    if not np.isfinite(coeffs).all():
        raise DomainError(f"gl taps of order {nu:g} overflow double precision")
    return FilterWeights(forward=coeffs[:1], backward=coeffs[1:],
                         prefactor=_over_step(1.0, 1.0, delta, nu))


def gl_difference(signal: SampledSignal, nu: float, at_index: int, terms: int) -> float:
    """Scaled fractional backward difference at one sample.

    delta^(-nu) * sum_{k=0}^{terms-1} [(-nu)_k / k!] f(x - k delta).
    Negative nu turns the difference into the fractional summation.  For a
    causal signal the sum is silently capped at the available history
    (everything earlier is zero by definition); for a non-causal signal a
    window reaching past the first sample is an error, never a guess.
    """
    if signal.causal:
        # taps reaching past the first sample only ever meet zeros
        terms = min(terms, len(signal))
    return apply_discrete_filter(signal, gl_weights(nu, terms, signal.delta), at_index)
