"""Continuous convolution kernels for fractional differentiation.

A fractional derivative of order nu (upper-limit convention, so decaying
functions on the right half line are the natural domain) is realized as
delta**-nu times an integral of f(x + delta*y) against a fixed kernel
shape k(y).  The Jacobi-family kernel lives on y > -1: a polynomial-like
interior piece on (-1, 1) and an algebraically decaying tail y > 1.  At
integer nu = n the tail vanishes and the interior collapses onto the
classical orthogonal-polynomial derivative approximation.

Kernel functions here return the pure shape; apply_kernel owns the
delta**-nu scaling and the tail truncation bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, GrowthError, ValidationError
from .specfun import SQRT_TWO_PI, gamma, gamma_ratio, hyp2f1, kummer_m, rgamma

# apply_kernel extends the tail until its remainder bound drops below
# this fraction of the interior contribution.
TAIL_REL_TARGET = 1e-8
# consecutive non-decreasing tail chunks before giving up on decay
GROWTH_CHUNKS = 3
_TAIL_MAX_CUTOFF = 1e12


@dataclass(frozen=True)
class JacobiKernelParams:
    """Kernel family parameters: Jacobi exponents alpha, beta > -1,
    integer scheme order n >= 1, fractional order nu <= n, step delta."""

    alpha: float
    beta: float
    n: int
    nu: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValidationError(
                f"weight exponents must exceed -1, got alpha = {self.alpha:g}, "
                f"beta = {self.beta:g}"
            )
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValidationError(f"scheme order n must be a positive integer, got {self.n!r}")
        if self.nu > self.n:
            raise ValidationError(
                f"fractional order nu = {self.nu:g} exceeds the scheme order n = {self.n}"
            )
        if not self.delta > 0.0:
            raise ValidationError(f"step must be positive, got {self.delta:g}")


def jacobi_normalization(alpha: float, beta: float, n: int) -> float:
    """Squared norm over leading coefficient of the Jacobi polynomial,
    h_n/k_n = 2^(n+a+b+1) G(n+a+1) G(n+b+1) / G(2n+a+b+2)."""
    return 2.0 ** (n + alpha + beta + 1.0) * gamma_ratio(
        (n + alpha + 1.0, n + beta + 1.0), (2.0 * n + alpha + beta + 2.0,)
    )


def gegenbauer_legendre_params(
    alpha_g: float, n: int, nu: float, delta: float
) -> JacobiKernelParams:
    """Symmetric-weight kernel: Gegenbauer exponent alpha_g > -1/2 maps to
    alpha = beta = alpha_g - 1/2 (alpha_g = 1/2 is the Legendre case)."""
    if not alpha_g > -0.5:
        raise ValidationError(f"Gegenbauer exponent must exceed -1/2, got {alpha_g:g}")
    return JacobiKernelParams(
        alpha=alpha_g - 0.5, beta=alpha_g - 0.5, n=n, nu=nu, delta=delta
    )


def jacobi_kernel(params: JacobiKernelParams, y: float) -> float:
    """Kernel shape k(y): zero below -1, polynomial-type interior on
    (-1, 1), algebraic tail for y > 1.

    The two branches share a finite one-sided limit at y = 1 for
    fractional nu (the interior hypergeometric divergence cancels the
    vanishing prefactor), but the formulas themselves are singular there,
    so y = +1 is refused; y = -1 closes continuously with the zero side
    whenever the interior exponent allows it.
    """
    a, b, n, nu = params.alpha, params.beta, params.n, params.nu
    if y < -1.0:
        return 0.0
    if y == 1.0:
        raise DomainError(
            "kernel branch junction y = 1; evaluate nearby and take the limit"
        )
    if y == -1.0:
        if n + b - nu > 0.0:
            return 0.0
        raise DomainError(
            f"kernel endpoint y = -1 is singular for nu >= n + beta = {n + b:g}"
        )
    if y < 1.0:
        coeff = gamma(2.0 * n + a + b + 2.0) / (
            2.0 ** (2.0 * n - nu + a + b + 1.0)
            * gamma(n + a + 1.0) * gamma(n - nu + b + 1.0)
        )
        return (
            coeff
            * (1.0 - y) ** (n + a - nu) * (1.0 + y) ** (n + b - nu)
            * hyp2f1(-nu, 2.0 * n - nu + a + b + 1.0, n - nu + b + 1.0, (1.0 + y) / 2.0)
        )
    lead = rgamma(-nu)
    if lead == 0.0:
        # integer order: no tail at all
        return 0.0
    return (
        lead * (1.0 + y) ** (-nu - 1.0)
        * hyp2f1(nu + 1.0, n + b + 1.0, 2.0 * n + a + b + 2.0, 2.0 / (1.0 + y))
    )


def laguerre_kernel(alpha: float, n: int, nu: float, y: float) -> float:
    """Half-line kernel y^(n-nu+alpha) e^(-y) M(-nu; n-nu+alpha+1; y) /
    G(n-nu+alpha+1) for y >= 0 (exponential weight family)."""
    if not alpha > -1.0:
        raise ValidationError(f"weight exponent must exceed -1, got alpha = {alpha:g}")
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"scheme order n must be a positive integer, got {n!r}")
    if nu > n:
        raise ValidationError(f"fractional order nu = {nu:g} exceeds n = {n}")
    if y < 0.0:
        raise ValidationError(f"half-line kernel needs y >= 0, got {y:g}")
    p = n - nu + alpha
    if y == 0.0:
        if p > 0.0:
            return 0.0
        if p == 0.0:
            return 1.0 / gamma(n - nu + alpha + 1.0)
        raise DomainError(f"kernel singular at the origin for n - nu + alpha = {p:g} < 0")
    return (
        y ** p * math.exp(-y) * kummer_m(-nu, n - nu + alpha + 1.0, y).real
        / gamma(n - nu + alpha + 1.0)
    )


def confluent_inverse_ft(a: float, b: float, c: float, y: float) -> float:
    """Inverse Fourier transform of (i*w + 0)^(b-1) M(a, c; i*w) in closed
    piecewise form: zero for y >= 1, hypergeometric on 0 < y < 1 and
    y < 0.  Valid for 0 < b < min(a, c - a); this is the frequency-domain
    twin of the Jacobi kernel (same function up to the substitution
    y -> (1 - y)/2 and a constant).
    """
    if not (0.0 < b < min(a, c - a)):
        raise ValidationError(
            f"closed form needs 0 < b < min(a, c-a), got a = {a:g}, b = {b:g}, c = {c:g}"
        )
    if y >= 1.0:
        return 0.0
    if y == 0.0:
        raise DomainError("branch junction y = 0; evaluate nearby and take the limit")
    if y > 0.0:
        coeff = SQRT_TWO_PI * gamma(c) / (gamma(a) * gamma(1.0 - a - b + c))
        return (
            coeff * y ** (a - b) * (1.0 - y) ** (c - a - b)
            * hyp2f1(1.0 - b, c - b, c + 1.0 - a - b, 1.0 - y)
        )
    return (
        SQRT_TWO_PI * rgamma(1.0 - b) * (1.0 - y) ** (-b)
        * hyp2f1(b, c - a, c, 1.0 / (1.0 - y))
    )


@dataclass(frozen=True)
class KernelApplication:
    """Value of the kernel-integral operator together with the bound on
    the truncated part of the tail integral."""

    value: float
    tail_bound: float


def _quad(f, lo: float, hi: float) -> float:
    from scipy import integrate

    value, _ = integrate.quad(f, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-10)
    return value


def apply_kernel(
    f,
    params: JacobiKernelParams,
    x: float,
    tail_cutoff: float | None = None,
    decay_check: bool = True,
) -> KernelApplication:
    """delta**-nu * integral of f(x + delta*y) k(y) dy over y > -1.

    The interior (-1, 1) is one adaptive quadrature; the tail is summed in
    doubling chunks [1,2], [2,4], ... until the remainder bound -- last
    kernel value continued as C*y^(-nu-1) times the current |f| -- drops
    below TAIL_REL_TARGET relative to the interior part, or up to
    tail_cutoff when given.  f must decay (or at least grow slower than
    the tail dies); decay_check watches the chunk magnitudes and raises
    GrowthError when three in a row fail to shrink.
    """
    nu, delta = params.nu, params.delta
    if not nu > 0.0:
        raise ValidationError(
            f"tail integral only converges for nu > 0, got nu = {nu:g}"
        )
    if tail_cutoff is not None and not tail_cutoff > 1.0:
        raise ValidationError(f"tail cutoff must exceed 1, got {tail_cutoff:g}")

    def integrand(y: float) -> float:
        return f(x + delta * y) * jacobi_kernel(params, y)

    interior = _quad(integrand, -1.0, 1.0)
    scale = max(abs(interior), 1e-300)

    if rgamma(-nu) == 0.0:
        # integer order: the kernel has no tail
        return KernelApplication(value=interior / delta ** nu, tail_bound=0.0)

    tail = 0.0
    bound = math.inf
    lo = 1.0
    grow_streak = 0
    prev_mag = math.inf
    while True:
        hi = 2.0 * lo if tail_cutoff is None else min(2.0 * lo, tail_cutoff)
        chunk = _quad(integrand, lo, hi)
        tail += chunk
        if decay_check:
            mag = abs(chunk)
            grow_streak = grow_streak + 1 if mag >= prev_mag and mag > 0.0 else 0
            if grow_streak >= GROWTH_CHUNKS:
                raise GrowthError(
                    f"tail contributions keep growing past y = {hi:g}; "
                    "f violates the decay assumption"
                )
            prev_mag = mag
        # remainder bound: kernel continued as |k(hi)| (y/hi)^(-nu-1),
        # |f| frozen at its current edge value
        bound = abs(f(x + delta * hi)) * abs(jacobi_kernel(params, hi)) * hi / nu
        if tail_cutoff is not None and hi >= tail_cutoff:
            break
        if bound <= TAIL_REL_TARGET * scale:
            break
        if hi > _TAIL_MAX_CUTOFF:
            raise ConvergenceError(
                f"tail bound {bound:.2e} still above target at y = {hi:g}"
            )
        lo = hi

    inv_scale = delta ** -nu
    return KernelApplication(
        value=(interior + tail) * inv_scale, tail_bound=bound * inv_scale
    )


def orthogonal_derivative(
    f, n: int, alpha: float, beta: float, delta: float, x: float
) -> float:
    """n-th derivative approximation by a weighted polynomial average:
    coeff * delta^-n * integral f(x + delta*y) (1-y)^a (1+y)^b P_n(y) dy.

    Exact on polynomials up to degree n for any delta, O(delta^2) on
    smooth f for the symmetric weight.  Gauss quadrature nodes are doubled
    until the value settles.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"derivative order must be a positive integer, got {n!r}")
    if not (alpha > -1.0 and beta > -1.0):
        raise ValidationError(
            f"weight exponents must exceed -1, got alpha = {alpha:g}, beta = {beta:g}"
        )
    if not delta > 0.0:
        raise ValidationError(f"step must be positive, got {delta:g}")
    from scipy.special import eval_jacobi, roots_jacobi

    coeff = (
        gamma(2.0 * n + alpha + beta + 2.0) * gamma(n + 1.0)
        / (2.0 ** (n + alpha + beta + 1.0) * gamma(n + alpha + 1.0) * gamma(n + beta + 1.0))
    )

    def estimate(nodes: int) -> float:
        y, w = roots_jacobi(nodes, alpha, beta)
        vals = [f(x + delta * yi) * eval_jacobi(n, alpha, beta, yi) for yi in y]
        return coeff * float(w @ vals) / delta ** n

    nodes = n + 8
    best = estimate(nodes)
    while nodes <= 600:
        nodes *= 2
        refined = estimate(nodes)
        if abs(refined - best) <= max(1e-13, 1e-11 * abs(refined)):
            return refined
        best = refined
    raise ConvergenceError(
        f"quadrature failed to settle for the order-{n} derivative at x = {x:g}"
    )


def oracle_double_integral(f, params: JacobiKernelParams, x: float) -> float:
    """Reference route for apply_kernel: the order-(n-nu) upper-limit
    integral of f evaluated pointwise by quadrature, then pushed through
    the integer-order orthogonal_derivative (with the upper-limit sign
    (-1)^n).  No interchange of the two integrals, so agreement with
    apply_kernel checks exactly the step the kernel construction relies
    on.  Slow; intended for tests."""
    mu = params.n - params.nu
    if mu < 0.0:
        raise ValidationError(f"needs nu <= n, got nu = {params.nu:g}, n = {params.n}")
    if mu == 0.0:
        smoothed = f
    else:
        from scipy import integrate

        inv_mu = 1.0 / mu
        norm = mu * gamma(mu)

        def smoothed(t: float) -> float:
            val, _ = integrate.quad(
                lambda r: f(t + r ** inv_mu), 0.0, math.inf, limit=400
            )
            return val / norm

    sign = -1.0 if params.n % 2 else 1.0
    return sign * orthogonal_derivative(
        smoothed, params.n, params.alpha, params.beta, params.delta, x
    )
