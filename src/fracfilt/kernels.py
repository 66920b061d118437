"""Continuous convolution kernels for fractional differentiation.

A fractional derivative of order nu (upper-limit convention, so decaying
functions on the right half line are the natural domain) is realized as
delta**-nu times an integral of f(x + delta*y) against a fixed kernel
shape k(y).  The Jacobi-family kernel lives on y > -1: a polynomial-like
interior piece on (-1, 1) and an algebraically decaying tail y > 1.  At
integer nu = n the tail vanishes and the interior collapses onto the
classical orthogonal-polynomial derivative approximation.

Kernel functions here return the pure shape; apply_kernel owns the
delta**-nu scaling and the tail truncation bookkeeping.  jacobi_kernel
takes a float or a whole array of y, and apply_kernel integrates with a
nested tanh-sinh rule over whole node arrays, one kernel call per level
and no scipy.  The nodes and k values are cached per kernel shape and chunk
(<= 14 MB), so only a new shape pays for the 2F1s; a new x or delta, for f.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GrowthError, ValidationError
from .specfun import SQRT_TWO_PI, gamma, gamma_ratio, hyp2f1, kummer_m, rgamma

# apply_kernel extends the tail until its remainder bound drops below
# this fraction of the interior contribution.
TAIL_REL_TARGET = 1e-8
# consecutive non-decreasing tail chunks before giving up on decay
GROWTH_CHUNKS = 3
_TAIL_MAX_CUTOFF = 1e12
# tanh-sinh nodes reach |t| = _TS_T_MAX, where a node sits ~1e-275 from
# its end.  A chunk gets at most _TS_LEVELS levels (step 1/2 down to
# 2^-_TS_LEVELS).
_TS_T_MAX = 6.0
_TS_LEVELS = 8
_TABLE_CACHE_SIZE = 256    # _level_table entries, <= 54 KB each (level 7)


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


def jacobi_kernel(params: JacobiKernelParams, y, *, _gaps=None):
    """Kernel shape k(y) for a float y (giving a float) or an array y
    (giving an array of the same shape): zero below -1, polynomial-type
    interior on (-1, 1), algebraic tail for y > 1.

    At y = 1 the kernel behaves like |1 - y|^(n+alpha-nu) on both sides
    (a finite one-sided limit when that exponent is positive); the
    formulas are singular there, so y = +1 is refused.  y = -1 closes
    continuously with the zero side whenever the interior exponent
    n+beta-nu allows it.  Each side is written so that its 2F1 stays
    finite as its argument reaches 1 (Euler's transformation where the
    direct form would diverge), and the powers of 1 + y and |1 - y| carry
    the singular part.  ``_gaps`` = (1 + y, 1 - y) lets a quadrature pass
    those two distances at full relative precision for nodes closer to
    +-1 than a double y can resolve.
    """
    u, v = (1.0 + y, 1.0 - y) if _gaps is None else _gaps
    if not isinstance(u, np.ndarray):
        if u < 0.0:
            return 0.0
        _check_kernel_points(params, u == 0.0, v == 0.0, u != u)
        if u == 0.0:
            return 0.0
        return _kernel_piece(params, u, v, v > 0.0)
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    _check_kernel_points(params, (u == 0.0).any(), (v == 0.0).any(), np.isnan(u).any())
    out = np.zeros(u.shape)
    for at, interior in (((u > 0.0) & (v > 0.0), True), (v < 0.0, False)):
        if at.any():
            out[at] = _kernel_piece(params, u[at], v[at], interior)
    return out


def _check_kernel_points(params: JacobiKernelParams, at_minus_one, at_one, nan) -> None:
    if nan:
        raise DomainError("kernel argument is NaN")
    if at_one:
        raise DomainError(
            "kernel branch junction y = 1; evaluate nearby and take the limit"
        )
    if at_minus_one and not params.n + params.beta - params.nu > 0.0:
        raise DomainError(
            f"kernel endpoint y = -1 is singular for nu >= n + beta = "
            f"{params.n + params.beta:g}"
        )


def _kernel_piece(params: JacobiKernelParams, u, v, interior: bool):
    """k at points with u = 1 + y > 0 and v = 1 - y, all on one side of
    y = 1: the interior (v > 0) or the tail (v < 0)."""
    a, b, n, nu = params.alpha, params.beta, params.n, params.nu
    p = n + a - nu                      # exponent of |1 - y| at y = 1
    fractional = rgamma(-nu) != 0.0
    if interior:
        q = n + b - nu                  # exponent of 1 + y at y = -1
        coeff = gamma(2.0 * n + a + b + 2.0) / (
            2.0 ** (2.0 * n - nu + a + b + 1.0)
            * gamma(n + a + 1.0) * gamma(n - nu + b + 1.0)
        )
        if fractional and p > 0.0:
            # Euler: the (1 - y)^p in front cancels the 2F1's divergence
            return coeff * 2.0 ** p * u ** q * hyp2f1(
                n + b + 1.0, -n - a, n - nu + b + 1.0, u / 2.0)
        return coeff * v ** p * u ** q * hyp2f1(
            -nu, 2.0 * n - nu + a + b + 1.0, n - nu + b + 1.0, u / 2.0)
    if not fractional:
        # integer order: no tail at all
        return 0.0 * u
    lead = rgamma(-nu) * u ** (-nu - 1.0)
    if p < 0.0:
        # Euler: 2F1 = (1 - z)^p F(...), with 1 - z = (y - 1)/(y + 1)
        return lead * (-v / u) ** p * hyp2f1(
            2.0 * n + a + b + 1.0 - nu, n + a + 1.0, 2.0 * n + a + b + 2.0, 2.0 / u)
    return lead * hyp2f1(nu + 1.0, n + b + 1.0, 2.0 * n + a + b + 2.0, 2.0 / u)


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


@functools.cache
def _tanh_sinh_level(level: int):
    """One level of the nested tanh-sinh rule on [-1, 1] (Takahashi & Mori
    1974): s = tanh(pi/2 sinh t) at t = j/2 for level 0 and at the odd
    multiples of 2^-(level+1) after it, |t| <= _TS_T_MAX.  Returns each
    node's distances 1 + s and 1 - s, both to full relative precision,
    and its weight with the level's step folded in."""
    h = 0.5 ** (level + 1)
    step = 2 if level else 1
    j = np.arange(step - 1, round(_TS_T_MAX / h) + 1, step)
    t = np.concatenate((-j[::-1], j[j > 0])) * h
    e = np.exp(-math.pi * np.sinh(np.abs(t)))
    near = 2.0 * e / (1.0 + e)          # 1 - |s|, without cancellation
    far = 2.0 - near
    lower = np.where(t < 0.0, near, far)
    upper = np.where(t < 0.0, far, near)
    weight = h * (0.5 * math.pi) * np.cosh(t) * lower * upper
    return lower, upper, weight


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _level_table(alpha, beta, n, nu, lo, hi, level: int, with_edge: bool):
    """The x-, f- and delta-free half of one _integrate level on [lo, hi]:
    nodes y, their distances d_lo, d_hi to both ends, k(y), the weights
    and, at level 0 with with_edge, k(hi).  The arrays are read-only."""
    lower, upper, weight = _tanh_sinh_level(level)
    half = 0.5 * (hi - lo)
    d_lo, d_hi = half * lower, half * upper
    near_lo = d_lo <= d_hi
    y = np.where(near_lo, lo + d_lo, hi - d_hi)
    u = np.where(near_lo, (1.0 + lo) + d_lo, (1.0 + hi) - d_hi)    # 1 + y
    v = np.where(near_lo, (1.0 - lo) - d_lo, (1.0 - hi) + d_hi)    # 1 - y
    params = JacobiKernelParams(alpha, beta, n, nu, 1.0)
    if with_edge and level == 0:
        k = jacobi_kernel(params, np.append(y, hi),
                          _gaps=(np.append(u, 1.0 + hi), np.append(v, 1.0 - hi)))
        k, edge = k[:-1], float(k[-1])
    else:
        k, edge = jacobi_kernel(params, y, _gaps=(u, v)), None
    for a in (y, d_lo, d_hi, k, weight):
        a.flags.writeable = False
    return y, d_lo, d_hi, k, weight, edge


def _integrate(f, params: JacobiKernelParams, x: float, lo: float, hi: float,
               powers: tuple[float, float], with_edge: bool):
    """integral of f(x + delta*y) k(y) over [lo, hi] by nested tanh-sinh
    levels, stopping once two agree to max(1e-13, 1e-10 |I|).

    `powers` are the exponents e of the kernel's behaviour at lo and hi.
    Nodes carry their distances d to both ends, so those powers never see
    a rounded y.  At an end with e < 0 the integrand goes like c d^e, and
    for e near -1 a visible share of its mass lies closer to the end than
    any node: there the rule integrates the integrand minus c d^e, and
    c d^e is added in closed form, with c read off the outermost node.
    With with_edge also returns k(hi), taken in level 0's kernel call."""
    shape = (float(params.alpha), float(params.beta), params.n, float(params.nu))
    half = 0.5 * (hi - lo)
    e_lo, e_hi = powers
    estimate = None
    for level in range(_TS_LEVELS):
        y, d_lo, d_hi, k, weight, k_hi = _level_table(*shape, lo, hi, level, with_edge)
        fk = np.array([f(x + params.delta * yi) for yi in y.tolist()], dtype=float) * k
        if level == 0:
            edge = k_hi
            c_lo, c_hi = (fk[i] / d[i] ** e if e < 0.0 else 0.0
                          for i, d, e in ((0, d_lo, e_lo), (-1, d_hi, e_hi)))
            power_part = sum(c * (hi - lo) ** (1.0 + e) / (1.0 + e)
                             for c, e in ((c_lo, e_lo), (c_hi, e_hi)))
        if c_lo:
            fk -= c_lo * d_lo ** e_lo
        if c_hi:
            fk -= c_hi * d_hi ** e_hi
        part = half * float(weight @ fk)
        if estimate is not None:
            refined = 0.5 * estimate + part
            total = refined + power_part
            if abs(refined - estimate) <= max(1e-13, 1e-10 * abs(total)):
                return total, edge
            part = refined
        estimate = part
    raise ConvergenceError(
        f"kernel integral over [{lo:g}, {hi:g}] did not settle within "
        f"{_TS_LEVELS} tanh-sinh levels"
    )


def apply_kernel(
    f,
    params: JacobiKernelParams,
    x: float,
    tail_cutoff: float | None = None,
    decay_check: bool = True,
) -> KernelApplication:
    """delta**-nu * integral of f(x + delta*y) k(y) dy over y > -1.

    The interior (-1, 1) and each tail chunk [1,2], [2,4], ... is one
    nested tanh-sinh integral: one jacobi_kernel call over a whole level
    of nodes, one f call per node with a float.  Chunks are added until
    the remainder bound -- last kernel value continued as C*y^(-nu-1)
    times the current |f| -- drops below TAIL_REL_TARGET relative to the
    interior part, or up to tail_cutoff when given.  f must decay (or at
    least grow slower than the tail dies); decay_check watches the chunk
    magnitudes and raises GrowthError when three in a row fail to shrink.
    A chunk whose levels do not settle raises ConvergenceError.

    The levels converge fast only where f(x + delta*y) is smooth in y on
    the whole chunk.  A kink or a jump of f inside the interior
    [x - delta, x + delta] or inside a tail chunk converges algebraically,
    and the call raises ConvergenceError instead of returning a value.
    """
    nu, delta = params.nu, params.delta
    if not nu > 0.0:
        raise ValidationError(
            f"tail integral only converges for nu > 0, got nu = {nu:g}"
        )
    if tail_cutoff is not None and not tail_cutoff > 1.0:
        raise ValidationError(f"tail cutoff must exceed 1, got {tail_cutoff:g}")

    at_one = params.n + params.alpha - nu    # k ~ |1 - y|^at_one at y = 1
    interior, _ = _integrate(f, params, x, -1.0, 1.0,
                             (params.n + params.beta - nu, at_one), False)
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
        chunk, k_hi = _integrate(f, params, x, lo, hi,
                                 (at_one if lo == 1.0 else 0.0, 0.0), True)
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
        bound = abs(f(x + delta * hi)) * abs(k_hi) * hi / nu
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
