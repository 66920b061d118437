"""Special functions tuned for the fractional filter formulas.

Each routine covers the region the package reaches and no more: real
parameters, moderate polynomial orders, and three hypergeometric shapes.
``hyp2f1`` takes the Jacobi kernel's real arguments in (0, 1] and the Hahn
transfer's terminating series on the unit circle, ``kummer_m`` the Jacobi
transfer's M(a; c; 2i omega delta) and the Laguerre kernel's real y >= 0,
and ``complex_power`` the backward-difference bases, whose real part is
never negative.  The routines favour predictable failure over silent
inaccuracy: each one raises a specific exception from
:mod:`fracfilt.errors` when asked to leave its supported region, instead
of returning a number that merely looks plausible.

Parameters are scalar.  The argument may also be a numpy array where a
sweep or a quadrature needs it: ``complex_power``, ``spherical_jn_ratio``,
every branch of ``hyp2f1`` and of ``kummer_m`` (each point down the branch
its scalar would take), and array top/bottom parameters of
``hyp3f2_unit`` (the termination index comes from a scalar top
parameter).  An array argument gives an array of the same shape,
evaluated pointwise with the same stopping rule; a scalar gives a
scalar.  An array call raises if any of its points would.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, ValidationError

# Stopping rule shared by all open-ended series in this module: a term must
# fall below SERIES_RTOL relative to the running sum SERIES_CONFIRM times in
# a row before the sum is accepted, and no series may run past
# SERIES_MAX_TERMS without raising ConvergenceError.  Array arguments apply
# the rule to each point separately.
SERIES_RTOL = 1e-16
SERIES_CONFIRM = 3
SERIES_MAX_TERMS = 10000
# An array 2F1 series takes its terms in blocks: _FIRST_BLOCK terms,
# doubling after each block up to _LAST_BLOCK, so a point that needs k
# terms costs O(log k) numpy calls and at most twice the arithmetic.
_FIRST_BLOCK = 32
_LAST_BLOCK = 1024

# Beyond this modulus the alternating Kummer series loses all significant
# digits in double precision (partial sums grow like e^{|z|} before they
# cancel), so kummer_m refuses rather than degrade quietly.
KUMMER_MAX_ABS = 50.0

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_TINY = 2.0 ** -1022                # the smallest normal double
_NO_OP = contextlib.nullcontext()   # one reusable no-op context


def _nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function on the real line (``math.gamma``).

    Raises PoleError at the poles (x = 0, -1, -2, ...) and DomainError where
    the value overflows a double (x > 171.6, or x within about 1e-308 of a
    pole).
    """
    if _nonpositive_int(x):
        raise PoleError(f"gamma pole at x = {x:g}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x:g}) overflows double precision") from None


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x); exactly zero at the poles of Gamma."""
    if _nonpositive_int(x):
        return 0.0
    return 1.0 / gamma(x)


def gamma_ratio(tops, bottoms) -> float:
    """prod Gamma(tops) / prod Gamma(bottoms) for real arguments.

    The quotient of the plain ``math.gamma`` products, multiplied in
    argument order, whenever every factor, both products and the quotient
    are finite and non-zero; otherwise exp(sum lgamma(tops) - sum
    lgamma(bottoms)) with the sign carried separately, so a ratio of two
    overflowing products still comes out.  The route follows from the
    values alone.  A pole among the tops raises PoleError, one among the
    bottoms gives 0, and a ratio beyond double range raises DomainError.
    """
    for x in tops:
        if _nonpositive_int(x):
            raise PoleError(f"gamma pole at x = {x:g} in a gamma-ratio numerator")
    if any(_nonpositive_int(x) for x in bottoms):
        return 0.0
    try:
        top = [math.gamma(x) for x in tops]
        bottom = [math.gamma(x) for x in bottoms]
    except OverflowError:
        top = bottom = [math.inf]
    num, den = math.prod(top), math.prod(bottom)
    if all(0.0 < abs(v) < math.inf for v in (*top, *bottom, num, den)):
        value = num / den
        if abs(value) < math.inf:
            return value
    log = 0.0
    for x in tops:
        log += math.lgamma(x)
    for x in bottoms:
        log -= math.lgamma(x)
    negatives = sum(x < 0.0 and math.floor(x) % 2 == 1 for x in (*tops, *bottoms))
    try:
        return (-1.0) ** negatives * math.exp(log)
    except OverflowError:
        raise DomainError(
            f"gamma ratio of {tuple(tops)} over {tuple(bottoms)} overflows double precision"
        ) from None


def _over_step(num: float, den: float, delta: float, nu: float) -> float:
    """num / (den * delta**nu), the one route from a design gain num/den or
    an integral num to its value per step.  DomainError where delta**nu or
    den * delta**nu is not a finite normal double, or the quotient
    overflows; a tiny or zero num keeps its tiny or zero quotient."""
    try:
        power = delta ** nu
        scale = den * power
        if _TINY <= power < math.inf and _TINY <= abs(scale) < math.inf:
            value = num / scale
            if abs(value) < math.inf:
                return value
    except OverflowError:      # Python's pow raises past double range
        pass
    raise DomainError(f"gain per step leaves double range at delta = {delta:g}, nu = {nu:g}")


def pochhammer_ratios(a: float, k: int) -> np.ndarray:
    """(a)_j / j! for j = 0..k as one running product.

    Each step multiplies by ((j - 1) + a) / j, so no factor overflows where
    (a)_j or j! alone would, and a nonpositive integer a ends in exact
    zeros.
    """
    j = np.arange(1, k + 1)
    return np.multiply.accumulate(np.concatenate(([1.0], ((j - 1.0) + a) / j)))


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise ValidationError(f"pochhammer index must be >= 0, got {k}")
    acc = 1.0
    for i in range(k):
        acc *= a + i
    return acc


def complex_power(z, nu: float):
    """z**nu on the principal branch -pi < arg z < pi, for the package's
    bases (1 - e^{i omega delta})/delta, whose real part is never negative.
    A z on the branch cut (-inf, 0) raises ValidationError.  z = 0 maps to
    0 for nu > 0 and 1 for nu = 0; DomainError for nu < 0.  A scalar z
    gives a complex, an array z a complex array.  A power past double
    range is inf, with no warning (sweep flags it).
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    # np.count_nonzero takes about 60% of the time of .any() on a 0-d mask
    any_zero = np.count_nonzero(zero)
    if nu < 0.0 and any_zero:
        raise DomainError("0**nu diverges for nu < 0")
    if np.count_nonzero((z.imag == 0.0) & (z.real < 0.0)):
        raise ValidationError(
            "z lies on the branch cut (-inf, 0), where z**nu has no principal value"
        )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.exp(nu * np.log(z))
        if any_zero:
            out = np.where(zero, 0j if nu > 0.0 else 1.0 + 0j, out)
    return complex(out) if out.ndim == 0 else out


def _terminating_index(*tops) -> int | None:
    """Smallest m with some scalar top parameter equal to -m, if one exists."""
    best = None
    for p in tops:
        if not isinstance(p, np.ndarray) and _nonpositive_int(p) and -p <= SERIES_MAX_TERMS:
            m = int(-p)
            if best is None or m < best:
                best = m
    return best


def _pole_before(c, m: int) -> bool:
    # (c)_k appears in denominators for k = 1..m; a nonpositive integer c
    # with -c < m puts a zero there before the sum terminates.
    if isinstance(c, np.ndarray):
        return bool(np.any((c <= 0.0) & (c == np.floor(c)) & (-c < m)))
    return _nonpositive_int(c) and -c < m


def _check_bottom(c: float, m: int, name: str) -> None:
    if _pole_before(c, m):
        raise PoleError(
            f"{name} undefined: bottom parameter {c:g} hits a pole before "
            f"the series terminates at index {m}"
        )


def _series(name: str, a: float, b: float | None, c: float, z, kmax: int | None):
    """sum_k (a)_k (b)_k / ((c)_k k!) z^k, the 2F1 series, or with b None
    the confluent series sum_k (a)_k / ((c)_k k!) z^k.

    With kmax the terminating sum of terms 0..kmax.  Otherwise the shared
    stopping rule runs, per point for an array z: a point's sum is frozen
    once it has settled, and points still moving after SERIES_MAX_TERMS
    raise ConvergenceError.  An array 2F1 series takes its terms in blocks
    (_sum_by_block); an array confluent series one term at a time
    (_sum_by_term), see there.
    """
    scalar = not isinstance(z, np.ndarray)
    if kmax is not None:
        total = term = 1.0 if scalar else np.ones(np.shape(z), np.result_type(z, 1.0))
        for k in range(kmax):
            term = term * (a + k)
            if b is not None:
                term = term * (b + k)
            term = term / ((c + k) * (k + 1)) * z
            total = total + term
        return total
    if scalar:
        total = term = 1.0
        below = 0
        for k in range(SERIES_MAX_TERMS):
            term = term * (a + k)
            if b is not None:
                term = term * (b + k)
            term = term / ((c + k) * (k + 1)) * z
            total += term
            if abs(term) < SERIES_RTOL * abs(total):
                below += 1
                if below >= SERIES_CONFIRM:
                    return total
            else:
                below = 0
        live_abs = abs(z)
    else:
        out = np.ones(z.shape, np.result_type(z, 1.0))
        flat, zl = out.reshape(-1), z.reshape(-1)
        if b is None:
            unsettled = _sum_by_term(flat, a, c, zl)
        else:
            unsettled = _sum_by_block(flat, a, b, c, zl)
        if not unsettled.size:
            return out
        live_abs = float(np.max(np.abs(unsettled)))
    params = ", ".join(f"{p:g}" for p in (a, b, c) if p is not None)
    raise ConvergenceError(
        f"{name}({params}) series did not settle within {SERIES_MAX_TERMS} "
        f"terms (|z|={live_abs:g})"
    )


def _sum_by_term(flat: np.ndarray, a: float, c: float, zl: np.ndarray):
    """The confluent series at the points zl into flat (all ones on entry),
    one numpy step per term over the points still moving, with the scalar
    loop's arithmetic.  This suits the confluent series' callers, frequency
    sweeps of many points that need tens of terms each, whose cancelling
    imaginary arguments turn any change of rounding order into a change
    in the ninth digit.  Returns the points that never settled."""
    live = np.arange(zl.size)               # flat indices still summing
    term = total = flat.copy()
    below = np.zeros(zl.size, dtype=int)
    for k in range(SERIES_MAX_TERMS):
        if not live.size:
            break
        term = term * (a + k)
        term = term / ((c + k) * (k + 1)) * zl
        total = total + term
        below = np.where(np.abs(term) < SERIES_RTOL * np.abs(total), below + 1, 0)
        done = below >= SERIES_CONFIRM
        if done.any():
            flat[live[done]] = total[done]
            keep = ~done
            live, zl, term, total, below = (
                live[keep], zl[keep], term[keep], total[keep], below[keep])
    return zl


def _sum_by_block(flat: np.ndarray, a: float, b: float, c: float, zl: np.ndarray):
    """The 2F1 series at the points zl into flat (all ones on entry), terms
    k0+1..k0+width at once for every point still moving: a cumprod of the
    term ratios and a cumsum continuing each running total, with `recent`
    carrying each point's last SERIES_CONFIRM - 1 term tests into the next
    block.  This suits the 2F1 series' caller, the kernel quadrature:
    tens of points, some needing ~700 terms near |z| = 0.95.  Sums agree
    with the scalar loop to rounding.  Returns the points that never
    settled."""
    live = np.arange(zl.size)               # flat indices still summing
    term = total = flat.copy()
    recent = np.zeros((zl.size, SERIES_CONFIRM - 1), dtype=bool)
    k0, width = 0, _FIRST_BLOCK
    while live.size and k0 < SERIES_MAX_TERMS:
        k = np.arange(k0, min(k0 + width, SERIES_MAX_TERMS), dtype=float)
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        terms = np.cumprod(ratio * zl[:, None], axis=1)
        terms *= term[:, None]
        sums = np.cumsum(np.concatenate((total[:, None], terms), axis=1), axis=1)[:, 1:]
        small = np.concatenate((recent, np.abs(terms) < SERIES_RTOL * np.abs(sums)), axis=1)
        settled = small[:, SERIES_CONFIRM - 1:].copy()
        for back in range(1, SERIES_CONFIRM):
            settled &= small[:, SERIES_CONFIRM - 1 - back:-back]
        done = settled.any(axis=1)
        if done.any():
            flat[live[done]] = sums[done, settled[done].argmax(axis=1)]
        keep = ~done
        live, zl = live[keep], zl[keep]
        term, total = terms[keep, -1], sums[keep, -1]
        recent = small[keep, small.shape[1] - (SERIES_CONFIRM - 1):]
        k0, width = k0 + k.size, min(2 * width, _LAST_BLOCK)
    return zl


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real parameters.

    Dispatch, in order:

    * a or b a nonpositive integer: exact terminating sum, any z (real or
      complex, scalar or array).  The bottom parameter may itself be a
      nonpositive integer as long as its pole sits beyond the termination
      index.  This serves the Hahn transfer on the unit circle.
    * real |z| <= 0.95: direct series.
    * real 0.95 < z < 1: connection formula in powers of 1 - z.  Needs
      c - a - b away from the integers; the logarithmic cases are not
      implemented and raise ConvergenceError.
    * z = 1: Gauss summation, requires c - a - b > 0.  The kernel reaches
      it where a quadrature node within an ulp of y = 1 rounds its
      argument to exactly 1.

    A non-terminating series takes real z in [-0.95, 1] only: a non-real
    z, a real z < -0.95 and the branch cut z > 1 raise DomainError.  A
    real array takes each point down the branch its scalar would take.
    """
    m = _terminating_index(a, b)
    if m is not None:
        _check_bottom(c, m, "2F1")
        return _series("2F1", a, b, c, z, kmax=m)
    if _nonpositive_int(c):
        raise PoleError(f"2F1 undefined for bottom parameter c = {c:g}")

    if isinstance(z, np.ndarray):
        if np.iscomplexobj(z):
            if np.any(z.imag != 0.0):
                raise DomainError("a non-terminating 2F1 takes real arguments only")
            z = z.real
        x = z.reshape(-1)
        branch = np.select([x < -0.95, x <= 0.95, x < 1.0, x == 1.0], [-1, 1, 2, 3], -1)
        out = np.empty(x.shape)
        for k in np.unique(branch):     # -1, the points outside, first
            at = branch == k
            out[at] = _real_hyp2f1(a, b, c, x[at], float(x[at][0]))
        return out.reshape(z.shape)

    if isinstance(z, complex) and z.imag != 0.0:
        raise DomainError(f"a non-terminating 2F1 takes real arguments only, got z = {z:g}")
    x = z.real if isinstance(z, complex) else float(z)
    return _real_hyp2f1(a, b, c, x, x)


def _real_hyp2f1(a: float, b: float, c: float, x, at: float):
    """Non-terminating 2F1 at real x, a float or an array whose points all
    take the branch of the float `at`."""
    if abs(at) <= 0.95:
        return _series("2F1", a, b, c, x, kmax=None)
    if 0.95 < at < 1.0:
        return _connection_near_one(a, b, c, x)
    if at == 1.0:
        if c - a - b <= 0.0:
            raise DomainError(
                f"2F1 diverges at z = 1 for c - a - b = {c - a - b:g} <= 0"
            )
        return gamma(c) * gamma(c - a - b) * rgamma(c - a) * rgamma(c - b)
    raise DomainError(f"a non-terminating 2F1 takes real z in [-0.95, 1] only, got z = {at:g}")


def _connection_near_one(a: float, b: float, c: float, x: float):
    s = c - a - b
    if abs(s - round(s)) < 1e-8:
        raise ConvergenceError(
            f"2F1 near z = 1 needs non-integer c - a - b, got {s:g} "
            "(logarithmic case not implemented)"
        )
    w = 1.0 - x
    first = (
        gamma(c) * gamma(s) * rgamma(c - a) * rgamma(c - b)
        * _series("2F1", a, b, 1.0 - s, w, kmax=None)
    )
    second = (
        gamma(c) * gamma(-s) * rgamma(a) * rgamma(b)
        * w ** s
        * _series("2F1", c - a, c - b, 1.0 + s, w, kmax=None)
    )
    return first + second


def hyp3f2_unit(a1: float, a2: float, a3: float, b1: float, b2: float):
    """Terminating 3F2(a1, a2, a3; b1, b2; 1).

    One of the top parameters must be a nonpositive integer -m with
    m <= SERIES_MAX_TERMS, otherwise ConvergenceError.  A bottom parameter
    whose pole lands before the termination index raises DomainError; the
    filter weight formulas are arranged so this cannot happen for valid
    orders.
    """
    m = _terminating_index(a1, a2, a3)
    if m is None:
        raise ConvergenceError(
            f"3F2 top parameters ({', '.join(map(_param_text, (a1, a2, a3)))}) "
            f"give no termination within {SERIES_MAX_TERMS} terms"
        )
    for b in (b1, b2):
        if _pole_before(b, m):
            raise DomainError(
                f"3F2 bottom parameter {_param_text(b)} vanishes before the series "
                f"terminates at index {m}"
            )
    total = 1.0
    term = 1.0
    for k in range(m):
        term *= (a1 + k) * (a2 + k) * (a3 + k) / ((b1 + k) * (b2 + k) * (k + 1))
        total += term
    return total


def _param_text(p) -> str:
    return f"array of {p.size}" if isinstance(p, np.ndarray) else f"{p:g}"


def kummer_m(a: float, c: float, z):
    """Confluent hypergeometric M(a, c; z) for real parameters.

    Terminating cases (a a nonpositive integer) are summed exactly for any
    z.  Otherwise the direct series runs for Re z >= 0, which covers the
    package's two callers: the Jacobi transfer's imaginary 2i omega delta
    and the Laguerre kernel's y >= 0.  A point with Re z < 0 raises
    DomainError.

    Arguments with |z| > KUMMER_MAX_ABS raise DomainError: the partial sums
    of the series reach about e^{|z|} before cancelling down to the answer,
    so double precision has lost the result long before that point.  Near
    the cap expect absolute accuracy around e^{|z|} * 1e-16 rather than
    relative accuracy.
    """
    size = np.max(np.abs(z), initial=0.0) if isinstance(z, np.ndarray) else abs(z)
    if size > KUMMER_MAX_ABS:
        raise DomainError(
            f"kummer_m supports |z| <= {KUMMER_MAX_ABS:g}; got |z| = {size:g} "
            "(series cancellation exhausts double precision)"
        )
    m = _terminating_index(a)
    if m is not None:
        _check_bottom(c, m, "M")
        return _series("M", a, None, c, z, kmax=m)
    if _nonpositive_int(c):
        raise PoleError(f"M undefined for bottom parameter c = {c:g}")
    left = np.min(z.real, initial=0.0) if isinstance(z, np.ndarray) else z.real
    if left < 0.0:
        raise DomainError(f"a non-terminating M takes Re z >= 0 only, got Re z = {left:g}")
    return _series("M", a, None, c, z, kmax=None)


@functools.lru_cache(maxsize=256)
def _odd_product(n: int) -> float:
    """(2n+1)!! as the running float product 3 * 5 * ... * (2n+1)."""
    return math.prod(range(3, 2 * n + 2, 2), start=1.0)


def spherical_jn_ratio(n: int, x):
    """j_n(x) / x^n, n >= 0, continued through x = 0 with value
    1/(2n+1)!!, for a finite float (giving a float) or array x;
    DomainError otherwise.

    The transfer function of the n-th order smoothed differentiator is
    proportional to this ratio; evaluating it directly keeps the low
    frequency end of a sweep exact instead of dividing two underflowing
    quantities.  Past n ~ 150 it underflows.

    |x| < 1: the power series.  |x| >= 1: the closed j_0 and j_1, then the
    upward recurrence where |x| > n + 1 (every |x| for n <= 1) and
    Miller's downward one elsewhere, scaled by the larger of j_0 and j_1
    so that no zero divides (DLMF 10.49, 3.6); around the turning point
    |x| = n + 1/2 Miller's measured the smaller error.  Each branch runs
    on the array clipped to its range and np.where picks; a scalar runs
    its one branch on numpy scalars, or the series on Python floats."""
    if n < 0:
        raise ValidationError(f"spherical Bessel order must be >= 0, got {n}")
    x = np.float64(x)     # a numpy float for a scalar x, else a float array
    a = abs(x)
    if not a.size:
        return a
    scalar = a.ndim == 0
    lo, hi = (a, a) if scalar else (a.min(initial=1.0), a.max(initial=0.0))
    if not hi < math.inf:
        raise DomainError("spherical Bessel functions need a finite argument")
    if lo < 1.0:
        # 1 + sum_k (-x^2/2)^k / (k! (2n+3)...(2n+2k+1)).  The terms fall
        # in modulus and the sum lies in [0.8, 1], so a term under 2^-60
        # (under half an ulp of the sum, with room) leaves the sum as it is,
        # and so does every later one.  The sum stops at the first such term
        # of the largest |x|, which is also one for every smaller |x|; at
        # |x| = 1 that is k = 10, so it never needs more than 12 terms.
        # a scalar sums in Python floats: numpy's arithmetic, bit for bit,
        # in a third of the time numpy scalars take
        xs = float(a) if scalar else a if hi < 1.0 else np.minimum(a, 1.0)
        u = -0.5 * xs * xs
        term = u / (2 * n + 3)
        total = 1.0 + term
        u_top = -0.5 * min(float(hi), 1.0) ** 2          # u at the largest |x|
        term_top = u_top / (2 * n + 3)
        for k in range(2, 13):
            d = k * (2 * n + 2 * k + 1)
            term_top *= u_top / d
            if abs(term_top) < 2.0 ** -60:
                break
            term = term * (u / d)
            total = total + term
        total = total / _odd_product(n)
        out = series = total
    if hi >= 1.0:
        # x*x and x^n stay below 2^1023 up to 2^(1023/max(n, 2)); past that
        # they overflow to inf, which gives the 0 the ratio underflows to.
        # np.errstate costs about 2 us, so it is entered only then.
        big = hi >= 2.0 ** (1023 / max(n, 2))
        with np.errstate(over="ignore") if big else _NO_OP:
            xb = a if lo >= 1.0 else np.maximum(a, 1.0)
            sin = np.sin(xb)
            j0, j1 = sin / xb, sin / (xb * xb) - np.cos(xb) / xb
            jn = (j0, j1)[n] if n <= 1 else None
            if n > 1 and hi > n + 1:
                xu, jm, jn = np.maximum(xb, n + 1.0), j0, j1
                for k in range(1, n):
                    jm, jn = jn, (2 * k + 1) / xu * jn - jm
            if n > 1 and lo <= n + 1:
                # down from far above n; a step grows |j| at most 4n + 43 times,
                # so an exact power-of-two rescale every 32 steps keeps it finite
                xm, jp, j, at_n = np.minimum(xb, n + 1.0), 0.0, np.ones(np.shape(xb)), 0.0
                for k in range(2 * n + 21, 0, -1):
                    jp, j = j, (2 * k + 1) / xm * j - jp
                    at_n = j if k - 1 == n else at_n
                    if k % 32 == 0:
                        e = -np.frexp(j)[1]
                        j, jp, at_n = np.ldexp(j, e), np.ldexp(jp, e), np.ldexp(at_n, e)
                first = np.abs(j0) >= np.abs(j1)
                miller = at_n * np.where(first, j0, j1) / np.where(first, j, jp)
                jn = miller if jn is None else np.where(xb > n + 1, jn, miller)
            jn = jn / xb ** n
        out = jn if lo >= 1.0 else np.where(a < 1.0, series, jn)
    return float(out) if scalar else out
