"""Special functions tuned for the fractional filter formulas.

Everything in this module is written for the parameter ranges that actually
occur in the kernel and filter expressions: moderate polynomial orders, real
parameters, hypergeometric arguments on or near the unit interval, and purely
imaginary confluent arguments of moderate modulus.  The routines favour
predictable failure over silent inaccuracy: each one raises a specific
exception from :mod:`fracfilt.errors` when asked to leave its supported
region, instead of returning a number that merely looks plausible.

Parameters are scalar.  The argument may also be a numpy array where a
sweep or a quadrature needs it: ``complex_power``, the spherical Bessel
functions, every real branch of ``hyp2f1`` (each point down the branch
its scalar would take) and its ``|z| <= 0.95`` branch for non-real
arrays, every branch of ``kummer_m``, and array top/bottom parameters of
``hyp3f2_unit`` (the termination index comes from a scalar top
parameter).  An array argument gives an array of the same shape,
evaluated pointwise with the same stopping rule; a scalar gives a
scalar.  An array call raises if any of its points would.
"""

from __future__ import annotations

import enum
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


class CutSide(enum.Enum):
    """Side of the negative real axis on which a power is evaluated."""

    PLUS_I0 = "+i0"
    MINUS_I0 = "-i0"


def complex_power(z, nu: float, side: CutSide | None = None):
    """z**nu on the branch -pi < arg z < pi, explicit about the cut.

    For z strictly on the negative real axis the principal value is
    ambiguous, and relying on the sign of a floating zero imaginary part is
    exactly the kind of silent convention slip this function exists to
    prevent.  The caller must then pass ``side``:

        (z + i0)^nu = e^{+i pi nu} (-z)^nu
        (z - i0)^nu = e^{-i pi nu} (-z)^nu

    Off the cut ``side`` is ignored.  z = 0 maps to 0 for nu > 0 and 1 for
    nu = 0; DomainError for nu < 0.  A scalar z gives a complex, an array
    z a complex array; an array with any point on the cut needs ``side``.
    A power past double range is inf, with no warning (sweep flags it).
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    cut = (z.imag == 0.0) & (z.real < 0.0)
    if nu < 0.0 and zero.any():
        raise DomainError("0**nu diverges for nu < 0")
    if side is None and cut.any():
        raise ValidationError(
            "z lies on the branch cut; pass side=CutSide.PLUS_I0 or "
            "side=CutSide.MINUS_I0 to pick a boundary value"
        )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.exp(nu * np.log(z))
        if zero.any():
            out = np.where(zero, 0j if nu > 0.0 else 1.0 + 0j, out)
        if cut.any():
            sign = 1.0 if side is CutSide.PLUS_I0 else -1.0
            out = np.where(cut, (-z.real) ** nu * np.exp(sign * 1j * math.pi * nu), out)
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
      index.
    * |z| <= 0.95: direct series (complex z allowed).
    * real z < -0.5: Pfaff map z -> z/(z-1) onto (0, 1), then recurse.
    * real 0.95 < z < 1: connection formula in powers of 1 - z.  Needs
      c - a - b away from the integers; the logarithmic cases are not
      implemented and raise ConvergenceError.
    * z = 1: Gauss summation, requires c - a - b > 0.

    Anything else (real z > 1 sits on the branch cut, non-real z with
    |z| > 0.95) is outside the supported region and raises DomainError.
    A real array takes each point down the branch its scalar would take;
    a non-real array must lie inside |z| <= 0.95 as a whole.
    """
    m = _terminating_index(a, b)
    if m is not None:
        _check_bottom(c, m, "2F1")
        return _series("2F1", a, b, c, z, kmax=m)
    if _nonpositive_int(c):
        raise PoleError(f"2F1 undefined for bottom parameter c = {c:g}")

    if isinstance(z, np.ndarray):
        if np.iscomplexobj(z):
            if np.all(np.abs(z) <= 0.95):
                return _series("2F1", a, b, c, z, kmax=None)
            if np.any(z.imag != 0.0):
                raise DomainError(
                    "2F1 takes a non-real array argument only for |z| <= 0.95 "
                    "throughout; evaluate other points one at a time"
                )
        x = z.real.reshape(-1)
        branch = np.select(
            [x < -0.5, np.abs(x) <= 0.95, x < 1.0, x == 1.0], [0, 1, 2, 3], -1)
        out = np.empty(x.shape)
        for k in np.unique(branch):     # -1, the points outside, first
            at = branch == k
            out[at] = _real_hyp2f1(a, b, c, x[at], float(x[at][0]))
        return out.reshape(z.shape)

    if isinstance(z, complex) and z.imag != 0.0:
        if abs(z) <= 0.95:
            return _series("2F1", a, b, c, z, kmax=None)
        raise DomainError(
            f"2F1 supports non-real arguments only for |z| <= 0.95, got |z| = {abs(z):g}"
        )
    x = z.real if isinstance(z, complex) else float(z)
    return _real_hyp2f1(a, b, c, x, x)


def _real_hyp2f1(a: float, b: float, c: float, x, at: float):
    """Non-terminating 2F1 at real x, a float or an array whose points all
    take the branch of the float `at`."""
    if at < -0.5:
        # Pfaff: 2F1(a, b; c; x) = (1-x)^(-a) 2F1(a, c-b; c; x/(x-1)),
        # and x/(x-1) lands in (1/3, 1) where the other branches apply.
        return (1.0 - x) ** (-a) * hyp2f1(a, c - b, c, x / (x - 1.0))
    if abs(at) <= 0.95:
        return _series("2F1", a, b, c, x, kmax=None)
    if at < 1.0:
        return _connection_near_one(a, b, c, x)
    if at == 1.0:
        if c - a - b <= 0.0:
            raise DomainError(
                f"2F1 diverges at z = 1 for c - a - b = {c - a - b:g} <= 0"
            )
        return gamma(c) * gamma(c - a - b) * rgamma(c - a) * rgamma(c - b)
    raise DomainError(f"2F1 argument z = {at:g} lies on the branch cut [1, inf)")


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
    z.  Otherwise the direct series is used for Re z >= 0 and the Kummer
    transformation M(a, c; z) = e^z M(c-a, c; -z) for Re z < 0, which keeps
    every term of the inner series positive-real-argument and well behaved.
    An array z takes each point down its own branch.

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
    flip = z.real < 0.0
    if isinstance(z, np.ndarray):
        if flip.any() and not flip.all():
            out = np.empty(z.shape, np.result_type(z, 1.0))
            out[flip] = kummer_m(a, c, z[flip])
            out[~flip] = kummer_m(a, c, z[~flip])
            return out
        flip = flip.any()
    if flip:
        return np.exp(z) * kummer_m(c - a, c, -z)
    return _series("M", a, None, c, z, kmax=None)


def _spherical_bessel(n: int, x, ratio: bool):
    """j_n(x), or j_n(x)/x^n when ratio, for a finite float or array x.

    |x| < 1: the ratio's power series.  |x| >= 1: the closed j_0 and j_1,
    then the upward recurrence where |x| > n + 1 (every |x| for n <= 1)
    and Miller's downward one elsewhere, scaled by the larger of j_0 and
    j_1 so that no zero divides (DLMF 10.49, 3.6); around the turning
    point |x| = n + 1/2 Miller's measured the smaller error.  Each branch
    runs on the array clipped to its range and np.where picks; a scalar
    runs its one branch on numpy scalars."""
    if n < 0:
        raise ValidationError(f"spherical Bessel order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if not a.size:
        return a
    lo, hi = (a, a) if a.ndim == 0 else (a.min(initial=1.0), a.max(initial=0.0))
    if not hi < math.inf:
        raise DomainError("spherical Bessel functions need a finite argument")
    if lo < 1.0:
        # 1 + sum_k (-x^2/2)^k / (k! (2n+3)...(2n+2k+1)): the first term
        # under SERIES_RTOL of the sum comes by k = 9 and later ones are
        # under half an ulp, so 12 terms give the bits of stopping there
        xs = a if hi < 1.0 else np.minimum(a, 1.0)
        u, term, total = -0.5 * xs * xs, 1.0, 1.0
        for k in range(1, 13):
            term = term * (u / (k * (2 * n + 2 * k + 1)))
            total = total + term
        total = total / math.prod(range(3, 2 * n + 2, 2), start=1.0)
        out = series = total if ratio else xs ** n * total
    if hi >= 1.0:
        with np.errstate(over="ignore"):  # x*x or x^n past double range give 0
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
            if ratio:
                jn = jn / xb ** n
        out = jn if lo >= 1.0 else np.where(a < 1.0, series, jn)
    if not ratio and n % 2:
        out = np.where(x < 0.0, -out, out)
    return float(out) if out.ndim == 0 else out


def spherical_jn(n: int, x):
    """Spherical Bessel function of the first kind j_n(x), n >= 0, for a
    finite float (giving a float) or array x; DomainError otherwise."""
    return _spherical_bessel(n, x, False)


def spherical_jn_ratio(n: int, x):
    """j_n(x) / x^n, continued through x = 0 with value 1/(2n+1)!!.

    The transfer function of the n-th order smoothed differentiator is
    proportional to this ratio; evaluating it directly keeps the low
    frequency end of a sweep exact instead of dividing two underflowing
    quantities.  Takes x like spherical_jn; past n ~ 150 it underflows."""
    return _spherical_bessel(n, x, True)
