"""Exact frequency responses of the fractional differentiators.

Every filter in this package convolves against a real kernel, so its
transfer function is known in closed form; this module evaluates those
forms, compares them against the ideal power-law response, and reduces
them to the handful of quality numbers (usable band, residual DC gain)
that decide whether a design is adequate.

Convention: the forward transform carries e^{+i omega x}, under which a
shift f(x - m delta) picks up e^{+i m omega delta} and the upper-limit
(decaying-functions) derivative has the response (i omega)^nu.  The
lower-limit operator is its conjugate; operators declare which side they
live on through the Convention enum.

Every ``*_transfer`` function takes omega as a float, returning a
``complex``, or as a numpy array, returning a complex array with one value
per frequency, without a Python loop over frequencies.  An array call
raises if any of its frequencies is outside the supported range; ``sweep``
then falls back to one call per frequency and poisons only those points.
A sweep is a ``Sweep``: the record's columns as arrays, read as a sequence
of ``TransferSample``.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain

import numpy as np

from ._textio import _open_text
from .errors import (DomainError, FracfiltError, ValidationError, as_count, check_order,
                     check_step)
from .hahn import HahnFilterParams, gram_n1_weights, hahn_weights
from .kernels import JacobiKernelParams
from .specfun import (_NO_OP, _odd_product, _over_step, complex_power, gamma, gamma_ratio,
                      hyp2f1, kummer_m, spherical_jn_ratio)


class Convention(enum.Enum):
    """Which half line the operator integrates over."""

    WEYL = "weyl"
    RIEMANN_LIOUVILLE = "riemann_liouville"


class GridSpacing(enum.Enum):
    LINEAR = "linear"
    LOGARITHMIC = "logarithmic"


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing positive frequencies plus their spacing law.
    points is a read-only copy of the array it was given."""

    points: np.ndarray
    spacing: GridSpacing

    def __post_init__(self) -> None:
        points = _frozen(self.points, float)
        object.__setattr__(self, "points", points)
        if points.ndim != 1 or points.size == 0:
            raise ValidationError("grid needs a non-empty 1-d frequency array")
        if not np.all((points > 0.0) & (points < math.inf)):
            raise ValidationError("grid frequencies must be positive and finite")
        if np.any(np.diff(points) <= 0.0):
            raise ValidationError("grid frequencies must increase strictly")

    @classmethod
    def linear(cls, lo: float, hi: float, count: int) -> "FrequencyGrid":
        if not -math.inf < lo < hi < math.inf:
            raise ValidationError(f"need finite lo < hi, got {lo:g}, {hi:g}")
        return cls(np.linspace(lo, hi, _grid_count(count)), GridSpacing.LINEAR)

    @classmethod
    def logarithmic(cls, lo: float, hi: float, count: int) -> "FrequencyGrid":
        if not 0.0 < lo < hi < math.inf:
            raise ValidationError(f"need finite 0 < lo < hi, got {lo:g}, {hi:g}")
        return cls(np.logspace(math.log10(lo), math.log10(hi), _grid_count(count)),
                   GridSpacing.LOGARITHMIC)


# A grid point costs 8 bytes in the grid and 33 in a Sweep, but about 340
# in write_sweep_text's lists and document and 830 in write_sweep_json's:
# 10**7 points is some 8 GB in the JSON writer.  Past this count a grid is
# refused rather than left to end in a MemoryError.
_MAX_GRID_POINTS = 10**7


def _grid_count(count) -> int:
    n = as_count(count, "grid point count")
    if n > _MAX_GRID_POINTS:
        raise ValidationError(f"grid point count {n} is above the cap of {_MAX_GRID_POINTS}")
    return n


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of values as an array of dtype, which no array of
    the caller's can change later.  Values that are not numbers of that
    kind raise ValidationError; complex ones are not cut to real parts."""
    if dtype is float and np.iscomplexobj(values):
        raise ValidationError("values must be real numbers, not complex")
    try:
        out = np.array(values, dtype=dtype)
    except (TypeError, ValueError):
        raise ValidationError(f"values must be {dtype.__name__} numbers") from None
    out.flags.writeable = False
    return out


@dataclass(frozen=True, slots=True, init=False)
class TransferSample:
    """One evaluated grid point.  Points where the transfer evaluation
    failed stay in the record with valid=False and the reason in note.
    The fields are typed when the sample is built: omega is stored as
    float(omega), value as complex(value) and valid as bool(valid), so a
    sample holds what a Sweep's columns hold, whatever scalars it was
    given; note is kept as given."""

    omega: float
    value: complex
    valid: bool = True
    note: str = ""

    def __init__(self, omega: float, value: complex, valid: bool = True,
                 note: str = "") -> None:
        _set_omega(self, float(omega))
        _set_value(self, complex(value))
        _set_valid(self, bool(valid))
        _set_note(self, note)

    @property
    def modulus(self) -> float:
        return _modulus(self.value)

    @property
    def phase(self) -> float:
        # cmath.phase's value, but an atan2 that underflows (a subnormal
        # Im H against a normal Re H) gives 0 or a subnormal, not an
        # OverflowError
        return math.atan2(self.value.imag, self.value.real)

    @property
    def log10_omega(self) -> float:
        return math.log10(self.omega)

    @property
    def log10_modulus(self) -> float:
        m = self.modulus
        return math.log10(m) if m > 0.0 else -math.inf


# The slots' own setters.  Frozen guards only __setattr__, and the
# generated __init__ of a frozen dataclass goes through object.__setattr__,
# which costs twice as much.  Reading a Sweep sample by sample builds one
# sample per point: bench/workloads.check_design builds 54,000 per library op.
_set_omega, _set_value, _set_valid, _set_note = (
    getattr(TransferSample, f.name).__set__ for f in fields(TransferSample))


def _modulus(v) -> float:
    # abs() of a NaN value can raise on a stale libm errno
    return math.nan if cmath.isnan(v) and not cmath.isinf(v) else abs(v)


class Sweep(Sequence):
    """The record of one sweep: one TransferSample per grid frequency.

    The record is kept as columns, omega (float), value (complex) and
    valid (bool) as read-only arrays of its own plus a tuple of notes, and
    a sample is built only when it is read.  Indexing, iteration, len and
    `in` work as on a list of the samples; a slice, and + with a list or
    another Sweep on either side, give a list.  list(sweep(...)) gives a
    record to append to or assign into.

    Built from the grid frequencies and one value per frequency.  A value
    that is not finite is flagged invalid, with the note failures gives
    for its index (the message of a point whose evaluation raised) or
    else as an overflow."""

    __slots__ = ("_omega", "_value", "_valid", "_notes")

    def __init__(self, omega, value, failures: dict[int, str] | None = None) -> None:
        self._omega = _frozen(omega, float)
        self._value = _frozen(value, complex)
        if self._omega.ndim != 1 or self._value.shape != self._omega.shape:
            raise ValidationError("a sweep needs one value per frequency of a 1-d grid")
        self._valid = _frozen(np.isfinite(self._value), bool)
        failures = failures or {}
        overflow = "transfer value overflows double precision (not finite)"
        notes = [""] * self._omega.size
        for i in np.flatnonzero(~self._valid).tolist():
            notes[i] = failures.get(i, overflow)
        self._notes = tuple(notes)

    def _columns(self, key=slice(None)):
        """omega, value, valid and note of the points key selects, as Python
        lists, or as Python scalars for an integer key."""
        return (self._omega[key].tolist(), self._value[key].tolist(),
                self._valid[key].tolist(), self._notes[key])

    def __len__(self) -> int:
        return self._omega.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(TransferSample, *self._columns(index)))
        return TransferSample(*self._columns(operator.index(index)))

    def __iter__(self):
        return map(TransferSample, *self._columns())

    def __add__(self, other):
        if isinstance(other, (list, Sweep)):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, list):
            return other + list(self)
        return NotImplemented


def _real_omega(omega):
    """omega as a float array, or as a numpy float for a scalar omega, so
    that a one-frequency call does its arithmetic on numpy scalars rather
    than on 0-d arrays, which cost about 1 us per operation.  np.float64
    of an array is a float array, and of a scalar a numpy float."""
    return np.float64(omega)


def _angle(w, delta: float):
    """w * delta for w from _real_omega, or DomainError where any |w delta|
    is not finite.  A scalar w multiplies as a Python float, never warning."""
    if w.ndim:
        with _quiet(True):
            theta = w * delta
        if np.isfinite(theta).all():
            return theta
    elif math.isfinite(theta := float(w) * delta):
        return theta
    raise DomainError(f"omega * delta leaves double range at delta = {delta:g}")


def _result(w, value) -> complex | np.ndarray:
    """complex for a scalar omega, a complex array for an array omega;
    w is _real_omega(omega)."""
    return np.asarray(value, dtype=complex) if w.ndim else complex(value)


def _axis_power(w, nu: float, sign: float):
    """(sign i w)^nu for real w and sign = +1 or -1: |w|^nu e^(sign i pi
    nu/2) for w > 0.  This is complex_power on the imaginary axis, which
    never meets the branch cut, so only w = 0 needs a test.  It runs the
    operations complex_power runs, exp(nu log(sign i w)), so it returns
    complex_power's values to the bit.

    Only a zero or an infinite w, or nu outside [0, 1) (where |w|^nu can
    leave double range), raises a floating-point flag here."""
    zero = w == 0.0
    flags = zero | (abs(w) == math.inf)
    # bool() reads a 0-d mask in a twentieth of np.count_nonzero's time
    edge = np.count_nonzero(flags) if w.ndim else bool(flags)
    if edge and nu < 0.0 and np.count_nonzero(zero):
        raise DomainError("0**nu diverges for nu < 0")
    with _quiet(edge or not 0.0 <= nu < 1.0):
        out = np.exp(nu * np.log(sign * 1j * w))
    return np.where(zero, 0j if nu > 0.0 else 1.0 + 0j, out) if edge else out


# tested by name: Convention.WEYL takes about 0.1 us to read on Python 3.11
_WEYL = Convention.WEYL


def _quiet(on):
    """np.errstate ignoring the divide, invalid and overflow flags if on,
    else a no-op.  errstate costs about 2 us, so callers turn it on only
    where a flag can be raised: a power of order nu outside [0, 1) can
    leave double range, and inf times a factor that underflowed to 0 is
    NaN.  sweep flags those inf/NaN points invalid."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore") if on else _NO_OP


def ideal_transfer(
    nu: float, omega: float | np.ndarray, convention: Convention
) -> complex | np.ndarray:
    """Pure power law: (i omega)^nu upper-limit, (-i omega)^nu lower."""
    check_order(nu)
    w = _real_omega(omega)
    return _result(w, _axis_power(w, nu, 1.0 if convention is _WEYL else -1.0))


def jacobi_transfer(
    params: JacobiKernelParams, omega: float | np.ndarray,
    convention: Convention = Convention.WEYL,
) -> complex | np.ndarray:
    """Response of the continuous Jacobi-kernel differentiator:
    (i w)^nu e^(-i w delta) M(n+a+1, 2n+a+b+2; 2 i w delta).

    Confluent argument capped by the kummer_m validity range, so
    |2 w delta| <= 50; beyond that use legendre_transfer (Bessel form)
    when alpha = beta = 0.  It stays on Kummer there too, as the route
    independent of the Bessel form that checks legendre_transfer."""
    a, b, n, nu, delta = params.alpha, params.beta, params.n, params.nu, params.delta
    w = _real_omega(omega)
    power = _axis_power(w, nu, 1.0)
    confluent = kummer_m(n + a + 1.0, 2.0 * n + a + b + 2.0, 2j * w * delta)
    with _quiet(not 0.0 <= nu < 1.0):
        value = power * np.exp(-1j * w * delta) * confluent
    return _result(w, value if convention is _WEYL else np.conj(value))


def legendre_transfer(
    n: int, nu: float, delta: float, omega: float | np.ndarray,
    convention: Convention = Convention.WEYL,
) -> complex | np.ndarray:
    """Flat-weight (alpha = beta = 0) kernel response in spherical Bessel
    form: (i w)^nu (2n+1)!! j_n(w delta)/(w delta)^n, one spherical_jn_ratio
    call.  Same function as jacobi_transfer at those parameters but valid
    at any finite frequency and nu; (2n+1)!! overflows (DomainError) from
    n = 150 on."""
    order = as_count(n, "scheme order n")
    check_order(nu)
    check_step(delta)
    if order >= 150:
        raise DomainError(f"(2n+1)!! overflows double precision at n = {order}")
    w = _real_omega(omega)
    power = _axis_power(w, nu, 1.0)
    ratio = spherical_jn_ratio(order, _angle(w, delta))
    with _quiet(not 0.0 <= nu < 1.0):
        value = power * _odd_product(order) * ratio
    return _result(w, value if convention is _WEYL else np.conj(value))


def hahn_transfer(
    params: HahnFilterParams, omega: float | np.ndarray
) -> complex | np.ndarray:
    """Response of the untruncated discrete filter (backward history
    summed to infinity):

        B^nu e^(-i n w delta) * gain * 2F1(n-N, a+n+1; -b-N; e^(-i w delta)),

    B = (1 - e^(i w delta))/delta.  The 2F1 terminates after N - n + 1
    terms, so this is exact at any frequency; B^nu carries the fractional
    character and reduces to the backward-difference response at N = n.
    """
    a, b, N, n = params.alpha, params.beta, params.N, params.n
    # gain = G(N+b+1) G(2n+a+b+2) / (G(n+b+1) G(N+n+a+b+2))
    gain = gamma_ratio((N + b + 1.0, 2.0 * n + a + b + 2.0),
                       (n + b + 1.0, N + n + a + b + 2.0))
    w = _real_omega(omega)
    phase = 1j * _angle(w, params.delta)
    power = complex_power((1.0 - np.exp(phase)) / params.delta, params.nu)
    series = hyp2f1(float(n - N), a + n + 1.0, -b - float(N), np.exp(-phase))
    with _quiet(not 0.0 <= params.nu < 1.0):
        value = power * np.exp(-n * phase) * gain * series
    return _result(w, value)


@lru_cache(maxsize=16)
def _gram_taps(p: HahnFilterParams):
    """A design's taps laid out for hahn_truncated_transfer: the prefactor,
    the block matrix, its number of backward rows and the block length
    B = isqrt(M + N + 1) + 1.  Backward row q holds the coefficients of
    z^(qB) .. z^(qB + B - 1), z = e^(i w delta), with a 0 for z^0; the
    forward rows hold the forward taps the same way in powers of 1/z.
    Serves every design; it keeps its gram name because bench/worker.py
    clears and reads this cache under it."""
    gram = p.n == 1 and p.alpha == p.beta == 0.0 and 0.0 <= p.nu <= 1.0
    w = gram_n1_weights(p.N, p.nu, p.delta, p.M) if gram else hahn_weights(p)
    B = math.isqrt(w.taps.size) + 1
    back = _blocks(np.concatenate(([0.0], w.backward)), B)
    return w.prefactor, np.concatenate((back, _blocks(w.forward, B))), back.shape[0], B


def _blocks(coefficients: np.ndarray, B: int) -> np.ndarray:
    """coefficients zero-padded to whole rows of B, one block per row."""
    padded = np.zeros(-(-coefficients.size // B) * B)
    padded[:coefficients.size] = coefficients
    return padded.reshape(-1, B)


# hahn_truncated_transfer takes the frequencies in chunks whose e^(i r w
# delta) table holds at most about this many entries (1 MB)
_TABLE_ENTRIES = 1 << 16


def hahn_truncated_transfer(
    params: HahnFilterParams, omega: float | np.ndarray
) -> complex | np.ndarray:
    """Response of the deliverable filter: backward history cut at M taps.

    Finite Fourier sum of the taps of any design: gram_n1_weights' closed
    forms for a gram design (n = 1, alpha = beta = 0, 0 <= nu <= 1), else
    hahn_weights'.  Tends to hahn_transfer as M grows; at omega = 0 it
    exposes the residual DC gain that the truncation leaves behind.

    The sum is two polynomials, the backward taps in z = e^(i w delta)
    and the forward taps in 1/z, cut into blocks of B ~ sqrt(M + N)
    coefficients.  Each block is a cos/sin table of r w delta (r < B)
    times the block matrix; the blocks of each polynomial are joined by
    Horner's rule in z^B.  An array of P frequencies costs O(P (M + N))
    flops in O(sqrt(M + N)) numpy calls per chunk of frequencies."""
    prefactor, blocks, n_back, B = _gram_taps(params)
    w = _real_omega(omega)
    theta = _angle(w, params.delta)
    flat = np.reshape(theta, -1)
    out = np.empty(flat.size, dtype=complex)
    r = np.arange(B, dtype=float)
    step = max(1, _TABLE_ENTRIES // B)
    for lo in range(0, flat.size, step):
        th = flat[lo:lo + step]
        # row q: sum_r blocks[q, r] e^(i r theta), as one real matrix
        # product with the table's real and imaginary parts side by side;
        # a forward row is the conjugate of its block's sum (real taps)
        sums = (blocks @ _unit_circle(np.multiply.outer(r, th)).view(float)).view(complex)
        zB = _unit_circle(B * th)
        back = sums[n_back - 1].copy()
        for q in range(n_back - 2, -1, -1):
            back *= zB
            back += sums[q]
        fore = sums[-1].copy()
        for q in range(blocks.shape[0] - 2, n_back - 1, -1):
            fore *= zB
            fore += sums[q]
        out[lo:lo + step] = back + np.conj(fore)
    return _result(w, prefactor * out.reshape(np.shape(theta)))


def _unit_circle(angles: np.ndarray) -> np.ndarray:
    """e^(i angles) from one cos and one sin call."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def gl_transfer(
    nu: float, delta: float, omega: float | np.ndarray
) -> complex | np.ndarray:
    """Backward-difference response ((1 - e^(i w delta))/delta)^nu; tends
    to (-i w)^nu as delta -> 0."""
    check_order(nu)
    check_step(delta)
    w = _real_omega(omega)
    return _result(w, complex_power((1.0 - np.exp(1j * _angle(w, delta))) / delta, nu))


def butterworth_fractional_transfer(
    nu: float, n: int, omega0: float, omega: float | np.ndarray
) -> complex | np.ndarray:
    """Fractional differentiator shaped by a 2n-pole low-pass roll-off:
    (-i w)^nu / (1 + (w/w0)^(2n))."""
    check_order(nu)
    order = as_count(n, "filter order n")
    check_step(omega0, "corner frequency omega0")
    w = _real_omega(omega)
    with np.errstate(over="ignore", invalid="ignore"):    # sweep flags inf/NaN
        return _result(w, _axis_power(w, nu, -1.0) / (1.0 + (w / omega0) ** (2 * order)))


def truncated_dc_gain(N: int, nu: float, delta: float, M: int) -> float:
    """Closed form for the truncated filter's response at omega = 0.

    Algebraically identical to summing the taps, but arranged so the big
    cancellations happen symbolically: one fractional Gamma ratio times a
    small bracket whose pieces are O(M) products.  Decays like M^(-nu)."""
    N, M = as_count(N, "window degree N"), as_count(M, "history length M")
    if not 0.0 <= nu <= 1.0:
        raise ValidationError(f"first-order scheme covers 0 <= nu <= 1, got {nu:g}")
    check_step(delta)
    pref = _over_step(6.0, N * (N + 1.0) * (N + 2.0) * gamma(4.0 - nu), delta, nu)
    outer = gamma_ratio((M - nu + 2.0,), (float(M),))
    # nominal bracket is (N - 2M - N nu) * prod((M-nu+2+k)/(M+k)) + (3-nu)N
    # + 2(M-nu+2): two O(M) pieces cancelling to O(M^-2).  With the product
    # written as 1 + s, s = prod(1 + (2-nu)/(M+k)) - 1, and s split into its
    # linear part s1 = sum (2-nu)/(M+k) plus the cross terms p = s - s1, the
    # same bracket regroups into three O(N^2/M) pieces:
    #   2(2-nu) sum k/(M+k)  +  N(1-nu) s1  +  (N - 2M - N nu) p
    # p is accumulated directly (each step of s adds e + s*e, so p gains
    # s*e) rather than formed as the difference s - s1.  The pieces still
    # cancel: at (N, M, nu) = (16, 4096, 0.5) they are 0.0993, 0.0497 and
    # -0.1490 and sum to 9.1e-5.  The result is 2.4e-12 relative off a
    # 60-digit value, but from `outer`, not the bracket: gamma_ratio's lgamma
    # fallback puts 2.42e-12 there at M = 4096; an exact `outer` gives 7e-15.
    s = s1 = p = t1 = 0.0
    two_nu = 2.0 - nu
    for k in range(N + 1):
        e = two_nu / (M + k)
        p += s * e
        s += e + s * e
        s1 += e
        t1 += k / (M + k)
    inner = (2.0 * (2.0 - nu) * t1 + N * (1.0 - nu) * s1
             + (N - 2.0 * M - N * nu) * p)
    gain = pref * outer * inner      # pref * outer alone can overflow
    if abs(gain) < math.inf:
        return gain
    raise DomainError(f"the DC gain leaves double range at delta = {delta:g}, nu = {nu:g}")


@dataclass(frozen=True)
class FilterMetrics:
    """Usable-band summary of a truncated first-order filter.

    h_zero is the residual response modulus at DC; omega_lower the
    frequency where the power law crosses that floor (below it the filter
    output is mostly truncation residue), with a one-decade practical
    margin; omega_max the small-omega validity edge of the window scheme;
    bandwidth their difference when the band is non-empty, else None.
    """

    h_zero: float
    omega_lower: float
    omega_lower_practical: float
    omega_max: float
    bandwidth: float | None


def filter_metrics(params: HahnFilterParams) -> FilterMetrics:
    """Finite quality metrics of the truncated first-order flat-weight filter, else DomainError."""
    if params.n != 1 or params.alpha != 0.0 or params.beta != 0.0:
        raise ValidationError(
            "metrics are defined for the first-order flat-weight scheme "
            "(n = 1, alpha = beta = 0)"
        )
    N, nu, delta, M = params.N, params.nu, params.delta, params.M
    if not 0.0 < nu <= 1.0:
        raise ValidationError(f"metrics need a fractional order 0 < nu <= 1, got {nu:g}")
    h_zero = abs(truncated_dc_gain(N, nu, delta, M))
    try:
        omega_lower = h_zero ** (1.0 / nu)
    except OverflowError:
        raise DomainError(f"h_zero**(1/nu) overflows double precision at nu = {nu:g}") from None
    d = 6.0 * N + nu + 6.0 * N * nu + N * N * nu + N * N + 9.0
    omega_max = 2.0 * math.sqrt(6.0) / delta * math.sqrt((1.0 - nu) / d)
    bandwidth = omega_max - omega_lower if omega_lower < omega_max else None
    metrics = FilterMetrics(h_zero, omega_lower, 10.0 * omega_lower, omega_max, bandwidth)
    if all(v is None or abs(v) < math.inf for v in vars(metrics).values()):
        return metrics
    raise DomainError(f"a metric leaves double range at delta = {delta:g}: {metrics}")


def sweep(transfer, grid: FrequencyGrid) -> Sweep:
    """Evaluate a transfer closure over the grid into a Sweep, a read-only
    sequence of TransferSample; list(sweep(...)) gives a mutable list.

    The closure is first called once with the whole frequency array.  If
    that call raises (a FracfiltError for some point, or the TypeError /
    ValueError of a closure written for scalars) or returns something
    other than one value per grid point, every frequency is evaluated on
    its own instead.  There failures (unsupported frequency range, branch
    problems) poison the individual point, flagged with the reason, rather
    than shortening the output: a sweep always has exactly one sample per
    grid frequency.  On either route a value that came out inf or NaN is
    kept but flagged invalid, as an overflow.  The Sweep holds copies of
    the frequencies and values, so no later change to an array the
    closure returned reaches it."""
    try:
        values = np.asarray(transfer(grid.points), dtype=complex)
    except (FracfiltError, TypeError, ValueError):
        values = None
    if values is not None and values.shape == grid.points.shape:
        return Sweep(grid.points, values)
    values = []
    failures = {}
    for i, w in enumerate(grid.points.tolist()):
        try:
            values.append(complex(transfer(w)))
        except FracfiltError as exc:
            values.append(complex(math.nan, math.nan))
            failures[i] = str(exc)
    return Sweep(grid.points, values, failures)


def fit_loglog_slope(
    samples: Sequence[TransferSample], window: tuple[float, float] | None = None
) -> float:
    """Least-squares slope of log10|H| against log10 omega.

    Default window is the lowest decade of the valid samples, where the
    power-law exponent of a differentiator shows up undisturbed."""
    usable = [s for s in samples if s.valid and s.modulus > 0.0]
    if not usable:
        raise ValidationError("no valid samples with nonzero modulus to fit")
    if window is None:
        lo = usable[0].omega
        window = (lo, 10.0 * lo)
    inside = [s for s in usable if window[0] <= s.omega <= window[1]]
    if len(inside) < 2:
        raise ValidationError(
            f"need at least two samples inside the fit window {window}, "
            f"got {len(inside)}"
        )
    x = np.array([s.log10_omega for s in inside])
    y = np.array([s.log10_modulus for s in inside])
    return float(np.polyfit(x, y, 1)[0])


def write_sweep_text(samples, destination, metadata: dict | None = None) -> None:
    """Columnar text: omega, Re H, Im H, |H|, arg H, valid flag, with the
    run metadata as leading comment lines.  Every number is a Python float,
    which %s writes as float.__repr__ does, nan and inf included; valid is
    written as 1 or 0."""
    omega, re, im, modulus, phase, valid, _ = _sweep_columns(samples)
    with _open_text(destination) as stream:
        for key in sorted(metadata or {}):
            stream.write(f"# {key} = {metadata[key]}\n")
        stream.write("# columns: omega re_h im_h abs_h arg_h valid\n")
        stream.write(_format_rows("%s %s %s %s %s %d\n", "",
                                  zip(omega, re, im, modulus, phase, valid), len(valid)))


# One sample of write_sweep_json's document, laid out as json.dumps(...,
# indent=2, sort_keys=True) lays it out; json's indenting encoder is pure
# Python and takes about twice as long.
_JSON_SAMPLE = (
    '    {\n      "abs": %s,\n      "arg": %s,\n      "im": %s,\n      "note": %s,\n'
    '      "omega": %s,\n      "re": %s,\n      "valid": %s\n    }'
)
_JSON_BOOL = {True: "true", False: "false"}


def _sweep_columns(samples):
    """omega, Re H, Im H, |H| and arg H of the samples as five lists of
    Python floats, then their valid flags (bools) and notes.  A Sweep hands
    over its columns as lists; any other sequence is read sample by
    sample, whose fields TransferSample has already typed."""
    if isinstance(samples, Sweep):
        omega, value, valid, note = samples._columns()
    else:
        omega = [s.omega for s in samples]
        value = [s.value for s in samples]
        valid = [s.valid for s in samples]
        note = [s.note for s in samples]
    modulus = list(map(abs if all(map(cmath.isfinite, value)) else _modulus, value))
    re = [v.real for v in value]
    im = [v.imag for v in value]
    return omega, re, im, modulus, list(map(math.atan2, im, re)), valid, note


def _format_rows(row: str, separator: str, rows, count: int) -> str:
    """count copies of the % template row, joined by separator and filled
    from the tuples of rows in one % pass."""
    return separator.join([row] * count) % tuple(chain.from_iterable(rows))


def _json_float(x: float) -> str:
    """The float x as json.dumps writes it: NaN and the infinities by name."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0.0 else "-Infinity")


def write_sweep_json(samples, destination, metadata: dict) -> None:
    """Same data as the text writer plus per-point notes, as one JSON
    document.  Content is a pure function of inputs: no timestamps, and
    the run id comes in through the metadata.  A float column whose sum is
    finite holds only finite floats, which %s writes as json.dumps does;
    any other column is written through _json_float."""
    *numeric, valid, note = _sweep_columns(samples)
    omega, re, im, modulus, phase = (
        c if math.isfinite(sum(c)) else list(map(_json_float, c)) for c in numeric)
    valid = list(map(_JSON_BOOL.__getitem__, valid))
    note = ['""' if n == "" else json.dumps(n) for n in note]
    body = _format_rows(_JSON_SAMPLE, ",\n",
                        zip(modulus, phase, im, note, omega, re, valid), len(note))
    head = json.dumps(metadata, indent=2, sort_keys=True).replace("\n", "\n  ")
    listing = f"[\n{body}\n  ]" if body else "[]"
    with _open_text(destination) as stream:
        stream.write(f'{{\n  "metadata": {head},\n  "samples": {listing}\n}}\n')
