"""FIR weights for fractional differentiation on uniform samples.

The taps come from least-squares fitting a degree-N discrete polynomial
(Hahn family) through N+1 forward samples and applying the fractional
derivative to the fit; the infinite backward tail is what turns the
approximation into an exact fractional operator.  Forward and backward
weights are built separately because they truncate differently: the
forward set is finite by construction, the backward set decays
algebraically and is cut at M taps.  FilterWeights then stores them as
one array in offset order -M..N, which is what every filter reads.

Everything is expressed through cancelled Pochhammer ratios so that no
individual factor overflows and integer orders come out exact.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._textio import _open_text
from .errors import DomainError, ValidationError, as_index
from .specfun import gamma, gamma_ratio, hyp3f2_unit, pochhammer_ratios

MAX_DEFAULT_HISTORY = 4096


def default_history(N: int, n: int, nu: float) -> int:
    """Backward tap count giving a truncation error small next to the
    forward part: 16*N inflated by 1/(n - nu) as the order approaches n
    (slower tail decay), capped at MAX_DEFAULT_HISTORY."""
    gap = min(1.0, n - nu + 1e-3)
    return max(1, min(MAX_DEFAULT_HISTORY, math.ceil(16.0 * N / gap)))


@dataclass(frozen=True)
class HahnFilterParams:
    """Design parameters of the discrete fractional differentiator.

    N+1 forward samples carry a degree-N fit, n is the underlying
    (integer) derivative order of the polynomial scheme, nu <= n the
    fractional order actually delivered, M the backward-history length.
    M=None picks default_history.
    """

    alpha: float
    beta: float
    N: int
    n: int
    nu: float
    delta: float
    M: int | None = None

    def __post_init__(self) -> None:
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValidationError(
                f"weight exponents must exceed -1, got alpha = {self.alpha:g}, "
                f"beta = {self.beta:g}"
            )
        N, n = as_index(self.N), as_index(self.n)
        if not N >= 1:
            raise ValidationError(f"window degree N must be a positive integer, got {self.N!r}")
        if not 1 <= n <= N:
            raise ValidationError(
                f"derivative order n must be an integer in 1..N = {N}, got {self.n!r}"
            )
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", n)
        if not -math.inf < self.nu <= self.n:
            raise ValidationError(f"fractional order nu = {self.nu:g} is not finite "
                                  f"or exceeds the scheme order n = {self.n}")
        if not self.delta > 0.0:
            raise ValidationError(f"sample step must be positive, got {self.delta:g}")
        M = default_history(N, n, self.nu) if self.M is None else as_index(self.M)
        if not M >= 1:
            raise ValidationError(f"history length M must be a positive integer, got {self.M!r}")
        object.__setattr__(self, "M", M)


class _RowTable:
    """filter_signal's raw rows of one weights on the last signal it met.

    state is one tuple (weakref to the signal, apply_discrete_filter calls
    on it, rows or None) that is only ever replaced whole, so a reader
    never pairs one signal with another's rows: threads racing on one
    weights can lose a count or build the rows twice, but never return a
    wrong bit.  A pickle or deep copy starts empty, as a weakref does not
    pickle.
    """

    __slots__ = ("state",)

    def __init__(self) -> None:
        self.state = (None, 0, None)

    def __reduce__(self):
        return _RowTable, ()


@dataclass(frozen=True, eq=False)
class FilterWeights:
    """Tap set of a two-sided FIR differentiator.

    taps holds every coefficient in offset order -M..N: taps[M + k]
    multiplies f(x + k*delta).  forward[m] (m = 0..N, offset m) and
    backward[m-1] (m = 1..M, offset -m) are read-only views into it, made
    once here, so the two layouts cannot drift apart.  prefactor is the
    common gain (carries the delta**-nu scaling) applied to the whole sum.
    _table holds apply_discrete_filter's whole-record rows, if any.
    """

    forward: np.ndarray
    backward: np.ndarray
    prefactor: float
    taps: np.ndarray = field(init=False, repr=False)
    _table: _RowTable = field(init=False, repr=False, default_factory=_RowTable)

    def __post_init__(self) -> None:
        forward = np.asarray(self.forward, dtype=float)
        backward = np.asarray(self.backward, dtype=float)
        if forward.ndim != 1 or forward.size < 1:
            raise ValidationError("forward taps must form a non-empty 1-d array")
        if backward.ndim != 1:
            raise ValidationError("backward taps must form a 1-d array")
        taps = np.concatenate([backward[::-1], forward])
        taps.flags.writeable = False
        M = backward.size
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "forward", taps[M:])
        object.__setattr__(self, "backward", taps[:M][::-1])


def hahn_polynomial(n: int, j: float, alpha: float, beta: float, N: int) -> float:
    """Q_n(j) = 3F2(-n, n+alpha+beta+1, -j; alpha+1, -N; 1)."""
    if not 0 <= n <= N:
        raise ValidationError(f"polynomial degree n = {n} outside 0..N = {N}")
    return hyp3f2_unit(-float(n), n + alpha + beta + 1.0, -float(j), alpha + 1.0, -float(N))


def hahn_weight_function(j: int, alpha: float, beta: float, N: int) -> float:
    """Discrete orthogonality weight (alpha+1)_j (beta+1)_{N-j} / (j! (N-j)!)."""
    if not 0 <= j <= N:
        raise ValidationError(f"support point j = {j} outside 0..N = {N}")
    return pochhammer_ratios(alpha + 1.0, j)[j] * pochhammer_ratios(beta + 1.0, N - j)[N - j]


def hahn_normalization(alpha: float, beta: float, N: int, n: int) -> float:
    """k_n n!/h_n: leading coefficient times n! over the squared norm.

    This is the global gain of the filter (delta scaling excluded):
    (-1)^n G(2n+a+b+2) G(b+1) G(N+1) / (G(n+b+1) G(N+n+a+b+2)).
    """
    sign = -1.0 if n % 2 else 1.0
    return sign * gamma_ratio(
        (2.0 * n + alpha + beta + 2.0, beta + 1.0, N + 1.0),
        (n + beta + 1.0, N + n + alpha + beta + 2.0),
    )


def _j1_lead(alpha: float, beta: float, N: int, n: int) -> float:
    # (1+beta)_N / ((-N)_n (N-n)!) collapses to (-1)^n (1+beta)_N / N!
    sign = -1.0 if n % 2 else 1.0
    return sign * pochhammer_ratios(beta + 1.0, N)[N]


def _j1_series(p: HahnFilterParams, m):
    # m may be an integer array: the 3F2 then runs once over all of them
    return hyp3f2_unit(
        float(p.n - p.N),
        p.n + p.alpha + 1.0,
        m + p.n - p.nu,
        -float(p.N) - p.beta,
        m + (p.n + 1.0),
    )


def j1_weight(p: HahnFilterParams, m: int) -> float:
    """Backward tap m >= 1 (coefficient of f(x - m*delta), gain excluded).

    The fractional binomial factor (-nu)_{m+n}/(m+n)! carries the
    O(m^(-nu-1)) tail decay; the terminating 3F2 tends to a constant.
    Vanishes identically for integer nu = n, which is what collapses the
    filter onto the one-sided backward difference.
    """
    if m < 1:
        raise ValidationError(f"backward taps start at m = 1, got {m}")
    k = m + p.n
    return _j1_lead(p.alpha, p.beta, p.N, p.n) * pochhammer_ratios(-p.nu, k)[k] * _j1_series(p, m)


def j2_weight(p: HahnFilterParams, m: int) -> float:
    """Forward tap 0 <= m <= N (coefficient of f(x + m*delta), gain excluded).

    Evaluated as the reversed terminating sum
    lead * sum_i [(a+n+1)_{N-n-i}/(N-n-i)!] [(b+n+1)_i/i!] [(-nu)_{N-m-i}/(N-m-i)!],
    which stays well defined at integer nu where the hypergeometric-ratio
    rewriting degenerates.
    """
    if not 0 <= m <= p.N:
        raise ValidationError(f"forward taps run over m = 0..N = {p.N}, got {m}")
    last = p.N - p.n
    a = pochhammer_ratios(p.alpha + p.n + 1.0, last).tolist()
    b = pochhammer_ratios(p.beta + p.n + 1.0, last).tolist()
    c = pochhammer_ratios(-p.nu, p.N).tolist()
    acc = 0.0
    for i in range(min(p.N - m, last) + 1):
        acc += a[last - i] * b[i] * c[p.N - m - i]
    return _j2_lead(p) * acc


def _j2_lead(p: HahnFilterParams) -> float:
    # (beta+1)_n / (-N)_n as one running product
    lead = 1.0
    for i in range(p.n):
        lead *= (p.beta + 1.0 + i) / (i - p.N)
    return lead


def hahn_weights(p: HahnFilterParams) -> FilterWeights:
    """Full tap set for the filter parameters.

    Forward taps are j2_weight's sums for every m at once: its three
    Pochhammer tables built once, and each m's terms added in j2_weight's
    order (i ascending).  Backward taps share one running Pochhammer
    ratio so the batch costs O(M*N) instead of O(M^2), and are built as
    arrays over m with the same per-tap operation order as j1_weight's
    running product; j1_weight/j2_weight remain the per-tap reference path.
    """
    last = p.N - p.n
    a = pochhammer_ratios(p.alpha + p.n + 1.0, last)
    b = pochhammer_ratios(p.beta + p.n + 1.0, last)
    c = pochhammer_ratios(-p.nu, p.N)
    acc = np.zeros(p.N + 1)
    for i in range(last + 1):           # term i reaches m = 0..N-i
        acc[:p.N - i + 1] += a[last - i] * b[i] * c[p.N - i::-1]
    forward = _j2_lead(p) * acc
    m = np.arange(1, p.M + 1)
    ratio = pochhammer_ratios(-p.nu, p.n + p.M)[p.n + 1:]
    lead = _j1_lead(p.alpha, p.beta, p.N, p.n)
    backward = lead * ratio * _j1_series(p, m)
    try:
        prefactor = hahn_normalization(p.alpha, p.beta, p.N, p.n) / p.delta ** p.nu
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"delta**nu leaves double range at nu = {p.nu:g}") from None
    return FilterWeights(forward=forward, backward=backward, prefactor=prefactor)


def gram_n1_weights(N: int, nu: float, delta: float, M: int) -> FilterWeights:
    """Closed-form taps for the first-order flat-weight scheme (alpha =
    beta = 0, n = 1), the workhorse configuration for sampled data.

    Same filter as hahn_weights at those parameters, but every tap is a
    two-term Gamma-ratio expression, so building even long histories is
    cheap and the round-off floor stays near machine precision.
    """
    fwd, bwd = as_index(N), as_index(M)
    if not fwd >= 1:
        raise ValidationError(f"window degree N must be a positive integer, got {N!r}")
    if not bwd >= 1:
        raise ValidationError(f"history length M must be a positive integer, got {M!r}")
    N, M = fwd, bwd
    if not 0.0 <= nu <= 1.0:
        raise ValidationError(
            f"the first-order scheme covers orders 0 <= nu <= 1, got {nu:g}"
        )
    if not delta > 0.0:
        raise ValidationError(f"sample step must be positive, got {delta:g}")

    prefactor = 6.0 / (N * (N + 1.0) * (N + 2.0) * gamma(3.0 - nu) * delta ** nu)

    forward = np.empty(N + 1)
    # ratio(j) = G(j - nu + 2)/G(j + 1) walked up from j = 0
    ratio = gamma(2.0 - nu)
    for j in range(N + 1):
        m = N - j
        forward[m] = (2.0 * m - N * nu) * ratio
        ratio *= (j - nu + 2.0) / (j + 1.0)

    # nominal tap is C1*G(m-nu+1)/G(m) - C2*G(N+m-nu+2)/G(N+m+1); the two
    # terms grow like m^(3/2) while their difference decays, so build the
    # small residual directly: with S = prod(1 + (1-nu)/(m+k)) - 1 over
    # k = 0..N the tap equals a * (2(N+1)(1-nu) - (2m + N nu) * S), where
    # a = G(m - nu + 1)/G(m) is a running product from a = G(2 - nu) at m = 1.
    # All m at once, each with the same operation order as a loop over m.
    m = np.arange(1, M + 1)
    s = np.zeros(M)
    for k in range(N + 1):
        e = (1.0 - nu) / (m + k)
        s += e + s * e
    steps = (m[:-1] - nu + 1.0) / m[:-1]
    a = np.multiply.accumulate(np.concatenate(([gamma(2.0 - nu)], steps)))
    backward = a * (2.0 * (N + 1.0) * (1.0 - nu) - (2.0 * m + N * nu) * s)
    return FilterWeights(forward=forward, backward=backward, prefactor=prefactor)


def _raw_rows(samples: np.ndarray, taps: np.ndarray, n_bwd: int, start: int,
              stop: int) -> np.ndarray:
    """Rows start..stop-1 of the correlation of the taps (offset order
    -M..N) with the samples padded by M zeros in front and N behind,
    prefactor excluded: row i sums taps[k] * padded[i + k].

    A row's bits depend on its window and the taps alone: numpy correlates
    up to 11 taps in its own unrolled order and more by one dot product
    per row, so a row correlated alone equals that row of the whole record.
    """
    n_fwd = taps.size - n_bwd - 1
    lo, hi = start - n_bwd, stop + n_fwd          # padded positions read
    window = samples[max(lo, 0):hi]
    if lo < 0 or hi > samples.size:
        window = np.concatenate([np.zeros(max(-lo, 0)), window,
                                 np.zeros(max(hi - samples.size, 0))])
    # np.correlate slides the taps without reversing them, so taps in
    # offset order -M..N line up with padded[i..i+M+N]
    return np.correlate(window, taps, mode="valid")


def _table_rows(signal, weights: FilterWeights):
    """The pair's whole-record raw rows, or None while its calls have
    cost less than computing them (see apply_discrete_filter)."""
    table = weights._table
    ref, calls, rows = table.state
    if ref is None or ref() is not signal:    # first call, or another signal
        ref, calls, rows = weakref.ref(signal), 0, None
    if rows is None:
        calls += 1
        if calls >= signal.samples.size:
            rows = _raw_rows(signal.samples, weights.taps, weights.backward.size,
                             0, signal.samples.size)
        table.state = (ref, calls, rows)
    return rows


def apply_discrete_filter(signal, weights: FilterWeights, at_index: int) -> float:
    """Evaluate the filter at one sample position: row at_index of
    filter_signal, bit for bit, wherever that row is valid.

    Needs N samples of lookahead unconditionally; missing backward history
    is treated as zero only for causal signals, otherwise it is an error.
    A call correlates the taps with its own window of the zero-padded
    record.  The call that brings one (signal, weights) pair to as many
    calls as the signal has samples, when the pair's calls have cost one
    whole-record correlation, runs that correlation instead; the weights
    keep its raw rows (one float per sample, freed with the weights) and
    later calls on the pair read them.  So no call sequence does more
    than about twice the multiply-adds of the cheaper route.  The rows
    stay right because a SampledSignal's samples are a read-only copy.
    """
    samples = signal.samples
    n_bwd = weights.backward.size
    n_fwd = weights.taps.size - n_bwd - 1
    if not 0 <= at_index < samples.size:
        raise ValidationError(
            f"index {at_index} outside the signal (length {samples.size})"
        )
    if at_index + n_fwd >= samples.size:
        raise ValidationError(
            f"filter needs {n_fwd} samples of lookahead at index {at_index}, "
            f"signal ends at {samples.size - 1}"
        )
    if at_index < n_bwd and not signal.causal:
        raise ValidationError(
            f"filter needs {n_bwd} samples of history at index {at_index}; "
            "only a causal signal may substitute zeros"
        )
    rows = _table_rows(signal, weights)
    if rows is None:
        return weights.prefactor * float(
            _raw_rows(samples, weights.taps, n_bwd, at_index, at_index + 1)[0])
    return weights.prefactor * float(rows[at_index])


def filter_signal(signal, weights: FilterWeights):
    """Evaluate the filter at every sample position: (values, valid).

    valid is 1 exactly where apply_discrete_filter returns a value (N
    samples of lookahead, and M of history unless the signal is causal)
    and that value is finite; every other value is NaN.  The values are
    one correlation of the taps with the samples padded by zeros.
    """
    L, M = len(signal), weights.backward.size
    N = weights.taps.size - M - 1
    values = weights.prefactor * _raw_rows(signal.samples, weights.taps, M, 0, L)
    valid = np.isfinite(values)
    valid[:0 if signal.causal else M] = False  # no history
    valid[max(L - N, 0):] = False  # no lookahead
    return np.where(valid, values, math.nan), valid.astype(int)


def export_taps(weights: FilterWeights, destination) -> None:
    """Write the taps as a plain two-column text table.

    Column 1 is the signed sample offset k (the tap multiplies
    f(x + k*delta)), column 2 the full coefficient with the prefactor
    folded in.  Accepts a path or an open text file.
    """
    first = -weights.backward.size
    coefficients = (weights.prefactor * weights.taps).tolist()
    with _open_text(destination) as stream:
        stream.write("# discrete fractional-derivative taps\n")
        stream.write("# offset coefficient  (tap multiplies f(x + offset*delta))\n")
        for offset, c in enumerate(coefficients, start=first):
            stream.write(f"{offset} {c!r}\n")
