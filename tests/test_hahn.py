"""Discrete filter weights: the polynomial family behind them, both tap
construction routes, and filter application."""

import copy
import io
import math
import pickle
import sys
import threading
import time
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracfilt import hahn
from fracfilt.errors import ValidationError
from fracfilt.fracops import SampledSignal, gl_coefficients, gl_difference, gl_weights
from fracfilt.hahn import (
    FilterWeights,
    HahnFilterParams,
    MAX_DEFAULT_HISTORY,
    apply_discrete_filter,
    default_history,
    export_taps,
    filter_signal,
    gram_n1_weights,
    hahn_normalization,
    hahn_polynomial,
    hahn_weight_function,
    hahn_weights,
    j1_weight,
    j2_weight,
    _j1_lead,
    _j1_series,
)
from fracfilt.specfun import gamma, pochhammer, pochhammer_ratios


def full_taps(w: FilterWeights) -> np.ndarray:
    """Taps in offset order -M..N with the prefactor folded in."""
    return w.prefactor * np.concatenate([w.backward[::-1], w.forward])


class TestDefaultHistory:
    def test_reference_point(self):
        assert default_history(4, 1, 0.5) == 128

    def test_grows_toward_integer_order(self):
        assert default_history(4, 1, 0.9) > default_history(4, 1, 0.5)
        assert default_history(4, 1, 0.999) == MAX_DEFAULT_HISTORY

    def test_small_window(self):
        assert default_history(1, 1, 0.2) == 20

    def test_floor(self):
        assert default_history(1, 1, -5.0) >= 1


class TestParams:
    def test_default_history_filled_in(self):
        p = HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=1, nu=0.5, delta=1.0)
        assert p.M == 128

    def test_validation(self):
        # a NaN or infinite order is refused too: the taps and responses of
        # such a design would be NaN without an error
        for nu in (1.5, math.nan, -math.inf, math.inf):
            with pytest.raises(ValidationError, match="exceeds the scheme order"):
                HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=1, nu=nu, delta=1.0, M=8)
        with pytest.raises(ValidationError):
            HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=5, nu=0.5, delta=1.0)
        with pytest.raises(ValidationError):
            HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=0, nu=0.0, delta=1.0)
        with pytest.raises(ValidationError):
            HahnFilterParams(alpha=-1.0, beta=0.0, N=4, n=1, nu=0.5, delta=1.0)
        with pytest.raises(ValidationError):
            HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=1, nu=0.5, delta=0.0)
        with pytest.raises(ValidationError):
            HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=1, nu=0.5, delta=1.0, M=0)


class TestPolynomialFamily:
    def test_degree_zero_and_endpoint(self):
        assert hahn_polynomial(0, 3.0, 0.3, 1.1, 6) == 1.0
        assert hahn_polynomial(4, 0.0, 0.3, 1.1, 6) == 1.0

    def test_degree_one_closed_form(self):
        alpha, beta, N = 0.3, 1.1, 6
        for j in (0.0, 2.0, 5.0):
            expected = 1.0 - (alpha + beta + 2.0) * j / ((alpha + 1.0) * N)
            assert hahn_polynomial(1, j, alpha, beta, N) == pytest.approx(
                expected, rel=1e-14
            )

    def test_flat_weight_special_case(self):
        for j in range(5):
            assert hahn_weight_function(j, 0.0, 0.0, 4) == pytest.approx(1.0, rel=1e-15)

    def test_weight_reflection_symmetry(self):
        for j in range(7):
            assert hahn_weight_function(j, 0.3, 1.1, 6) == pytest.approx(
                hahn_weight_function(6 - j, 1.1, 0.3, 6), rel=1e-13
            )

    def test_discrete_orthogonality(self):
        alpha, beta, N = 0.3, 1.1, 6
        w = [hahn_weight_function(j, alpha, beta, N) for j in range(N + 1)]
        for m in range(4):
            for n in range(m + 1, 4):
                dot = sum(
                    w[j]
                    * hahn_polynomial(m, float(j), alpha, beta, N)
                    * hahn_polynomial(n, float(j), alpha, beta, N)
                    for j in range(N + 1)
                )
                assert abs(dot) < 1e-12 * sum(w)

    def test_normalization_against_brute_sums(self):
        """The closed Gamma-ratio gain must equal k_n n!/h_n with the
        leading coefficient and squared norm computed from scratch."""
        alpha, beta, N = 0.3, 1.1, 6
        for n in (1, 2, 3):
            hn = sum(
                hahn_weight_function(j, alpha, beta, N)
                * hahn_polynomial(n, float(j), alpha, beta, N) ** 2
                for j in range(N + 1)
            )
            kn = pochhammer(n + alpha + beta + 1.0, n) / (
                pochhammer(alpha + 1.0, n) * pochhammer(-float(N), n)
            )
            expected = kn * math.factorial(n) / hn
            assert hahn_normalization(alpha, beta, N, n) == pytest.approx(
                expected, rel=1e-12
            )

    @pytest.mark.parametrize("alpha,beta,N,n", [
        (0.0, 0.0, 70, 70), (0.0, 0.0, 100, 60), (0.5, 0.5, 150, 3), (1.3, 0.2, 300, 171),
    ])
    def test_normalization_where_the_gamma_products_overflow(self, alpha, beta, N, n):
        """Each Gamma product passes 1e308 while the gain itself is an
        ordinary number; (0, 0, 70, 70) is exactly 1."""
        with mpmath.workdps(40):
            G = mpmath.gamma
            expected = float(
                (-1) ** n * G(2 * n + alpha + beta + 2) * G(beta + 1) * G(N + 1)
                / (G(n + beta + 1) * G(N + n + alpha + beta + 2))
            )
        assert hahn_normalization(alpha, beta, N, n) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_support_validated(self):
        with pytest.raises(ValidationError):
            hahn_polynomial(5, 1.0, 0.0, 0.0, 4)
        with pytest.raises(ValidationError):
            hahn_weight_function(5, 0.0, 0.0, 4)


class TestTapConstruction:
    def test_batch_backward_matches_per_tap_route(self):
        p = HahnFilterParams(alpha=0.5, beta=0.5, N=6, n=2, nu=1.3, delta=0.7, M=30)
        w = hahn_weights(p)
        per_tap = np.array([j1_weight(p, m) for m in range(1, 31)])
        np.testing.assert_allclose(w.backward, per_tap, rtol=1e-13)

    def test_integer_order_kills_the_history(self):
        p = HahnFilterParams(alpha=0.3, beta=1.1, N=5, n=2, nu=2.0, delta=0.5, M=12)
        assert np.all(hahn_weights(p).backward == 0.0)

    def test_reduces_to_backward_difference_series(self):
        """At N = n the window adds nothing: the taps are the plain
        fractional-difference coefficients shifted to the window center."""
        nu, delta, M = 0.6, 0.25, 12
        p = HahnFilterParams(alpha=0.0, beta=0.0, N=1, n=1, nu=nu, delta=delta, M=M)
        taps = full_taps(hahn_weights(p))[::-1]  # coefficient of f(x+(1-k)*delta)
        expected = gl_coefficients(nu, M + 2) / delta ** nu
        np.testing.assert_allclose(taps, expected, rtol=1e-13)

    def test_gram_closed_form_matches_hahn_route(self):
        N, nu, delta, M = 5, 0.7, 0.3, 24
        general = full_taps(
            hahn_weights(
                HahnFilterParams(alpha=0.0, beta=0.0, N=N, n=1, nu=nu, delta=delta, M=M)
            )
        )
        closed = full_taps(gram_n1_weights(N, nu, delta, M))
        np.testing.assert_allclose(closed, general, rtol=1e-12,
                                   atol=1e-14 * np.abs(general).max())

    def test_gram_endpoint_orders_have_no_history(self):
        # nu = 1 terminates the residual series: exact zeros.  nu = 0
        # cancels only in exact arithmetic, so round-off crumbs survive.
        assert np.all(gram_n1_weights(4, 1.0, 1.0, 16).backward == 0.0)
        assert np.abs(gram_n1_weights(4, 0.0, 1.0, 16).backward).max() < 1e-12

    def test_gram_order_one_is_the_least_squares_slope(self):
        N = 4
        w = gram_n1_weights(N, 1.0, 0.1, 8)
        # forward taps proportional to the centered offsets 2m - N
        np.testing.assert_allclose(
            w.forward / w.forward[N], (2.0 * np.arange(N + 1) - N) / N, rtol=1e-14
        )

    def test_gram_order_zero_has_unit_mass(self):
        w = gram_n1_weights(6, 0.0, 0.4, 10)
        assert w.prefactor * w.forward.sum() == pytest.approx(1.0, rel=1e-13)

    def test_backward_decay_exponent(self):
        nu = 0.5
        w = gram_n1_weights(4, nu, 1.0, 4096)
        ratio = w.backward[2047] / w.backward[1023]
        assert ratio == pytest.approx(2.0 ** (-nu - 1.0), rel=1e-2)

    def test_gram_validation(self):
        with pytest.raises(ValidationError):
            gram_n1_weights(0, 0.5, 1.0, 8)
        with pytest.raises(ValidationError):
            gram_n1_weights(4, 1.5, 1.0, 8)
        with pytest.raises(ValidationError):
            gram_n1_weights(4, 0.5, 0.0, 8)
        with pytest.raises(ValidationError):
            gram_n1_weights(4, 0.5, 1.0, 0)


def gram_backward_loop(N, nu, M):
    """gram_n1_weights' backward taps as one scalar loop over m: the
    reference for the array build, which must keep its operation order."""
    backward = np.empty(M)
    a = gamma(2.0 - nu)
    for m in range(1, M + 1):
        s = 0.0
        for k in range(N + 1):
            e = (1.0 - nu) / (m + k)
            s += e + s * e
        backward[m - 1] = a * (2.0 * (N + 1.0) * (1.0 - nu) - (2.0 * m + N * nu) * s)
        a *= (m - nu + 1.0) / m
    return backward


def hahn_backward_loop(p):
    """hahn_weights' backward taps as one scalar loop over m (see above)."""
    backward = np.empty(p.M)
    lead = _j1_lead(p.alpha, p.beta, p.N, p.n)
    ratio = pochhammer_ratios(-p.nu, p.n)[p.n]
    for m in range(1, p.M + 1):
        ratio *= (m + p.n - 1.0 - p.nu) / (m + p.n)
        backward[m - 1] = lead * ratio * _j1_series(p, m)
    return backward


TAP_SHAPES = [(1, 1, 0.5), (1, 64, 0.0), (2, 256, 1.0), (4, 1024, 0.5),
              (7, 150, 0.3), (16, 4096, 0.9), (64, 4096, 0.01), (64, 4096, 0.73)]


class TestVectorisedTaps:
    @pytest.mark.parametrize("N,M,nu", TAP_SHAPES)
    def test_gram_backward_is_bit_identical_to_the_loop(self, N, M, nu):
        w = gram_n1_weights(N, nu, 0.01, M)
        assert np.array_equal(w.backward, gram_backward_loop(N, nu, M))

    @pytest.mark.parametrize("N,M,nu", TAP_SHAPES)
    def test_hahn_backward_is_bit_identical_to_the_loop(self, N, M, nu):
        p = HahnFilterParams(alpha=0.0, beta=0.0, N=N, n=1, nu=nu, delta=0.01, M=M)
        assert np.array_equal(hahn_weights(p).backward, hahn_backward_loop(p))

    @pytest.mark.parametrize("alpha,beta,N,n,nu,M", [
        (0.5, 0.5, 16, 1, 0.5, 529), (0.3, 1.1, 6, 2, 1.3, 300), (2.0, 0.0, 9, 3, 2.5, 64),
        (0.0, 0.0, 4, 4, 3.2, 32),
    ])
    def test_weighted_hahn_backward_is_bit_identical(self, alpha, beta, N, n, nu, M):
        p = HahnFilterParams(alpha=alpha, beta=beta, N=N, n=n, nu=nu, delta=0.5, M=M)
        assert np.array_equal(hahn_weights(p).backward, hahn_backward_loop(p))

    @pytest.mark.parametrize("alpha,beta,N,n,nu", [
        *((0.0, 0.0, N, 1, nu) for N, _, nu in TAP_SHAPES),
        (0.5, 0.5, 16, 1, 0.5), (0.3, 1.1, 6, 2, 1.3), (0.3, 1.1, 5, 2, 2.0),
        (2.0, 0.0, 9, 3, 2.5), (0.0, 0.0, 4, 4, 3.2), (0.0, 0.0, 200, 171, 0.5),
    ])
    def test_hahn_forward_is_bit_identical_to_the_per_tap_route(self, alpha, beta, N, n, nu):
        p = HahnFilterParams(alpha=alpha, beta=beta, N=N, n=n, nu=nu, delta=0.5, M=8)
        per_tap = np.array([j2_weight(p, m) for m in range(N + 1)])
        # bits, so that a sign of zero counts too
        assert np.array_equal(hahn_weights(p).forward.view(np.int64), per_tap.view(np.int64))

    def test_hahn_builds_its_pochhammer_tables_once(self, monkeypatch):
        """Forward taps share three tables, so the count of table builds
        does not grow with the window."""
        calls = []

        def counted(a, n):
            calls.append(n)
            return pochhammer_ratios(a, n)

        monkeypatch.setattr(hahn, "pochhammer_ratios", counted)
        counts = []
        for N in (4, 64):
            calls.clear()
            hahn_weights(HahnFilterParams(alpha=0.5, beta=0.5, N=N, n=1, nu=0.5,
                                          delta=0.1, M=16))
            counts.append(len(calls))
        assert counts == [5, 5]  # three forward tables, two for the backward taps

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(1, 20),
        M=st.integers(1, 300),
        nu=st.floats(0.0, 1.0),
        delta=st.floats(1e-4, 10.0),
    )
    def test_hahn_equals_gram_at_flat_weight_first_order(self, N, M, nu, delta):
        """The paper's collapse: at alpha = beta = 0, n = 1 the general Hahn
        taps are the closed-form Gram taps."""
        p = HahnFilterParams(alpha=0.0, beta=0.0, N=N, n=1, nu=nu, delta=delta, M=M)
        general = full_taps(hahn_weights(p))
        closed = full_taps(gram_n1_weights(N, nu, delta, M))
        scale = np.abs(general).max()
        np.testing.assert_allclose(closed, general, rtol=0, atol=1e-12 * scale)


class TestOrderBeyondFactorialRange:
    def test_forward_taps_past_n_170(self):
        """(-N)_n and n! both pass 1e308 at n > 170; the lead of the
        forward taps is their running ratio, so the taps stay finite."""
        p = HahnFilterParams(alpha=0.0, beta=0.0, N=200, n=171, nu=0.5, delta=1.0, M=5)
        assert np.all(np.isfinite(full_taps(hahn_weights(p))))


class TestTapLayout:
    @pytest.mark.parametrize("w", [
        gram_n1_weights(4, 0.5, 0.1, 16),
        hahn_weights(HahnFilterParams(alpha=0.5, beta=0.5, N=6, n=2, nu=1.5,
                                      delta=0.1, M=9)),
        gl_weights(0.5, 12, 0.1),
        gl_weights(0.5, 1, 0.1),
    ], ids=["gram", "hahn", "gl", "gl-no-history"])
    def test_forward_and_backward_are_read_only_views_of_taps(self, w):
        M = w.backward.size
        assert w.taps.size == M + w.forward.size
        assert np.shares_memory(w.forward, w.taps)
        assert M == 0 or np.shares_memory(w.backward, w.taps)
        np.testing.assert_array_equal(w.taps[M:], w.forward)
        np.testing.assert_array_equal(w.taps[:M], w.backward[::-1])
        for view in (w.taps, w.forward, w.backward):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[...] = 0.0

    def test_taps_are_a_copy_of_the_inputs(self):
        forward, backward = np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])
        w = FilterWeights(forward=forward, backward=backward, prefactor=1.0)
        forward[0] = backward[0] = 0.0
        np.testing.assert_array_equal(w.taps, [5.0, 4.0, 3.0, 1.0, 2.0])

    def test_gl_weights_are_the_backward_difference(self):
        w = gl_weights(0.5, 12, 0.1)
        c = gl_coefficients(0.5, 12)
        np.testing.assert_array_equal(w.forward, c[:1])
        np.testing.assert_array_equal(w.backward, c[1:])
        assert w.prefactor == 0.1 ** -0.5


class TestApplyDiscreteFilter:
    def test_matches_manual_sum(self):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal(40)
        sig = SampledSignal(x0=0.0, delta=0.1, samples=samples)
        w = gram_n1_weights(3, 0.5, 0.1, 8)
        at = 20
        manual = w.forward @ samples[at: at + 4]
        manual += w.backward @ samples[at - 8: at][::-1]
        assert apply_discrete_filter(sig, w, at) == pytest.approx(
            w.prefactor * manual, rel=1e-13
        )

    def test_ramp_derivative_exact(self):
        x = 0.2 * np.arange(30)
        sig = SampledSignal(x0=0.0, delta=0.2, samples=x)
        w = gram_n1_weights(4, 1.0, 0.2, 8)
        assert apply_discrete_filter(sig, w, 15) == pytest.approx(1.0, rel=1e-12)

    def test_causal_substitutes_zero_history(self):
        samples = np.ones(20)
        causal = SampledSignal(x0=0.0, delta=0.5, samples=samples, causal=True)
        w = gram_n1_weights(2, 0.5, 0.5, 12)
        at = 5  # only 5 of the 12 backward taps have samples
        manual = w.forward @ samples[at: at + 3]
        manual += w.backward[:at] @ samples[:at][::-1]
        assert apply_discrete_filter(causal, w, at) == pytest.approx(
            w.prefactor * manual, rel=1e-13
        )

    def test_noncausal_missing_history_rejected(self):
        sig = SampledSignal(x0=0.0, delta=0.5, samples=np.ones(20))
        w = gram_n1_weights(2, 0.5, 0.5, 12)
        with pytest.raises(ValidationError, match="history"):
            apply_discrete_filter(sig, w, 5)

    def test_lookahead_always_required(self):
        sig = SampledSignal(x0=0.0, delta=0.5, samples=np.ones(20), causal=True)
        w = gram_n1_weights(2, 0.5, 0.5, 12)
        with pytest.raises(ValidationError, match="lookahead"):
            apply_discrete_filter(sig, w, 18)

    def test_index_range(self):
        sig = SampledSignal(x0=0.0, delta=0.5, samples=np.ones(20), causal=True)
        w = gram_n1_weights(2, 0.5, 0.5, 12)
        with pytest.raises(ValidationError):
            apply_discrete_filter(sig, w, 20)


class TestFilterSignal:
    """filter_signal is the whole-record form of apply_discrete_filter:
    one validity rule, one set of values."""

    @settings(max_examples=300, deadline=None)
    @given(L=st.integers(1, 40), N=st.integers(0, 7), M=st.integers(0, 49),
           causal=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(L=3, N=4, M=2, causal=True, seed=0)  # lookahead past both ends
    @example(L=5, N=1, M=9, causal=False, seed=0)  # no row has its history
    @example(L=5, N=1, M=9, causal=True, seed=0)
    def test_valid_exactly_where_the_pointwise_call_returns(self, L, N, M, causal, seed):
        rng = np.random.default_rng(seed)
        w = FilterWeights(forward=rng.standard_normal(N + 1),
                          backward=rng.standard_normal(M), prefactor=rng.uniform(0.5, 2.0))
        samples = rng.standard_normal(L)
        sig = SampledSignal(x0=0.0, delta=0.1, samples=samples, causal=causal)
        values, valid = filter_signal(sig, w)
        assert values.shape == valid.shape == (L,)
        for i in range(L):
            try:
                expected = apply_discrete_filter(sig, w, i)
            except ValidationError:
                assert valid[i] == 0 and math.isnan(values[i])
                continue
            assert valid[i] == 1
            assert values[i] == expected


def export_taps_two_loops(w: FilterWeights) -> str:
    """export_taps written from the backward and forward arrays in two
    loops, the reference for its single loop over the offset-ordered taps."""
    lines = ["# discrete fractional-derivative taps\n",
             "# offset coefficient  (tap multiplies f(x + offset*delta))\n"]
    for m in range(w.backward.size, 0, -1):
        lines.append(f"{-m} {float(w.prefactor * w.backward[m - 1])!r}\n")
    for m in range(w.forward.size):
        lines.append(f"{m} {float(w.prefactor * w.forward[m])!r}\n")
    return "".join(lines)


def raw_rows(sig: SampledSignal, w: FilterWeights) -> np.ndarray:
    """Every row of filter_signal before masking: the prefactor times one
    correlation of the taps with the zero-padded record."""
    M, N = w.backward.size, w.forward.size - 1
    padded = np.concatenate([np.zeros(M), sig.samples, np.zeros(N)])
    return w.prefactor * np.correlate(padded, w.taps, mode="valid")


def same_bits(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def callable_rows(sig: SampledSignal, w: FilterWeights) -> np.ndarray:
    """Indices where apply_discrete_filter returns a value."""
    M, N = w.backward.size, w.forward.size - 1
    return np.arange(0 if sig.causal else M, len(sig) - N)


class TestRowLaw:
    """apply_discrete_filter(signal, w, i) is row i of filter_signal, bit
    for bit, whether it correlates its own window or reads the table the
    pair's calls paid for."""

    @staticmethod
    def signal(rng, causal):
        samples = rng.standard_normal(int(rng.integers(1, 41)))
        for _ in range(int(rng.integers(0, 3))):   # non-finite samples
            samples[rng.integers(samples.size)] = rng.choice([math.nan, math.inf, -math.inf])
        return SampledSignal(x0=0.0, delta=0.1, samples=samples, causal=causal)

    @staticmethod
    def check_calls(rng, sig, w, count):
        rows = callable_rows(sig, w)
        if rows.size == 0:
            return
        expected = raw_rows(sig, w)
        for i in rng.choice(rows, size=count):
            assert same_bits(apply_discrete_filter(sig, w, int(i)), expected[i])

    @settings(max_examples=200, deadline=None)
    @given(N=st.integers(0, 7), M=st.integers(0, 49), causal=st.booleans(),
           other_causal=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_every_call_is_the_raw_row(self, N, M, causal, other_causal, seed):
        rng = np.random.default_rng(seed)
        w = FilterWeights(forward=rng.standard_normal(N + 1),
                          backward=rng.standard_normal(M), prefactor=rng.uniform(0.5, 2.0))
        first, second = self.signal(rng, causal), self.signal(rng, other_causal)
        values, valid = filter_signal(first, w)
        raw = raw_rows(first, w)
        assert np.array_equal(values[valid == 1], raw[valid == 1])
        # past break-even on the first signal, then on the second, then
        # back on the first, whose count starts again
        for sig in (first, second, first):
            self.check_calls(rng, sig, w, 2 * len(sig) + 1)


class TestRowTable:
    """The whole-record rows are computed once, after the pair's calls
    have cost as much, and live and die with the weights."""

    @pytest.fixture
    def record_calls(self, monkeypatch):
        spans = []

        def recorded(samples, taps, n_bwd, start, stop):
            spans.append(stop - start)
            return raw(samples, taps, n_bwd, start, stop)

        raw = hahn._raw_rows
        monkeypatch.setattr(hahn, "_raw_rows", recorded)
        return spans

    @staticmethod
    def pair(L=30):
        rng = np.random.default_rng(11)
        sig = SampledSignal(x0=0.0, delta=0.1, samples=rng.standard_normal(L), causal=True)
        return sig, gram_n1_weights(3, 0.5, 0.1, 20)

    def test_one_whole_record_correlation_at_break_even(self, record_calls):
        sig, w = self.pair()
        L = len(sig)
        for k in range(4 * L):
            apply_discrete_filter(sig, w, k % (L - 3))
            whole = record_calls.count(L)
            assert whole == (0 if k + 1 < L else 1)
        assert len(record_calls) == L  # L - 1 single rows, then the record

    def test_gl_difference_loops_never_tabulate(self, record_calls):
        sig, _ = self.pair()
        for k in range(3 * len(sig)):
            at = k % len(sig)
            gl_difference(sig, 0.5, at, at + 1)
        assert record_calls and set(record_calls) == {1}

    def test_table_is_freed_with_the_weights(self):
        sig, w = self.pair()
        for k in range(len(sig)):
            apply_discrete_filter(sig, w, k % 10)
        rows = w._table.state[2]
        assert rows is not None and rows.size == len(sig)
        weights_ref, rows_ref = weakref.ref(w), weakref.ref(rows)
        del w, rows
        assert weights_ref() is None and rows_ref() is None

    def test_table_does_not_keep_the_signal(self):
        sig, w = self.pair()
        for k in range(len(sig)):
            apply_discrete_filter(sig, w, k % 10)
        signal_ref = weakref.ref(sig)
        del sig
        assert signal_ref() is None

    def test_used_weights_pickle_and_copy(self):
        sig, w = self.pair()
        for k in range(len(sig)):
            apply_discrete_filter(sig, w, k % 10)
        expected = raw_rows(sig, w)
        for clone in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert np.array_equal(clone.taps, w.taps) and clone.prefactor == w.prefactor
            for i in range(len(sig) - 3):
                assert apply_discrete_filter(sig, clone, i) == expected[i]

    def test_threads_sharing_weights_get_their_own_rows(self):
        """Threads race on one weights with two signals: the table is built
        and dropped under them, and each call still returns its own
        signal's row."""
        rng = np.random.default_rng(5)
        w = gram_n1_weights(2, 0.5, 0.1, 8)
        a, b = (SampledSignal(x0=0.0, delta=0.1, samples=rng.standard_normal(L), causal=True)
                for L in (40, 60))
        expected = {id(a): raw_rows(a, w), id(b): raw_rows(b, w)}
        for i in range(len(a)):             # start with a's table built
            apply_discrete_filter(a, w, i % 30)
        wrong = []

        def worker(sig, calls, pause):
            rows = expected[id(sig)]
            for j in range(calls):
                i = (j * 7) % (len(sig) - 2)
                if apply_discrete_filter(sig, w, i) != rows[i]:
                    wrong.append((len(sig), i))
                time.sleep(pause)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # b's calls come seldom enough that a's count reaches 40 between them
            threads = [threading.Thread(target=worker, args=(a, 1500, 0.0)) for _ in range(6)]
            threads += [threading.Thread(target=worker, args=(b, 20, 2e-3)) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestExportTaps:
    @pytest.mark.parametrize("w", [
        gram_n1_weights(16, 0.5, 1e-3, 300),
        hahn_weights(HahnFilterParams(alpha=0.3, beta=1.1, N=9, n=3, nu=2.5,
                                      delta=0.01, M=200)),
    ], ids=["gram", "hahn-weighted"])
    def test_bytes_match_the_two_loop_table(self, w, tmp_path):
        path = tmp_path / "taps.txt"
        export_taps(w, str(path))
        assert path.read_bytes() == export_taps_two_loops(w).encode("ascii")

    def test_round_trip(self):
        w = gram_n1_weights(3, 0.5, 0.1, 6)
        buf = io.StringIO()
        export_taps(w, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#") and lines[1].startswith("#")
        rows = [line.split() for line in lines[2:]]
        offsets = [int(r[0]) for r in rows]
        assert offsets == list(range(-6, 4))
        coeffs = np.array([float(r[1]) for r in rows])
        np.testing.assert_array_equal(coeffs, full_taps(w))
