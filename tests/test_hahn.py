"""Discrete filter weights: the polynomial family behind them, both tap
construction routes, and filter application."""

import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfilt.errors import ValidationError
from fracfilt.fracops import SampledSignal, gl_coefficients, gl_weights
from fracfilt.hahn import (
    FilterWeights,
    HahnFilterParams,
    MAX_DEFAULT_HISTORY,
    apply_discrete_filter,
    default_history,
    export_taps,
    gram_n1_weights,
    hahn_normalization,
    hahn_polynomial,
    hahn_weight_function,
    hahn_weights,
    j1_weight,
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
        with pytest.raises(ValidationError, match="exceeds the scheme order"):
            HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=1, nu=1.5, delta=1.0)
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
