"""Reference fractional operators: exact power-function actions, the
quadrature route, and backward differences."""

import math

import mpmath
import numpy as np
import pytest

from fracfilt.errors import ValidationError
from fracfilt.fracops import (
    FractionalOrder,
    SampledSignal,
    gl_coefficients,
    gl_difference,
    rl_integral_numeric,
    rl_power,
    weyl_power,
)
from fracfilt.hahn import apply_discrete_filter, gram_n1_weights
from fracfilt.specfun import gamma

# D^(1/2) x^2 at x = 1: Gamma(3)/Gamma(5/2)
HALF_DERIVATIVE_OF_SQUARE = 1.5045055561273502
# sin(-0.6 pi)/sin(-0.3 pi), the Weyl/lower-limit coefficient ratio at
# alpha = -0.6, mu = 0.3
SINE_RATIO = 1.1755705045849463


class TestFractionalOrder:
    def test_split(self):
        assert FractionalOrder(0.5).n == 1
        assert FractionalOrder(0.5).mu == 0.5
        assert FractionalOrder(1.5).n == 2
        assert FractionalOrder(1.5).mu == 0.5

    def test_integer_order_takes_the_fractional_route(self):
        # n is strictly greater than nu, so mu stays in (0, 1]
        order = FractionalOrder(2.0)
        assert order.n == 3
        assert order.mu == 1.0

    def test_positive_only(self):
        with pytest.raises(ValidationError):
            FractionalOrder(0.0)
        with pytest.raises(ValidationError):
            FractionalOrder(-0.5)


class TestSampledSignal:
    def test_positions(self):
        sig = SampledSignal(x0=1.0, delta=0.25, samples=[0.0, 1.0, 2.0])
        assert len(sig) == 3
        assert sig.position(0) == 1.0
        assert sig.position(2) == 1.5

    def test_samples_coerced_to_float(self):
        sig = SampledSignal(x0=0.0, delta=1.0, samples=[1, 2, 3])
        assert sig.samples.dtype == np.float64

    def test_samples_are_a_read_only_copy(self):
        """Changing the caller's array reaches neither the signal nor a
        filter value, before or after the pair's row table is built."""
        values = np.linspace(0.0, 1.0, 30)
        sig = SampledSignal(x0=0.0, delta=0.1, samples=values, causal=True)
        w = gram_n1_weights(2, 0.5, 0.1, 4)
        before = [apply_discrete_filter(sig, w, i) for i in range(28)]
        values[:] = 99.0
        assert sig.samples[0] == 0.0 and sig.samples[-1] == 1.0
        for _ in range(2):
            assert [apply_discrete_filter(sig, w, i) for i in range(28)] == before
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            SampledSignal(x0=0.0, delta=0.0, samples=[1.0])
        with pytest.raises(ValidationError):
            SampledSignal(x0=0.0, delta=1.0, samples=[])
        with pytest.raises(ValidationError):
            SampledSignal(x0=0.0, delta=1.0, samples=[[1.0, 2.0]])


class TestPowerActions:
    def test_half_derivative_of_square(self):
        assert rl_power(2.0, -0.5, 1.0) == pytest.approx(
            HALF_DERIVATIVE_OF_SQUARE, rel=1e-14
        )
        assert rl_power(2.0, -0.5, 4.0) == pytest.approx(
            HALF_DERIVATIVE_OF_SQUARE * 4.0 ** 1.5, rel=1e-14
        )

    def test_integral_coefficient(self):
        # I^(1/2) x at x = 2: Gamma(2)/Gamma(5/2) * 2^(3/2)
        expected = gamma(2.0) / gamma(2.5) * 2.0 ** 1.5
        assert rl_power(1.0, 0.5, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_semigroup_of_coefficients(self):
        # composing orders mu1 then mu2 is one action of order mu1 + mu2
        alpha, mu1, mu2 = 0.7, 0.4, 1.1
        left = rl_power(alpha, mu1 + mu2, 1.0)
        right = rl_power(alpha, mu1, 1.0) * rl_power(alpha + mu1, mu2, 1.0)
        assert left == pytest.approx(right, rel=1e-13)

    def test_weyl_decaying_power(self):
        # upper-limit half derivative of x^(-3/2): Gamma(2)/Gamma(3/2) x^(-2)
        expected = gamma(2.0) / gamma(1.5) * 2.0 ** -2.0
        assert weyl_power(-1.5, -0.5, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_conventions_differ_by_sine_ratio(self):
        """The two integral conventions act on the same power with
        coefficients whose ratio is sin(pi a)/sin(pi (a + mu))."""
        ratio = weyl_power(-0.6, 0.3, 2.0) / rl_power(-0.6, 0.3, 2.0)
        assert ratio == pytest.approx(SINE_RATIO, rel=1e-13)
        assert ratio == pytest.approx(
            math.sin(-0.6 * math.pi) / math.sin(-0.3 * math.pi), rel=1e-13
        )

    def test_extended_continuation(self):
        # past alpha = -1 the classical coefficient is meaningless; the
        # continued one coincides with the upper-limit coefficient
        assert rl_power(-1.5, 0.3, 2.0, extended=True) == pytest.approx(
            weyl_power(-1.5, 0.3, 2.0), rel=1e-14
        )

    def test_poles_top_and_bottom_leave_the_limit(self):
        """Gamma(top)/Gamma(bottom) with both at poles is the limit
        (-1)^(bottom - top) Gamma(1 - bottom)/Gamma(1 - top), which is
        mpmath.gammaprod's.  rl_power(-3, 1, x): Gamma(-2)/Gamma(-1) = -1/2;
        weyl_power(2, -1, x) is -2x, the upper-limit first derivative of
        x^2; rl_power(-4, 3, x): Gamma(-3)/Gamma(0) = -1/6, another odd gap,
        and rl_power(-3, 2, x): Gamma(-2)/Gamma(0) = +1/2, an even one."""
        assert rl_power(-3.0, 1.0, 2.0) == -0.125
        assert weyl_power(2.0, -1.0, 3.0) == -6.0
        cases = [(rl_power, (-3.0, 1.0, 2.0), -2.0, -1.0),
                 (weyl_power, (2.0, -1.0, 3.0), -1.0, -2.0),
                 (rl_power, (-4.0, 3.0, 2.0), -3.0, 0.0),
                 (rl_power, (-3.0, 2.0, 2.0), -2.0, 0.0)]
        for fn, (alpha, mu, x), top, bottom in cases:
            limit = float(mpmath.gammaprod([top], [bottom]))
            assert fn(alpha, mu, x) == pytest.approx(limit * x ** (alpha + mu), rel=1e-15)

    def test_positive_x_required(self):
        with pytest.raises(ValidationError):
            rl_power(2.0, -0.5, 0.0)
        with pytest.raises(ValidationError):
            weyl_power(-1.5, -0.5, -1.0)


class TestRlIntegralNumeric:
    def test_square_against_closed_form(self):
        value = rl_integral_numeric(lambda y: y * y, 0.5, 1.0, 0.0)
        assert value == pytest.approx(gamma(3.0) / gamma(3.5), rel=1e-9)

    def test_constant(self):
        # I^mu 1 = x^mu / Gamma(mu + 1)
        value = rl_integral_numeric(lambda y: 1.0, 0.7, 2.0, 0.0)
        assert value == pytest.approx(2.0 ** 0.7 / gamma(1.7), rel=1e-9)

    def test_power_matches_rl_power(self):
        value = rl_integral_numeric(lambda y: y ** 1.3, 0.4, 1.5, 0.0)
        assert value == pytest.approx(rl_power(1.3, 0.4, 1.5), rel=1e-8)

    def test_shift_invariance(self):
        shifted = rl_integral_numeric(lambda y: (y - 3.0) ** 2, 0.5, 4.0, 3.0)
        base = rl_integral_numeric(lambda y: y * y, 0.5, 1.0, 0.0)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_degenerate_interval(self):
        assert rl_integral_numeric(lambda y: y, 0.5, 2.0, 2.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            rl_integral_numeric(lambda y: y, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            rl_integral_numeric(lambda y: y, 0.5, 0.0, 1.0)


class TestGlCoefficients:
    def test_first_values_half_order(self):
        np.testing.assert_allclose(
            gl_coefficients(0.5, 5),
            [1.0, -0.5, -0.125, -0.0625, -0.0390625],
            rtol=1e-15,
        )

    def test_integer_order_terminates(self):
        np.testing.assert_allclose(
            gl_coefficients(2.0, 6), [1.0, -2.0, 1.0, 0.0, 0.0, 0.0], atol=0.0
        )

    def test_partial_sum_identity(self):
        # sum_{k=0}^{K} c_k = Gamma(K+1-nu) / (Gamma(1-nu) Gamma(K+1))
        nu, K = 0.3, 12
        total = gl_coefficients(nu, K + 1).sum()
        expected = gamma(K + 1.0 - nu) / (gamma(1.0 - nu) * gamma(K + 1.0))
        assert total == pytest.approx(expected, rel=1e-13)

    def test_summation_coefficients_are_flat(self):
        np.testing.assert_allclose(gl_coefficients(-1.0, 6), np.ones(6), rtol=1e-15)

    def test_count_validated(self):
        with pytest.raises(ValidationError):
            gl_coefficients(0.5, 0)

    @pytest.mark.parametrize("nu", [0.01, 0.3, 0.5, 0.7, 0.99, 1.5, -0.5])
    def test_running_product_matches_the_recurrence_loop(self, nu):
        """The accumulate form rounds each step as c_{k-1} * ((k-1-nu)/k)
        instead of (c_{k-1} (k-1-nu))/k.  The two roundings differ by about
        one ulp per step and wander apart like sqrt(15000) * eps ~ 1.4e-14;
        1e-13 leaves a margin of seven."""
        count = 15000
        loop = np.empty(count)
        loop[0] = 1.0
        for k in range(1, count):
            loop[k] = loop[k - 1] * (k - 1.0 - nu) / k
        np.testing.assert_allclose(gl_coefficients(nu, count), loop, rtol=1e-13, atol=0.0)

    def test_integer_orders_end_in_exact_zeros(self):
        for nu in range(5):
            c = gl_coefficients(float(nu), 12)
            assert np.all(c[nu + 1:] == 0.0) and np.all(c[:nu + 1] != 0.0)


class TestGlDifference:
    def test_first_derivative_of_ramp(self):
        sig = SampledSignal(x0=0.0, delta=0.1, samples=0.1 * np.arange(8))
        assert gl_difference(sig, 1.0, 5, 2) == pytest.approx(1.0, rel=1e-12)

    def test_second_derivative_of_square(self):
        x = 0.7 * np.arange(10)
        sig = SampledSignal(x0=0.0, delta=0.7, samples=x * x)
        # exact for the quadratic at any step
        assert gl_difference(sig, 2.0, 6, 3) == pytest.approx(2.0, rel=1e-12)

    def test_summation_is_the_riemann_sum(self):
        sig = SampledSignal(x0=0.0, delta=0.25, samples=np.ones(9), causal=True)
        assert gl_difference(sig, -1.0, 6, 50) == pytest.approx(7 * 0.25, rel=1e-13)

    def test_half_derivative_of_square(self):
        delta = 0.01
        x = delta * np.arange(121)
        sig = SampledSignal(x0=0.0, delta=delta, samples=x * x, causal=True)
        value = gl_difference(sig, 0.5, 100, 101)
        assert value == pytest.approx(HALF_DERIVATIVE_OF_SQUARE, abs=1e-2)

    def test_causal_silently_caps_history(self):
        sig = SampledSignal(x0=0.0, delta=0.5, samples=np.arange(6.0), causal=True)
        assert gl_difference(sig, 0.5, 3, 500) == gl_difference(sig, 0.5, 3, 4)
        assert gl_difference(sig, 0.5, 3, 10**12) == gl_difference(sig, 0.5, 3, 4)

    def test_noncausal_overrun_rejected(self):
        sig = SampledSignal(x0=0.0, delta=0.5, samples=np.arange(6.0))
        with pytest.raises(ValidationError):
            gl_difference(sig, 0.5, 3, 5)

    def test_index_and_terms_validated(self):
        sig = SampledSignal(x0=0.0, delta=0.5, samples=np.arange(6.0))
        with pytest.raises(ValidationError):
            gl_difference(sig, 0.5, 6, 2)
        with pytest.raises(ValidationError):
            gl_difference(sig, 0.5, 2, 0)
