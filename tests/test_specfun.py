"""Special-function layer checked against mpmath.

Every function here has an independent high-precision reference (mpmath at
40 digits) or an exact identity, so the tolerances are set by the float64
evaluation routes, not by the references.
"""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfilt.errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    ValidationError,
)
from fracfilt.specfun import (
    SERIES_RTOL,
    complex_power,
    gamma,
    gamma_ratio,
    hyp2f1,
    hyp3f2_unit,
    kummer_m,
    pochhammer,
    pochhammer_ratios,
    rgamma,
    spherical_jn_ratio,
)

MP_DPS = 40


def _mp(fn, *args):
    """Evaluate an mpmath function at high precision, return complex."""
    with mpmath.workdps(MP_DPS):
        return complex(fn(*args))


def _ratio_ref(n, x):
    """j_n(x) / x^n, with j_n(x) = sqrt(pi / (2x)) J_{n+1/2}(x), for x > 0,
    from mpmath."""
    with mpmath.workdps(MP_DPS):
        t = mpmath.mpf(x)
        return float(mpmath.sqrt(mpmath.pi / (2 * t)) * mpmath.besselj(n + 0.5, t) / t ** n)


class TestGamma:
    def test_factorials(self):
        for n in range(1, 11):
            assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-14)

    def test_half_integers(self):
        rp = math.sqrt(math.pi)
        assert gamma(0.5) == pytest.approx(rp, rel=1e-14)
        assert gamma(1.5) == pytest.approx(0.5 * rp, rel=1e-14)
        assert gamma(-0.5) == pytest.approx(-2.0 * rp, rel=1e-14)
        assert gamma(-1.5) == pytest.approx(4.0 * rp / 3.0, rel=1e-14)

    def test_matches_mpmath_on_grid(self):
        xs = np.concatenate([np.linspace(-4.8, -0.2, 47), np.linspace(0.05, 12.0, 60)])
        xs = [x for x in xs if abs(x - round(x)) > 0.05]
        for x in xs:
            ref = _mp(mpmath.gamma, x).real
            assert gamma(float(x)) == pytest.approx(ref, rel=1e-13)

    def test_reflection(self):
        # gamma(x) gamma(1-x) = pi / sin(pi x) away from integers
        for x in (0.3, 0.5, -0.7, 2.2, -3.6):
            lhs = gamma(x) * gamma(1.0 - x)
            assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -42.0])
    def test_poles_raise(self, x):
        with pytest.raises(PoleError):
            gamma(x)


class TestRgamma:
    def test_exact_zero_at_poles(self):
        for x in (0.0, -1.0, -2.0, -13.0):
            assert rgamma(x) == 0.0

    def test_reciprocal_elsewhere(self):
        for x in (0.4, 3.7, -2.5, -0.1):
            assert rgamma(x) == pytest.approx(1.0 / gamma(x), rel=1e-14)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0
        assert pochhammer(-2.0, 0) == 1.0

    def test_recurrence(self):
        a = 1.3
        for k in range(1, 12):
            assert pochhammer(a, k) == pytest.approx(
                pochhammer(a, k - 1) * (a + k - 1), rel=1e-14
            )

    def test_gamma_ratio(self):
        assert pochhammer(2.5, 4) == pytest.approx(gamma(6.5) / gamma(2.5), rel=1e-13)

    def test_negative_integer_truncates(self):
        assert pochhammer(-3.0, 4) == 0.0
        assert pochhammer(-3.0, 3) == pytest.approx(-6.0, rel=1e-14)

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError):
            pochhammer(1.0, -1)


class TestGammaRatio:
    @pytest.mark.parametrize("tops,bottoms", [
        ((2.5, 7.0, 1.0), (3.0, 6.5)),             # plain products
        ((142.0, 71.0), (71.0, 142.0)),            # both products overflow
        ((122.0, 1.0, 101.0), (61.0, 162.0)),      # hahn_normalization(0, 0, 100, 60)
        ((300.5,), (299.0,)),                       # one factor overflows
        ((-0.5, 200.0), (199.0,)),                 # negative factor, lgamma route
        ((-170.5, 3.0), (-169.5, 2.0)),            # factors near 1e-307
    ])
    def test_matches_mpmath(self, tops, bottoms):
        with mpmath.workdps(MP_DPS):
            ref = float(mpmath.fprod(map(mpmath.gamma, tops))
                        / mpmath.fprod(map(mpmath.gamma, bottoms)))
        assert gamma_ratio(tops, bottoms) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_plain_route_is_the_gamma_quotient(self):
        tops, bottoms = (2.3, 17.9, 4.4), (0.7, 12.1)
        expected = gamma(2.3) * gamma(17.9) * gamma(4.4) / (gamma(0.7) * gamma(12.1))
        assert gamma_ratio(tops, bottoms) == expected

    def test_pole_on_top_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio((-2.0, 3.0), (1.5,))

    def test_pole_below_gives_zero(self):
        assert gamma_ratio((3.5,), (-4.0,)) == 0.0

    @pytest.mark.parametrize("tops,bottoms", [
        ((400.0,), (2.0,)), ((180.0, 180.0), (3.0,)), ((171.6,), (1.5, 1.5)),
    ])
    def test_overflowing_ratio_is_a_domain_error(self, tops, bottoms):
        with pytest.raises(DomainError):
            gamma_ratio(tops, bottoms)


class TestPochhammerRatios:
    @pytest.mark.parametrize("a", [1.3, -0.5, 2.5, -3.0])
    def test_matches_pochhammer_over_factorial(self, a):
        table = pochhammer_ratios(a, 12)
        assert table.shape == (13,)
        for j in range(13):
            assert table[j] == pytest.approx(
                pochhammer(a, j) / math.factorial(j), rel=1e-13, abs=0.0
            )

    def test_negative_integer_ends_in_exact_zeros(self):
        assert np.all(pochhammer_ratios(-3.0, 10)[4:] == 0.0)

    def test_past_factorial_range(self):
        # (2.5)_300 and 300! both overflow; their ratio is about 4e3
        with mpmath.workdps(MP_DPS):
            ref = float(mpmath.rf(2.5, 300) / mpmath.factorial(300))
        assert pochhammer_ratios(2.5, 300)[300] == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestComplexPower:
    def test_matches_principal_branch_off_cut(self):
        for z in (1.0 + 2.0j, -3.0 + 0.4j, -3.0 - 0.4j, 0.2 - 5.0j):
            for nu in (0.5, 1.7, -0.3):
                ref = cmath.exp(nu * cmath.log(z))
                assert complex_power(z, nu) == pytest.approx(ref, rel=1e-14)

    def test_positive_real(self):
        assert complex_power(2.0, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_zero_base(self):
        assert complex_power(0.0, 1.5) == 0j
        assert complex_power(0.0, 0.0) == 1.0 + 0j
        with pytest.raises(DomainError):
            complex_power(0.0, -0.5)

    def test_cut_is_refused(self):
        """The negative real axis has no principal value and no caller in
        the package, so every point on it is refused, whatever the sign of
        its zero imaginary part, and just off it the principal value runs."""
        for z in (-1.0, -2.5 + 0.0j, complex(-2.5, -0.0), np.float64(-1e-300)):
            with pytest.raises(ValidationError):
                complex_power(z, 0.5)
            with pytest.raises(ValidationError):
                complex_power(np.array([1.0, z]), 0.5)
        assert complex_power(-2.0 + 1e-12j, 0.5) == pytest.approx(math.sqrt(2.0) * 1j, rel=1e-12)

    def test_exponent_additivity(self):
        z = -1.5 + 0.7j
        lhs = complex_power(z, 0.4) * complex_power(z, 1.1)
        assert lhs == pytest.approx(complex_power(z, 1.5), rel=1e-13)

    @pytest.mark.parametrize("z, nu", [
        (0.0, 1.5), (0.0, 0.0), (-1.0 + 1e-300j, 0.5), (-2.5 - 1e-12j, 0.3),
        (2.5, 1.7), (-0.0 + 3.0j, -0.4),
    ])
    def test_scalar_path_matches_the_array_path(self, z, nu):
        """A scalar z, also as a 0-d array or numpy scalar, gives a complex
        equal to what an array call gives for the same point at z = 0 and
        next to the cut."""
        expected = complex_power(np.array([z, 1.0]), nu)[0]
        for scalar in (z, np.asarray(z), np.complex128(z)):
            got = complex_power(scalar, nu)
            assert type(got) is complex
            assert got == pytest.approx(expected, rel=1e-15, abs=1e-300)

    def test_scalar_path_refuses_like_the_array_path(self):
        for scalar in (0.0, np.asarray(0.0)):
            with pytest.raises(DomainError):
                complex_power(scalar, -0.5)
        with pytest.raises(DomainError):
            complex_power(np.array([0.0, 1.0]), -0.5)
        for scalar in (-1.0, np.asarray(-1.0 + 0.0j)):
            with pytest.raises(ValidationError):
                complex_power(scalar, 0.5)
        with pytest.raises(ValidationError):
            complex_power(np.array([-1.0, 1.0]), 0.5)


class TestGaussHypergeometric:
    def test_terminating_is_the_polynomial(self):
        a, b, c, z = -3.0, 1.7, 2.9, 4.2
        expected = sum(
            pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * math.factorial(k))
            * z ** k
            for k in range(4)
        )
        assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (0.3, 1.7, 2.9, 0.5),      # direct series
            (0.3, 1.7, 2.9, -0.4),
            (1.2, 0.4, 3.3, -0.95),    # the direct series at its negative edge
            (0.3, 1.7, 2.9, 0.97),     # connection formula near z = 1
            (0.25, 0.35, 2.2, 0.999),
            (1.5, 0.5, 4.4, 0.96),
        ],
    )
    def test_matches_mpmath(self, a, b, c, z):
        ref = _mp(mpmath.hyp2f1, a, b, c, z).real
        assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=1e-13)

    def test_terminating_outside_unit_disk(self):
        ref = _mp(mpmath.hyp2f1, -2.0, 1.3, 2.6, 7.7).real
        assert hyp2f1(-2.0, 1.3, 2.6, 7.7) == pytest.approx(ref, rel=1e-13)

    def test_complex_unit_circle_terminating(self):
        # the shape used by the discrete filter response
        z = cmath.exp(-0.7j)
        ref = _mp(mpmath.hyp2f1, -3.0, 2.0, -5.0, z)
        assert hyp2f1(-3.0, 2.0, -5.0, z) == pytest.approx(ref, rel=1e-13)

    def test_gauss_value_at_unity(self):
        a, b, c = 0.3, 0.8, 2.4
        ref = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
        assert hyp2f1(a, b, c, 1.0) == pytest.approx(ref, rel=1e-13)

    def test_branch_cut_raises(self):
        with pytest.raises(DomainError):
            hyp2f1(0.3, 1.7, 2.9, 1.5)

    @pytest.mark.parametrize("z", [-0.9500001, -3.0, -40.0, 0.2j, 0.5 + 1e-9j, -0.4 + 0.85j])
    def test_non_real_and_far_negative_arguments_raise(self, z):
        """A non-terminating 2F1 takes real z in [-0.95, 1] only: real
        z < -0.95 and every non-real z raise, as a scalar and anywhere in
        an array."""
        with pytest.raises(DomainError):
            hyp2f1(0.3, 1.7, 2.9, z)
        with pytest.raises(DomainError):
            hyp2f1(0.3, 1.7, 2.9, np.array([0.5, z]))

    def test_logarithmic_case_not_implemented(self):
        # c - a - b = 1 with z close to 1 needs the log connection formula
        with pytest.raises(ConvergenceError):
            hyp2f1(0.5, 0.5, 2.0, 0.97)

    def test_bottom_pole_raises(self):
        with pytest.raises(PoleError):
            hyp2f1(0.3, 1.7, -1.0, 0.5)

    def test_bottom_pole_before_termination_raises(self):
        # a = -3 stops the series at k = 3, after c = -1 puts a 0 in (c)_2
        with pytest.raises(PoleError):
            hyp2f1(-3.0, 1.0, -1.0, 0.5)
        with pytest.raises(PoleError):
            hyp2f1(-3.0, 1.0, -1.0, np.array([0.5, 0.2]))

    @pytest.mark.parametrize("c", [1.5, 2.0])
    def test_gauss_value_needs_positive_c_minus_a_minus_b(self, c):
        # at z = 1 the series diverges unless c - a - b > 0
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, c, 1.0)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, c, np.array([0.5, 1.0]))

    def test_complex_zero_imaginary_arguments_are_real(self):
        """A complex z with zero imaginary part takes the real route and
        returns real values: 2F1(1/2, 1/2; 3/2; x) = asin(sqrt x)/sqrt x."""
        z = np.array([0.2 + 0j, 0.3 + 0j])
        got = hyp2f1(0.5, 0.5, 1.5, z)
        assert got.dtype == np.float64
        assert np.array_equal(got, hyp2f1(0.5, 0.5, 1.5, z.real))
        assert hyp2f1(0.5, 0.5, 1.5, 0.2 + 0j) == got[0]
        for x, g in zip(z.real.tolist(), got.tolist()):
            assert g == pytest.approx(math.asin(math.sqrt(x)) / math.sqrt(x), rel=1e-14)

    def test_bottom_pole_after_termination_is_fine(self):
        # c = -3 but the a = -1 series stops at k = 1, before the pole
        assert hyp2f1(-1.0, 2.0, -3.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-14)


class TestKummer:
    @pytest.mark.parametrize(
        "a,c,z",
        [
            (0.7, 1.9, 5.0),
            (1.2, 3.4, 45.0),
        ],
    )
    def test_real_arguments_match_mpmath(self, a, c, z):
        ref = _mp(mpmath.hyp1f1, a, c, z).real
        assert kummer_m(a, c, z) == pytest.approx(ref, rel=5e-13)

    def test_small_imaginary_argument(self):
        ref = _mp(mpmath.hyp1f1, 2.5, 6.0, 2j)
        assert kummer_m(2.5, 6.0, 2j) == pytest.approx(ref, rel=1e-13)

    def test_large_imaginary_argument(self):
        """Oscillatory series: partial sums reach ~e^|z| before cancelling,
        so near the cap only about 1e-8 relative accuracy survives."""
        ref = _mp(mpmath.hyp1f1, 2.0, 6.0, 20j)
        assert kummer_m(2.0, 6.0, 20j) == pytest.approx(ref, rel=1e-8)

    def test_terminating_polynomial(self):
        ref = _mp(mpmath.hyp1f1, -2.0, 3.0, 8.0).real
        assert kummer_m(-2.0, 3.0, 8.0) == pytest.approx(ref, rel=1e-13)

    def test_cap_raises(self):
        with pytest.raises(DomainError):
            kummer_m(1.0, 2.0, 60j)
        with pytest.raises(DomainError):
            kummer_m(1.0, 2.0, -51.0)

    def test_bottom_pole_raises(self):
        with pytest.raises(PoleError):
            kummer_m(0.7, 0.0, 1.0)

    def test_bottom_pole_before_termination_raises(self):
        # a = -3 stops the series at k = 3, after c = -1 puts a 0 in (c)_2
        with pytest.raises(PoleError):
            kummer_m(-3.0, -1.0, 0.5)
        with pytest.raises(PoleError):
            kummer_m(-3.0, -1.0, np.array([0.5, 2j]))

    @pytest.mark.parametrize("z", [-30.0, -45.0, -3.0 + 4.0j, -1e-300 + 2.0j])
    def test_negative_real_part_raises(self, z):
        """A non-terminating M takes Re z >= 0 only, as a scalar and
        anywhere in an array; a terminating M takes any z."""
        with pytest.raises(DomainError):
            kummer_m(2.5, 6.0, z)
        with pytest.raises(DomainError):
            kummer_m(2.5, 6.0, np.array([2j, z]))
        assert kummer_m(-2.0, 3.0, z) == pytest.approx(
            _mp(mpmath.hyp1f1, -2.0, 3.0, z), rel=1e-13)


class TestArrayArguments:
    """Array arguments give one value per point, each as accurate as the
    scalar call, and an array call raises whenever one of its points would."""

    def test_terminating_2f1_on_the_unit_circle(self):
        z = np.exp(-1j * np.linspace(0.01, math.pi, 25))
        got = hyp2f1(-6.0, 2.5, -9.5, z)
        assert got.shape == z.shape
        for zi, g in zip(z, got):
            ref = _mp(mpmath.hyp2f1, -6.0, 2.5, -9.5, complex(zi))
            scale = _mp(mpmath.hyp2f1, -6.0, 2.5, -9.5, 1.0).real  # sum of |terms|
            assert abs(g - ref) <= 1e-14 * abs(scale)

    def test_terminating_at_index_zero_keeps_the_shape(self):
        z = np.array([0.3, 2.0, -7.0])
        np.testing.assert_array_equal(hyp2f1(0.0, 1.5, 2.5, z), np.ones(3))

    def test_direct_2f1_series_converges_per_point(self):
        # points a few terms apart and points needing hundreds of terms
        z = np.array([1e-3, -0.5, 0.9, -0.94, 0.95])
        got = hyp2f1(0.3, 1.7, 2.9, z)
        for zi, g in zip(z.tolist(), got):
            ref = _mp(mpmath.hyp2f1, 0.3, 1.7, 2.9, zi).real
            assert g == pytest.approx(ref, rel=1e-13)
            assert g == pytest.approx(hyp2f1(0.3, 1.7, 2.9, zi), rel=1e-14)

    def test_2f1_array_outside_the_disk_raises(self):
        # real points in (0.95, 1] have branches of their own; a non-real
        # one there, or a real one on the cut, has none
        with pytest.raises(DomainError):
            hyp2f1(0.3, 1.7, 2.9, np.array([0.5, 0.97j]))
        with pytest.raises(DomainError):
            hyp2f1(0.3, 1.7, 2.9, np.array([0.5, 0.97, 1.2]))

    @pytest.mark.parametrize("a, b, c", [(0.3, 1.7, 2.9), (1.25, 2.5, 4.1), (-0.4, 0.75, 1.45)])
    def test_real_2f1_array_matches_scalar_on_every_branch(self, a, b, c):
        # series (|z| <= 0.95, hundreds of terms at its edges), connection
        # (0.95 < z < 1) and Gauss (z = 1), in one call
        z = np.array([-0.95, -0.51, -0.5, -0.2, 0.0, 1e-3, 0.4, 0.8,
                      0.93, 0.95, 0.9500001, 0.97, 0.999, 1.0 - 1e-9, 1.0])
        got = hyp2f1(a, b, c, z.reshape(-1, 1)).ravel()
        for zi, g in zip(z.tolist(), got):
            assert g == pytest.approx(hyp2f1(a, b, c, zi), rel=2e-15, abs=0.0)

    def test_real_2f1_array_in_one_branch_keeps_its_shape(self):
        z = np.full((2, 3), 0.97)
        got = hyp2f1(0.3, 1.7, 2.9, z)
        assert got.shape == (2, 3) and got.dtype == float
        assert np.all(got == hyp2f1(0.3, 1.7, 2.9, 0.97))

    def test_series_blocks_keep_the_stopping_rule(self):
        # 50 points from a few terms to ~700: the block sums equal the
        # term-by-term loop's within rounding, and points that cannot
        # settle still raise
        z = np.linspace(0.0, 0.95, 50)
        got = hyp2f1(0.3, 1.7, 2.9, z)
        for zi, g in zip(z.tolist(), got):
            assert g == pytest.approx(hyp2f1(0.3, 1.7, 2.9, zi), rel=2e-15, abs=0.0)
        with pytest.raises(ConvergenceError), np.errstate(over="ignore"):
            hyp2f1(1e4, 1e4, 1.0, np.array([0.0, 0.5]))    # terms reach inf

    def test_kummer_array_matches_mpmath_per_point(self):
        z = np.array([5.0, 2j, 20j, -20j, 3.0 + 4.0j, 45.0, 0.0, complex(-0.0, 3.0)])
        got = kummer_m(2.5, 6.0, z)
        for zi, g in zip(z, got):
            ref = _mp(mpmath.hyp1f1, 2.5, 6.0, complex(zi))
            rtol = 1e-8 if abs(zi) == 20 else 5e-13    # oscillatory series near the cap
            assert g == pytest.approx(ref, rel=rtol)

    def test_kummer_terminating_array(self):
        z = np.array([8.0, -3.0, 4j])
        got = kummer_m(-2.0, 3.0, z)
        for zi, g in zip(z, got):
            assert g == pytest.approx(_mp(mpmath.hyp1f1, -2.0, 3.0, complex(zi)), rel=1e-13)

    def test_kummer_cap_covers_every_point(self):
        with pytest.raises(DomainError):
            kummer_m(1.0, 2.0, np.array([1j, 10j, 60j]))

    def test_complex_power_array(self):
        z = np.array([1.0 + 2.0j, -3.0 + 0.4j, 0.0, 2.0, -1.0 - 1e-300j, -3.0 - 0.4j])
        got = complex_power(z, 0.5)
        assert got.dtype == complex and got.shape == z.shape
        for zi, g in zip(z, got):
            assert g == pytest.approx(complex_power(complex(zi), 0.5), rel=1e-15, abs=1e-300)
        assert got[4] == pytest.approx(-1j, abs=1e-15)

    def test_complex_power_array_validation(self):
        with pytest.raises(ValidationError):
            complex_power(np.array([1.0 + 1.0j, -2.0]), 0.5)
        with pytest.raises(DomainError):
            complex_power(np.array([1.0, 0.0]), -0.5)
        np.testing.assert_array_equal(complex_power(np.array([0.0, 0.0]), 0.0), [1.0, 1.0])

    def test_3f2_with_array_parameters(self):
        a3 = np.array([0.5, 2.25, 7.0])
        b2 = np.array([1.5, 3.0, 9.0])
        got = hyp3f2_unit(-4.0, 1.3, a3, 3.7, b2)
        for x, y, g in zip(a3, b2, got):
            assert g == hyp3f2_unit(-4.0, 1.3, float(x), 3.7, float(y))
        with pytest.raises(DomainError):
            hyp3f2_unit(-5.0, 1.3, a3, 3.7, np.array([1.0, -2.0, 3.0]))


class TestGammaRange:
    def test_large_finite_arguments(self):
        for x in (142.5, 150.0, 160.5, 171.0):
            ref = _mp(mpmath.gamma, x).real
            assert gamma(x) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("x", [171.7, 500.0, 1e-320])
    def test_overflow_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            gamma(x)


class TestHyp3f2Unit:
    def test_matches_mpmath(self):
        ref = _mp(mpmath.hyp3f2, -4.0, 1.3, 2.1, 3.7, 0.9, 1.0).real
        assert hyp3f2_unit(-4.0, 1.3, 2.1, 3.7, 0.9) == pytest.approx(ref, rel=1e-13)

    def test_termination_from_any_slot(self):
        ref = _mp(mpmath.hyp3f2, 1.3, -2.0, 2.1, 3.7, 0.9, 1.0).real
        assert hyp3f2_unit(1.3, -2.0, 2.1, 3.7, 0.9) == pytest.approx(ref, rel=1e-13)

    def test_nonterminating_rejected(self):
        with pytest.raises(ConvergenceError):
            hyp3f2_unit(0.5, 1.3, 2.1, 3.7, 0.9)

    def test_bottom_pole_before_termination(self):
        with pytest.raises(DomainError):
            hyp3f2_unit(-5.0, 1.3, 2.1, -2.0, 0.9)


class TestSphericalBessel:
    def test_low_order_closed_forms(self):
        for x in (0.3, 2.0, 10.0):
            assert spherical_jn_ratio(0, x) == pytest.approx(math.sin(x) / x, rel=1e-14)
            j1 = math.sin(x) / x ** 2 - math.cos(x) / x
            assert spherical_jn_ratio(1, x) == pytest.approx(j1 / x, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("x", [0.05, 1.0, 25.0])
    def test_matches_mpmath(self, n, x):
        assert spherical_jn_ratio(n, x) == pytest.approx(_ratio_ref(n, x), rel=1e-12)

    def test_recurrence(self):
        # j_{n-1}(x) + j_{n+1}(x) = (2n+1)/x j_n(x), over x^(n-1)
        for x in (0.5, 3.0, 12.0):
            for n in range(1, 8):
                lhs = spherical_jn_ratio(n - 1, x) + x * x * spherical_jn_ratio(n + 1, x)
                rhs = (2 * n + 1) * spherical_jn_ratio(n, x)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-16 / x ** (n - 1))

    def test_series_path_tiny_argument(self):
        assert spherical_jn_ratio(4, 1e-3) == pytest.approx(_ratio_ref(4, 1e-3), rel=1e-12)

    def test_ratio_at_zero(self):
        # j_n(x)/x^n -> 1/(2n+1)!!
        assert spherical_jn_ratio(0, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert spherical_jn_ratio(1, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert spherical_jn_ratio(2, 0.0) == pytest.approx(1.0 / 15.0, rel=1e-15)
        assert spherical_jn_ratio(3, 0.0) == pytest.approx(1.0 / 105.0, rel=1e-15)

    def test_ratio_is_continuous_through_zero(self):
        assert spherical_jn_ratio(2, 1e-8) == pytest.approx(1.0 / 15.0, rel=1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            spherical_jn_ratio(-2, 1.0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_multiples_of_pi(self, n):
        # j_0(k pi) = 0, so no route may divide by j_0 there
        for k in range(1, 7):
            x = k * math.pi
            assert spherical_jn_ratio(n, x) == pytest.approx(_ratio_ref(n, x), rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(0, 40), x=st.floats(1e-3, 1e3))
    def test_matches_mpmath_property(self, n, x):
        # relative below the turning point, and past it absolute on the
        # j_n scale, 1/x
        got, ref = spherical_jn_ratio(n, x), _ratio_ref(n, x)
        if x <= n:
            assert abs(got - ref) <= 1e-12 * abs(ref)
        else:
            assert abs(got - ref) <= 1e-13 / x ** (n + 1)

    def test_array_matches_scalar_calls(self):
        x = np.array([[-30.0, -2.5, -0.4, 0.0], [0.7, 1.0, 3.0 * math.pi, 500.0]])
        for n in (0, 1, 2, 5, 13):
            got = spherical_jn_ratio(n, x)
            assert got.shape == x.shape
            for v, g in zip(x.flat, got.flat):
                one = spherical_jn_ratio(n, float(v))
                assert type(one) is float
                assert g == pytest.approx(one, rel=1e-15, abs=0.0)

    def test_series_equals_the_stopping_rule(self):
        """The |x| < 1 branch sums a fixed 12 terms; summing term by term
        and stopping at the first term below SERIES_RTOL of the sum gives
        the same bits."""
        x = np.concatenate([np.linspace(0.0, 0.999, 500), [np.nextafter(1.0, 0.0)]])
        for n in (0, 1, 2, 7, 30, 160):
            got = spherical_jn_ratio(n, x)
            for v, g in zip(x.tolist(), got.tolist()):
                u = -0.5 * v * v
                term = total = 1.0
                for k in range(1, 40):
                    term *= u / (k * (2 * n + 2 * k + 1))
                    total += term
                    if abs(term) < SERIES_RTOL * abs(total):
                        break
                assert g == total / math.prod(range(3, 2 * n + 2, 2), start=1.0)

    def test_large_order_underflows_instead_of_raising(self):
        assert spherical_jn_ratio(200, 0.5) == 0.0
        assert spherical_jn_ratio(200, 2.0) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow in x*x or x^n included
            assert spherical_jn_ratio(200, 1e3) == 0.0
            assert spherical_jn_ratio(3, np.array([0.5, 1e300]))[1] == 0.0
            assert spherical_jn_ratio(1, 1e200) == 0.0

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument_rejected(self, x):
        with pytest.raises(DomainError):
            spherical_jn_ratio(2, x)
        with pytest.raises(DomainError):
            spherical_jn_ratio(1, np.array([1.0, x]))
