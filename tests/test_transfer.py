"""Transfer functions, the truncation-induced DC floor, band metrics,
sweeps, and the sweep writers."""

import cmath
import collections.abc
import dataclasses
import io
import json
import math
import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfilt.errors import DomainError, FracfiltError, ValidationError
from fracfilt.fracops import gl_coefficients
from fracfilt.hahn import HahnFilterParams, gram_n1_weights, hahn_weights
from fracfilt.kernels import JacobiKernelParams, laguerre_kernel
from fracfilt.transfer import (
    Convention,
    FrequencyGrid,
    GridSpacing,
    Sweep,
    TransferSample,
    butterworth_fractional_transfer,
    filter_metrics,
    fit_loglog_slope,
    gl_transfer,
    hahn_transfer,
    hahn_truncated_transfer,
    ideal_transfer,
    jacobi_transfer,
    legendre_transfer,
    sweep,
    truncated_dc_gain,
    write_sweep_json,
    write_sweep_text,
    _grid_count,
    _MAX_GRID_POINTS,
)
from fracfilt.hahn import (
    hahn_normalization,
    hahn_polynomial,
    hahn_weight_function,
)
from fracfilt.specfun import complex_power, kummer_m

# truncated_dc_gain(7, 1/2, 1, M) evaluated in 50-digit arithmetic from
# the raw Gamma-ratio tap sums
EXACT_DC_N7_HALF = {
    16: 0.12571831132987654,
    64: 0.06830889389203582,
    256: 0.03497331571581703,
    1024: 0.017594468832336382,
}


def _flat_params(N, nu, delta=1.0, M=64, n=1):
    return HahnFilterParams(alpha=0.0, beta=0.0, N=N, n=n, nu=nu, delta=delta, M=M)


class TestFrequencyGrid:
    def test_classmethods(self):
        lin = FrequencyGrid.linear(1.0, 2.0, 5)
        assert lin.spacing is GridSpacing.LINEAR
        np.testing.assert_allclose(lin.points, [1.0, 1.25, 1.5, 1.75, 2.0])
        log = FrequencyGrid.logarithmic(0.01, 100.0, 5)
        assert log.spacing is GridSpacing.LOGARITHMIC
        np.testing.assert_allclose(log.points, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(points=[1.0, 0.5], spacing=GridSpacing.LINEAR)
        with pytest.raises(ValidationError):
            FrequencyGrid(points=[-1.0, 0.5], spacing=GridSpacing.LINEAR)
        with pytest.raises(ValidationError):
            FrequencyGrid(points=[], spacing=GridSpacing.LINEAR)
        with pytest.raises(ValidationError):
            FrequencyGrid.logarithmic(0.0, 1.0, 5)

    @pytest.mark.parametrize("lo, hi", [
        (1.0, math.inf), (math.nan, 2.0), (-math.inf, 2.0), (2.0, 1.0), (1.0, 1.0)])
    def test_bounds_must_be_finite_and_ordered(self, lo, hi):
        with pytest.raises(ValidationError):
            FrequencyGrid.linear(lo, hi, 5)
        with pytest.raises(ValidationError):
            FrequencyGrid.logarithmic(lo, hi, 5)

    @pytest.mark.parametrize("count", [-1, 1.5, 0, 3.0, "3", None])
    def test_count_must_be_a_positive_integer(self, count):
        for make in (FrequencyGrid.linear, FrequencyGrid.logarithmic):
            with pytest.raises(ValidationError):
                make(1.0, 2.0, count)
        assert FrequencyGrid.linear(1.0, 2.0, np.int64(3)).points.size == 3

    def test_count_is_capped(self):
        # refused before any array is allocated
        for count in (_MAX_GRID_POINTS + 1, 10**12):
            for make in (FrequencyGrid.linear, FrequencyGrid.logarithmic):
                with pytest.raises(ValidationError, match="above the cap"):
                    make(1.0, 2.0, count)
        assert _grid_count(_MAX_GRID_POINTS) == _MAX_GRID_POINTS

    @pytest.mark.parametrize("points", [
        [1.0, math.inf], [math.inf], [1.0, math.nan], ["a", "b"], [1.0, "2x"],
        [1.0, 2j], [object()]])
    def test_points_must_be_finite_real_numbers(self, points):
        with pytest.raises(ValidationError):
            FrequencyGrid(points=points, spacing=GridSpacing.LINEAR)

    def test_complex_array_is_refused_not_cut_to_its_real_part(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                FrequencyGrid(points=np.array([1 + 1j, 2 + 0j]), spacing=GridSpacing.LINEAR)

    def test_points_are_a_read_only_copy(self):
        given = np.array([1.0, 2.0, 4.0])
        grid = FrequencyGrid(points=given, spacing=GridSpacing.LOGARITHMIC)
        given[0] = 0.5
        assert grid.points.tolist() == [1.0, 2.0, 4.0]
        with pytest.raises(ValueError):
            grid.points[0] = 0.5


class TestTransferSample:
    def test_derived_quantities(self):
        s = TransferSample(omega=100.0, value=3.0 + 4.0j)
        assert s.modulus == 5.0
        assert s.phase == pytest.approx(math.atan2(4.0, 3.0), rel=1e-15)
        assert s.log10_omega == 2.0
        assert s.log10_modulus == pytest.approx(math.log10(5.0), rel=1e-15)
        assert s.valid and s.note == ""

    def test_zero_modulus_logs_to_minus_inf(self):
        assert TransferSample(omega=1.0, value=0j).log10_modulus == -math.inf

    def test_poisoned_modulus_after_a_caught_overflow(self):
        # a caught libm overflow leaves errno set, which abs() of a complex
        # with a NaN part reads as its own overflow
        with pytest.raises(OverflowError):
            math.exp(1000.0)
        assert math.isnan(TransferSample(1.0, complex(math.nan, math.nan)).modulus)
        assert math.isnan(TransferSample(1.0, complex(1.0, math.nan)).modulus)
        assert TransferSample(1.0, complex(math.inf, math.nan)).modulus == math.inf

    def test_phase_of_an_underflowing_angle(self):
        # atan2 of a subnormal Im H over Re H = 2 underflows; cmath.phase
        # reads that as a range error
        assert TransferSample(1.0, complex(2.0, 5e-324)).phase == 0.0
        assert TransferSample(1.0, complex(2.0, -1e-310)).phase == -5e-311

    def test_fields_are_typed(self):
        """Whatever scalars a sample is built from, it holds a float, a
        complex and a bool, as a Sweep's columns do, with the same values."""
        cases = [
            ((3, 4, 1), (3.0, 4 + 0j, True)),
            ((np.float64(0.1), np.complex128(1.0 - 0.5j), np.bool_(False)),
             (0.1, 1.0 - 0.5j, False)),
            ((2.5, np.float64(-0.0), 0), (2.5, complex(-0.0, 0.0), False)),
            ((np.float64(math.inf), np.complex128(complex(math.nan, 5e-324)), np.bool_(True)),
             (math.inf, complex(math.nan, 5e-324), True)),
        ]
        for args, (omega, value, valid) in cases:
            s = TransferSample(*args, note="n")
            assert (type(s.omega), type(s.value), type(s.valid)) == (float, complex, bool)
            assert struct.pack("<d", s.omega) == struct.pack("<d", omega)
            assert (struct.pack("<2d", s.value.real, s.value.imag)
                    == struct.pack("<2d", value.real, value.imag))
            assert s.valid is valid and s.note == "n"

    def test_frozen_value_semantics(self):
        s = TransferSample(omega=1.0, value=3.0 + 4.0j)
        for name, value in (("omega", 2.0), ("value", 0j), ("valid", False), ("note", "x")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, value)
        assert (s.valid, s.note) == (True, "")
        assert [f.default for f in dataclasses.fields(TransferSample)][2:] == [True, ""]
        assert s == TransferSample(1.0, 3.0 + 4.0j, True, "")
        assert s != TransferSample(1.0, 3.0 + 4.0j, True, "x")
        assert hash(s) == hash(TransferSample(1.0, 3.0 + 4.0j))
        assert repr(s) == "TransferSample(omega=1.0, value=(3+4j), valid=True, note='')"
        assert dataclasses.replace(s, valid=False).valid is False


class TestIdealTransfer:
    def test_conventions_are_conjugate(self):
        up = ideal_transfer(0.5, 2.0, Convention.WEYL)
        lo = ideal_transfer(0.5, 2.0, Convention.RIEMANN_LIOUVILLE)
        assert lo == pytest.approx(up.conjugate(), rel=1e-15)

    def test_first_order(self):
        assert ideal_transfer(1.0, 2.0, Convention.WEYL) == pytest.approx(2j, rel=1e-15)

    def test_modulus_and_phase(self):
        h = ideal_transfer(0.5, 3.0, Convention.WEYL)
        assert abs(h) == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert cmath.phase(h) == pytest.approx(math.pi / 4.0, rel=1e-14)


class TestJacobiTransfer:
    def test_tends_to_the_pure_power_law(self):
        p = JacobiKernelParams(alpha=0.3, beta=0.7, n=2, nu=1.2, delta=1.0)
        ratio = jacobi_transfer(p, 1e-4) / ideal_transfer(1.2, 1e-4, Convention.WEYL)
        assert abs(ratio - 1.0) < 1e-4

    @pytest.mark.parametrize("omega", [0.3, 2.0, 8.0])
    def test_flat_weight_equals_bessel_form(self, omega):
        """Two closed forms of the same response: confluent series against
        the spherical Bessel route."""
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        a = jacobi_transfer(p, omega)
        b = legendre_transfer(1, 0.5, 1.0, omega)
        assert a == pytest.approx(b, rel=1e-9)

    def test_confluent_route_degrades_toward_the_cap(self):
        # oscillatory-series cancellation: the absolute error grows like
        # e^|2 w delta| * 1e-16, so only a loose match remains at w = 12
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        a = jacobi_transfer(p, 12.0)
        b = legendre_transfer(1, 0.5, 1.0, 12.0)
        assert a == pytest.approx(b, rel=1e-4)
        assert abs(a - b) > 1e-12 * abs(b)

    def test_conventions_are_conjugate(self):
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        assert jacobi_transfer(p, 2.0, Convention.RIEMANN_LIOUVILLE) == pytest.approx(
            jacobi_transfer(p, 2.0, Convention.WEYL).conjugate(), rel=1e-14
        )

    def test_series_cap(self):
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        with pytest.raises(DomainError):
            jacobi_transfer(p, 26.0)
        # the Bessel form has no cap
        legendre_transfer(1, 0.5, 1.0, 1e4)


class TestLegendreTransfer:
    def test_small_frequency_power_law(self):
        h = legendre_transfer(1, 1.0, 1.0, 1e-4)
        assert abs(h) == pytest.approx(1e-4, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            legendre_transfer(0, 0.5, 1.0, 1.0)
        with pytest.raises(ValidationError):
            legendre_transfer(1, 0.5, 0.0, 1.0)
        with pytest.raises(ValidationError):
            legendre_transfer(1, 0.5, math.inf, 1.0)

    @pytest.mark.parametrize("n", [2, 4, 8, 100])
    def test_matches_mpmath(self, n):
        """(i w)^nu (2n+1)!! j_n(w)/w^n, at multiples of pi among the
        frequencies and at orders whose (2n+1)!! passes Gamma(171)."""
        self.check_against_mpmath(n, [1e-3, 0.5, math.pi, 2.0 * math.pi, 7.0, 60.0, 1e3])

    @pytest.mark.parametrize("n", [11, 40, 134, 149])
    def test_double_factorial_to_the_end_of_double_range(self, n):
        """(2n+1)!! is an exact integer rounded once, so it is correctly
        rounded from n = 11 on and finite up to n = 149, past the overflow
        of Gamma(2n+2) at n = 134.  Frequencies where j_n(w)/w^n is still a
        normal double."""
        self.check_against_mpmath(n, [1e-3, 0.5, math.pi, 2.0 * math.pi, 7.0, 20.0])

    @pytest.mark.parametrize("n", [150, 10 ** 7])
    def test_double_factorial_overflow_raises(self, n):
        with pytest.raises(DomainError):
            legendre_transfer(n, 0.5, 1.0, 1.0)

    def check_against_mpmath(self, n, omega):
        omega = np.array(omega)
        got = legendre_transfer(n, 0.5, 1.0, omega)
        with mpmath.workdps(40):
            for w, g in zip(omega.tolist(), got):
                t = mpmath.mpf(w)
                jn = mpmath.sqrt(mpmath.pi / (2 * t)) * mpmath.besselj(n + 0.5, t)
                ref = complex(mpmath.power(1j * t, 0.5) * mpmath.fac2(2 * n + 1) * jn / t ** n)
                # past w = n, j_n's error is absolute, of order eps / w
                bound = float(mpmath.fac2(2 * n + 1) / t ** (n + 0.5)) if w > n else 0.0
                assert abs(g - ref) <= 1e-12 * max(abs(ref), bound)


class TestHahnTransfer:
    def test_brute_force_tap_sum(self):
        """Assemble the response from first principles: normalization times
        the weighted polynomial sum of sampled exponentials, with the
        fractional factor pulled out."""
        alpha, beta, N, n, nu, delta = 0.0, 0.0, 4, 1, 0.5, 1.0
        p = HahnFilterParams(alpha=alpha, beta=beta, N=N, n=n, nu=nu, delta=delta, M=1)
        omega = 0.9
        s = sum(
            hahn_polynomial(n, float(x), alpha, beta, N)
            * hahn_weight_function(x, alpha, beta, N)
            * cmath.exp(-1j * x * delta * omega)
            for x in range(N + 1)
        )
        diff = (1.0 - cmath.exp(1j * omega * delta)) / delta
        brute = (
            hahn_normalization(alpha, beta, N, n) * delta ** -n
            * complex_power(diff, nu - n) * s
        )
        assert hahn_transfer(p, omega) == pytest.approx(brute, rel=1e-12)

    def test_zero_frequency(self):
        assert hahn_transfer(_flat_params(4, 0.5), 0.0) == 0j

    def test_single_sample_window_modulus(self):
        # N = n = 1: |H| = (2 sin(w d / 2))^nu / d^nu
        p = _flat_params(1, 0.5, M=1)
        assert abs(hahn_transfer(p, 0.7)) == pytest.approx(
            (2.0 * math.sin(0.35)) ** 0.5, rel=1e-13
        )

    def test_backward_difference_embedding(self):
        # N = n: the window is saturated and only shifts the center
        p = HahnFilterParams(alpha=0.0, beta=0.0, N=2, n=2, nu=1.3, delta=0.5, M=1)
        expected = gl_transfer(1.3, 0.5, 0.9) * cmath.exp(-2j * 0.9 * 0.5)
        assert hahn_transfer(p, 0.9) == pytest.approx(expected, rel=1e-13)

    def test_saturated_window_past_gamma_overflow(self):
        """At N = n = 70 the gain and the 2F1 are both 1, though every Gamma
        product in the gain overflows on its own."""
        p = HahnFilterParams(alpha=0.0, beta=0.0, N=70, n=70, nu=0.5, delta=1.0, M=1)
        w = _nyquist_grid(1.0).points
        expected = gl_transfer(0.5, 1.0, w) * np.exp(-70j * w)
        np.testing.assert_allclose(hahn_transfer(p, w), expected, rtol=1e-12, atol=0.0)


def _limit_designs(count):
    """(alpha, beta, n, nu, omega delta) drawn once from a fixed seed:
    n <= 3, nu in [0.1, n - 0.05], alpha, beta in [-0.9, 2]."""
    rng = np.random.default_rng(10)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        nu, (a, b) = rng.uniform(0.1, n - 0.05), rng.uniform(-0.9, 2.0, 2)
        out.append((float(a), float(b), n, float(nu), float(rng.choice([0.3, 1.0, 3.0, 8.0]))))
    return out


class TestDiscreteToContinuousLimit:
    @pytest.mark.parametrize("alpha,beta,n,nu,theta", _limit_designs(40))
    def test_hahn_transfer_tends_to_jacobi_transfer(self, alpha, beta, n, nu, theta):
        """The Hahn filter on N + 1 samples spanning [0, 2 delta], shifted
        by delta N/(N + 1) to center its window, tends to the continuous
        Jacobi kernel's lower-limit response.  The error is first order in
        the sample step, as the backward-difference factor B^nu = (-i w)^nu
        (1 + O(w delta_h)) implies: from N = 256 to 1024 it falls by a
        factor in [3, 5] (3.72 to 4.21 over 200 random designs).  64 -> 256
        is not yet asymptotic (3.15 to 5.73), and about 1 random design in
        1000 with n = 3 and w delta = 8, where the first-order term nearly
        cancels, needs N >= 1024: (0.53, 1.06, 3, 1.22, 8) gives 2.42, then
        3.55 from 1024 to 4096.  Either convention flipped leaves a ratio
        near 1."""
        delta = 0.7
        omega = theta / delta
        ref = jacobi_transfer(JacobiKernelParams(alpha, beta, n, nu, delta), omega,
                              Convention.RIEMANN_LIOUVILLE)

        def err(N):
            p = HahnFilterParams(alpha, beta, N, n, nu, 2.0 * delta / (N + 1))
            shifted = hahn_transfer(p, omega) * cmath.exp(1j * omega * delta * N / (N + 1))
            return abs(shifted - ref) / abs(ref)

        assert 3.0 <= err(256) / err(1024) <= 5.0


class TestHahnTruncatedTransfer:
    def test_converges_to_the_exact_response(self):
        exact = hahn_transfer(_flat_params(7, 0.5, M=1), 0.5)
        errs = [
            abs(hahn_truncated_transfer(_flat_params(7, 0.5, M=M), 0.5) - exact)
            / abs(exact)
            for M in (64, 512, 4096)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-5

    def test_zero_frequency_matches_closed_gain(self):
        h0 = hahn_truncated_transfer(_flat_params(7, 0.5, M=64), 0.0)
        assert h0.imag == 0.0
        assert h0.real == pytest.approx(truncated_dc_gain(7, 0.5, 1.0, 64), rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), alpha=st.floats(-0.9, 2.0), beta=st.floats(-0.9, 2.0),
           theta=st.sampled_from([0.2, 1.0, 2.5]), delta=st.floats(1e-2, 10.0))
    def test_every_design_converges_at_its_tail_rate(self, data, alpha, beta, theta, delta):
        """Any design's truncated response tends to hahn_transfer, and the
        error shrinks like M^(-nu-1), the decay of its backward taps: from
        M = 2000 to 8000 it falls by 4^(nu+1) within 10% (measured within
        2.5% at the corners of these ranges).  Ties the taps' 3F2 route
        (hahn_weights) to the transfer's terminating 2F1, nu kept 0.1 away
        from the integers, where the tail vanishes."""
        whole = data.draw(st.integers(0, 1))
        nu = whole + data.draw(st.floats(0.1, 0.9))
        n = data.draw(st.integers(whole + 1, 3))
        N = data.draw(st.integers(n, 32))
        omega = theta / delta
        exact = hahn_transfer(HahnFilterParams(alpha, beta, N, n, nu, delta, 1), omega)
        err = [abs(hahn_truncated_transfer(HahnFilterParams(alpha, beta, N, n, nu, delta, M),
                                           omega) - exact) for M in (2000, 8000)]
        assert err[0] / err[1] == pytest.approx(4.0 ** (nu + 1.0), rel=0.1)

    @pytest.mark.parametrize("alpha,beta,N,n,nu,M", [
        (0.5, 0.0, 4, 1, 0.5, 64),      # fracfilt sweep --family hahn --alpha 0.5
        (0.0, 0.0, 4, 1, -0.5, 64),     # gram shape below gram_n1_weights' nu range
        (0.0, 0.4, 7, 1, 0.3, 300),
        (0.5, 0.5, 16, 2, 0.5, 1000),
        (0.3, 1.1, 32, 1, 0.7, 2000),
        (-0.6, 1.7, 9, 3, 2.5, 512),
    ])
    def test_any_design_is_the_sum_of_its_hahn_taps(self, alpha, beta, N, n, nu, M):
        """Designs outside gram_n1_weights take hahn_weights' taps: the
        response is prefactor * sum_k taps[M + k] e^(-i k w delta), here
        against that sum term by term with fsum, relative to sum |terms|."""
        p = HahnFilterParams(alpha, beta, N, n, nu, delta=0.5, M=M)
        w = hahn_weights(p)
        omega = np.linspace(0.0, math.pi / p.delta, 9)
        got = list(hahn_truncated_transfer(p, omega)) + [hahn_truncated_transfer(p, 1.3)]
        k = np.arange(-M, N + 1)
        for om, h in zip([*omega.tolist(), 1.3], got):
            terms = w.prefactor * w.taps * np.exp(-1j * k * om * p.delta)
            ref = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(h - ref) <= 1e-13 * float(np.abs(terms).sum())

    @pytest.mark.parametrize("N,M", [(1, 64), (16, 4096), (64, 4096)])
    def test_against_a_high_precision_tap_sum(self, N, M):
        """The blocked sum against the same taps summed in 40-digit mpmath,
        on a log grid that ends at omega delta = pi and at one scalar
        omega, relative to the sum of |terms|.  Measured at most 1.2e-16,
        1.6e-16 and 1.7e-16 at these points and 1.2e-16, 4.9e-16 and
        4.4e-16 on 40-point grids; the per-tap Horner sum this replaced
        reached 1.2e-16, 2.1e-15 and 4.2e-15 on those grids."""
        nu = 0.5
        p = _flat_params(N, nu, delta=1.0, M=M)    # delta 1: theta is omega exactly
        w = gram_n1_weights(N, nu, 1.0, M)
        omega = np.append(np.logspace(math.log10(1e-4 * math.pi), 0.0, 7), math.pi)
        got = list(hahn_truncated_transfer(p, omega)) + [hahn_truncated_transfer(p, 0.3)]
        scale = abs(w.prefactor) * (np.abs(w.backward).sum() + np.abs(w.forward).sum())
        with mpmath.workdps(40):
            back = [mpmath.mpf(x) for x in w.backward.tolist()]
            fore = [mpmath.mpf(x) for x in w.forward.tolist()]
            for om, h in zip([*omega.tolist(), 0.3], got):
                z = mpmath.expj(mpmath.mpf(om))
                ref = mpmath.polyval(back[::-1] + [0], z) + mpmath.polyval(fore[::-1], 1 / z)
                assert abs(h - complex(ref * w.prefactor)) <= 1e-15 * scale

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 16), nu=st.floats(0.05, 0.95), M=st.integers(64, 1024),
           delta=st.floats(1e-3, 10.0), theta=st.floats(0.0, math.pi, exclude_min=True))
    def test_truncation_error_is_bounded_by_the_dc_gain(self, N, nu, M, delta, theta):
        """Past M the backward taps share one sign and the untruncated
        response is 0 at DC, so the cut-off history is worth at most
        |truncated_dc_gain| at any frequency: |H_M(w) - H(w)| <= |H_M(0)|,
        w = theta/delta.  The allowance is the known cancellation residual
        of gram_n1_weights' backward taps, which grows with M at N = 1 and
        small nu: their sum is 1.9e-11 of the tap scale off a 50-digit
        value at (1, 0.05, 1024), where truncated_dc_gain is 4.4e-13 off."""
        beyond = gram_n1_weights(N, nu, delta, 4 * M).backward[M:]
        assert np.all(beyond > 0.0) or np.all(beyond < 0.0)
        p = _flat_params(N, nu, delta, M)
        w = gram_n1_weights(N, nu, delta, M)
        residual = 5e-11 * abs(w.prefactor) * float(np.abs(w.taps).sum())
        gap = abs(hahn_truncated_transfer(p, theta / delta) - hahn_transfer(p, theta / delta))
        assert gap <= abs(truncated_dc_gain(N, nu, delta, M)) + residual


class TestGlTransfer:
    def test_tends_to_the_power_law(self):
        h = gl_transfer(0.5, 1e-5, 2.0)
        assert h == pytest.approx(complex_power(-2j, 0.5), rel=1e-4)

    def test_integer_order(self):
        # (1 - e^(iw))^1, delta = 1
        w = 1.3
        assert gl_transfer(1.0, 1.0, w) == pytest.approx(1.0 - cmath.exp(1j * w), rel=1e-15)


# half unit in the last place of 1.0: the unit roundoff of a double
_U = np.finfo(float).eps / 2


class TestSemigroup:
    """(1 - z)^mu (1 - z)^nu = (1 - z)^(mu + nu): the backward-difference
    coefficients of orders mu and nu convolve to those of mu + nu, and the
    responses multiply.  Orders are multiples of 1/64, so mu, nu and
    mu + nu are exact doubles and only the evaluation rounds."""

    @settings(max_examples=100, deadline=None)
    @given(mu=st.integers(-64, 128), nu=st.integers(-64, 128), K=st.integers(1, 300))
    def test_coefficients_convolve(self, mu, nu, K):
        mu, nu = mu / 64, nu / 64
        a, b = gl_coefficients(mu, K), gl_coefficients(nu, K)
        k = np.arange(K)
        terms = np.convolve(np.abs(a), np.abs(b))[:K]
        # c_k is a running product of k factors, each rounded twice: relative
        # error 2k u.  A product a_j b_(k-j) then carries 2k u + u, and its
        # (k + 1)-term sum adds k u of the terms' magnitude sum; the
        # reference at mu + nu carries 2k u of |c_k| <= that sum.
        bound = (5.0 * k + 2.0) * _U * terms
        err = np.abs(np.convolve(a, b)[:K] - gl_coefficients(mu + nu, K))
        assert np.all(err <= bound)

    @settings(max_examples=100, deadline=None)
    @given(mu=st.integers(-64, 128), nu=st.integers(-64, 128),
           delta=st.sampled_from([1e-3, 0.1, 1.0]),
           theta=st.lists(st.floats(1e-4, 3.1), min_size=1, max_size=8))
    def test_responses_multiply(self, mu, nu, delta, theta):
        mu, nu = mu / 64, nu / 64
        theta = np.array(theta)
        w = theta / delta
        for h, z in (
            (lambda o: gl_transfer(o, delta, w), (1.0 - np.exp(1j * theta)) / delta),
            (lambda o: ideal_transfer(o, w, Convention.WEYL), 1j * w),
        ):
            # each power is exp(order * log z): log z off by about 2u (|log z|
            # + 1), times the order, plus a few u for exp and the products
            orders = abs(mu) + abs(nu) + abs(mu + nu)
            bound = 2.0 * _U * (6.0 + 2.0 * orders * (1.0 + np.abs(np.log(z))))
            whole = h(mu + nu)
            assert np.all(np.abs(h(mu) * h(nu) - whole) <= bound * np.abs(whole))


class TestButterworth:
    def test_corner_attenuation(self):
        flat = butterworth_fractional_transfer(0.5, 7, 1.0, 1e-3)
        assert abs(flat) == pytest.approx(1e-3 ** 0.5, rel=1e-10)
        at_corner = butterworth_fractional_transfer(0.5, 7, 1.0, 1.0)
        assert abs(at_corner) == pytest.approx(0.5, rel=1e-12)

    def test_high_frequency_rolloff(self):
        # |H| ~ w^(nu - 2n) far above the corner
        r = abs(butterworth_fractional_transfer(0.5, 7, 1.0, 2e3)) / abs(
            butterworth_fractional_transfer(0.5, 7, 1.0, 1e3)
        )
        assert r == pytest.approx(2.0 ** (0.5 - 14.0), rel=1e-3)


class TestTruncatedDcGain:
    @pytest.mark.parametrize("M", sorted(EXACT_DC_N7_HALF))
    def test_against_high_precision_values(self, M):
        assert truncated_dc_gain(7, 0.5, 1.0, M) == pytest.approx(
            EXACT_DC_N7_HALF[M], rel=1e-10
        )

    @pytest.mark.parametrize("M", [16, 64, 256, 1024])
    def test_equals_the_tap_sum(self, M):
        w = gram_n1_weights(7, 0.5, 1.0, M)
        tap_sum = w.prefactor * (w.forward.sum() + w.backward.sum())
        assert truncated_dc_gain(7, 0.5, 1.0, M) == pytest.approx(tap_sum, rel=1e-10)

    def test_power_law_in_history_length(self):
        # the floor decays like M^(-nu)
        for M in (64, 256):
            r = truncated_dc_gain(7, 0.5, 1.0, 4 * M) / truncated_dc_gain(7, 0.5, 1.0, M)
            assert r == pytest.approx(4.0 ** -0.5, rel=0.1)

    def test_step_scaling(self):
        r = truncated_dc_gain(7, 0.5, 0.25, 64) / truncated_dc_gain(7, 0.5, 1.0, 64)
        assert r == pytest.approx(0.25 ** -0.5, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 64), nu=st.floats(0.0, 1.0), M=st.integers(1, 170),
           delta=st.floats(1e-3, 10.0))
    def test_equals_the_tap_sum_property(self, N, nu, M, delta):
        """Tap sum = DC gain across the M range where the Gamma ratio's
        factors near the end of double range.  The routes differ by up to
        1.1e-12 of the tap scale at N = 1, small nu, M near 160, mostly
        through the cancellation residual in gram_n1_weights' backward
        taps."""
        w = gram_n1_weights(N, nu, delta, M)
        taps = w.prefactor * np.concatenate([w.forward, w.backward])
        assert abs(truncated_dc_gain(N, nu, delta, M) - taps.sum()) <= 1e-11 * np.abs(taps).sum()

    @pytest.mark.parametrize("N,M,nu", [
        pytest.param(16, 4096, 0.5, marks=pytest.mark.xfail(strict=True, reason=(
            "truncated_dc_gain cancels: its bracket pieces (0.0993, 0.0497, "
            "-0.1490 at N = 16, M = 4096, nu = 0.5) sum to 9.1e-5, leaving "
            "2.4e-12 relative error"))),
        pytest.param(1, 156, 0.003),
    ])
    def test_against_high_precision(self, N, M, nu):
        with mpmath.workdps(50):
            nu_mp = mpmath.mpf(nu)
            prod = mpmath.fprod((M - nu_mp + 2 + k) / (M + k) for k in range(N + 1))
            exact = float(
                6 / (N * (N + 1) * (N + 2) * mpmath.gamma(4 - nu_mp))
                * mpmath.gamma(M - nu_mp + 2) / mpmath.gamma(M)
                * ((N - 2 * M - N * nu_mp) * prod + (3 - nu_mp) * N + 2 * (M - nu_mp + 2))
            )
        assert truncated_dc_gain(N, nu, 1.0, M) == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestIntegerOrders:
    """Every design order, history length and grid count goes through one
    operator.index test: a numpy integer is taken and stored as a Python
    int, and a float, a string or a value below range is refused."""

    ENTRY_POINTS = {
        "HahnFilterParams.N": lambda k: _flat_params(k, 0.5).N,
        "HahnFilterParams.n": lambda k: _flat_params(4, 0.5, n=k).n,
        "HahnFilterParams.M": lambda k: _flat_params(4, 0.5, M=k).M,
        "gram_n1_weights.N": lambda k: gram_n1_weights(k, 0.5, 1.0, 64).backward,
        "gram_n1_weights.M": lambda k: gram_n1_weights(4, 0.5, 1.0, k).backward,
        "truncated_dc_gain.N": lambda k: truncated_dc_gain(k, 0.5, 1.0, 64),
        "truncated_dc_gain.M": lambda k: truncated_dc_gain(4, 0.5, 1.0, k),
        "JacobiKernelParams.n": lambda k: JacobiKernelParams(0.3, 0.2, k, 0.5, 1.0).n,
        "laguerre_kernel.n": lambda k: laguerre_kernel(0.3, k, 0.5, 2.0),
        "legendre_transfer.n": lambda k: legendre_transfer(k, 0.5, 0.1, 2.0),
        "butterworth_fractional_transfer.n":
            lambda k: butterworth_fractional_transfer(0.5, k, 1.0, 2.0),
        "FrequencyGrid.count": lambda k: FrequencyGrid.linear(1.0, 2.0, k).points,
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_integers_are_taken_as_int(self, entry):
        call = self.ENTRY_POINTS[entry]
        expected = call(4)
        for kind in (np.int64, np.int32):
            got = call(kind(4))
            assert type(got) is type(expected)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_non_integers_and_values_below_range_are_refused(self, entry):
        for bad in (4.0, np.float64(4.0), "4", 0, np.int64(0), -3):
            with pytest.raises(ValidationError):
                self.ENTRY_POINTS[entry](bad)


class TestFilterMetrics:
    def test_reference_configuration(self):
        m = filter_metrics(_flat_params(7, 0.5, M=64))
        assert m.h_zero == pytest.approx(0.06830889389203582, rel=1e-10)
        assert m.omega_lower == pytest.approx(m.h_zero ** 2.0, rel=1e-12)
        assert m.omega_lower_practical == pytest.approx(10.0 * m.omega_lower, rel=1e-15)
        assert m.omega_max == pytest.approx(0.2866910895404979, rel=1e-12)
        assert m.bandwidth == pytest.approx(m.omega_max - m.omega_lower, rel=1e-12)

    def test_longer_history_widens_the_band(self):
        short = filter_metrics(_flat_params(7, 0.5, M=16))
        long = filter_metrics(_flat_params(7, 0.5, M=1024))
        assert long.omega_lower < short.omega_lower
        assert long.omega_max == short.omega_max
        assert long.bandwidth > short.bandwidth

    def test_integer_order_edge(self):
        # nu = 1: no truncation floor, but the validity window closes
        m = filter_metrics(_flat_params(7, 1.0, M=64))
        assert m.h_zero == 0.0
        assert m.omega_max == 0.0
        assert m.bandwidth is None

    def test_scheme_restrictions(self):
        with pytest.raises(ValidationError):
            filter_metrics(HahnFilterParams(alpha=0.5, beta=0.5, N=4, n=1,
                                            nu=0.5, delta=1.0, M=8))
        with pytest.raises(ValidationError):
            filter_metrics(HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=2,
                                            nu=0.5, delta=1.0, M=8))
        with pytest.raises(ValidationError):
            filter_metrics(HahnFilterParams(alpha=0.0, beta=0.0, N=4, n=1,
                                            nu=-0.5, delta=1.0, M=8))


class TestSweep:
    def test_every_grid_point_is_recorded(self):
        grid = FrequencyGrid.logarithmic(0.1, 10.0, 21)
        samples = sweep(lambda w: ideal_transfer(0.5, w, Convention.WEYL), grid)
        assert len(samples) == 21
        assert all(s.valid for s in samples)
        np.testing.assert_allclose([s.omega for s in samples], grid.points)

    def test_failures_poison_points_not_the_sweep(self):
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        grid = FrequencyGrid.logarithmic(1.0, 50.0, 9)
        samples = sweep(lambda w: jacobi_transfer(p, w), grid)
        assert len(samples) == 9
        bad = [s for s in samples if not s.valid]
        assert bad and all(s.omega > 25.0 for s in bad)
        assert all("kummer" in s.note or "|z|" in s.note for s in bad)
        assert all(math.isnan(s.value.real) for s in bad)

    def test_non_finite_values_are_flagged_on_both_routes(self):
        grid = FrequencyGrid.logarithmic(1.0, 100.0, 21)
        whole = sweep(lambda w: ideal_transfer(200.0, w, Convention.WEYL), grid)
        one = sweep(lambda w: ideal_transfer(200.0, float(w), Convention.WEYL), grid)
        for samples in (whole, one):
            bad = [s for s in samples if not cmath.isfinite(s.value)]
            assert bad and len(bad) < len(samples)
            assert all(not s.valid and "overflow" in s.note for s in bad)
            assert all(s.valid and s.note == "" for s in samples if s not in bad)

    def test_unexpected_exceptions_propagate(self):
        def broken(w):
            raise RuntimeError("not a numeric failure")

        with pytest.raises(RuntimeError):
            sweep(broken, FrequencyGrid.linear(1.0, 2.0, 3))


def _nyquist_grid(delta, points=1000):
    return FrequencyGrid.logarithmic(1e-4 * math.pi / delta, math.pi / delta, points)


class TestArrayFrequencies:
    """Every transfer function takes an omega array and agrees with an
    independent route at each point.  Errors are measured against the sum
    of the moduli of the terms each route adds up, not against |H|: the
    flat-weight responses vanish at omega delta = pi, where the sums
    cancel to zero."""

    @pytest.mark.parametrize("N,M,nu,delta", [(7, 64, 0.5, 1.0), (16, 4096, 0.9, 1e-3),
                                              (64, 4096, 0.05, 0.1)])
    def test_truncated_response_against_the_direct_tap_sum(self, N, M, nu, delta):
        p = _flat_params(N, nu, delta=delta, M=M)
        omega = _nyquist_grid(delta).points
        got = hahn_truncated_transfer(p, omega)
        w = gram_n1_weights(N, nu, delta, M)
        scale = abs(w.prefactor) * (np.abs(w.backward).sum() + np.abs(w.forward).sum())
        for om, h in zip(omega[::7], got[::7]):
            phase = 1j * om * delta
            direct = w.prefactor * (
                w.backward @ np.exp(phase * np.arange(1, M + 1))
                + w.forward @ np.exp(-phase * np.arange(N + 1))
            )
            assert abs(h - direct) <= 1e-13 * scale

    @pytest.mark.parametrize("alpha,beta,N,n,nu,delta", [
        (0.0, 0.0, 4, 1, 0.5, 1.0), (0.0, 0.0, 16, 1, 0.3, 1e-3),
        (0.5, 1.5, 7, 2, 1.3, 0.1),
    ])
    def test_exact_response_against_the_brute_force_sum(self, alpha, beta, N, n, nu, delta):
        p = HahnFilterParams(alpha=alpha, beta=beta, N=N, n=n, nu=nu, delta=delta, M=1)
        omega = _nyquist_grid(delta).points
        got = hahn_transfer(p, omega)
        assert isinstance(got, np.ndarray) and got.shape == omega.shape
        terms = np.array([
            hahn_polynomial(n, float(x), alpha, beta, N)
            * hahn_weight_function(x, alpha, beta, N)
            * np.exp(-1j * x * delta * omega)
            for x in range(N + 1)
        ])
        diff = (1.0 - np.exp(1j * omega * delta)) / delta
        outer = (hahn_normalization(alpha, beta, N, n) * delta ** -n
                 * complex_power(diff, nu - n))
        brute = outer * terms.sum(axis=0)
        scale = np.abs(outer) * np.abs(terms).sum(axis=0)
        assert np.all(np.abs(got - brute) <= 1e-13 * scale)

    @pytest.mark.parametrize("nu,delta", [(0.5, 1.0), (0.05, 1e-3), (0.95, 0.3)])
    def test_jacobi_response_against_the_bessel_form(self, nu, delta):
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=nu, delta=delta)
        omega = _nyquist_grid(delta).points
        got = jacobi_transfer(p, omega)
        ref = legendre_transfer(1, nu, delta, omega)
        # sum of |terms| of M(2, 4; 2 i w delta) is M(2, 4; 2 w delta)
        scale = omega ** nu * kummer_m(2.0, 4.0, 2.0 * omega * delta)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    def test_array_matches_scalar_calls(self):
        omega = np.array([0.0, -0.7, 1e-3, 0.7, 2.0, 3.1])
        hp = _flat_params(5, 0.4, M=200)
        jp = JacobiKernelParams(alpha=0.3, beta=0.7, n=2, nu=1.2, delta=1.0)
        cases = [
            lambda w: ideal_transfer(0.5, w, Convention.RIEMANN_LIOUVILLE),
            lambda w: ideal_transfer(0.0, w, Convention.WEYL),
            lambda w: jacobi_transfer(jp, w, Convention.RIEMANN_LIOUVILLE),
            lambda w: legendre_transfer(3, 0.5, 1.0, w),
            lambda w: legendre_transfer(2, 0.0, 1.0, w),
            lambda w: hahn_transfer(hp, w),
            lambda w: hahn_truncated_transfer(hp, w),
            lambda w: gl_transfer(0.5, 1.0, w),
            lambda w: gl_transfer(0.0, 1.0, w),
            lambda w: butterworth_fractional_transfer(0.5, 3, 1.0, w),
        ]
        for f in cases:
            arr = f(omega)
            assert isinstance(arr, np.ndarray) and arr.dtype == complex
            for w, h in zip(omega, arr):
                one = f(float(w))
                assert type(one) is complex
                assert h == pytest.approx(one, rel=1e-13, abs=1e-300)
        # nu < 0 diverges at omega = 0, on the array and the scalar route
        for f in (lambda w: ideal_transfer(-0.5, w, Convention.WEYL),
                  lambda w: legendre_transfer(1, -0.5, 1.0, w),
                  lambda w: gl_transfer(-0.5, 1.0, w),
                  lambda w: butterworth_fractional_transfer(-0.5, 3, 1.0, w)):
            for w in (omega, 0.0):
                with pytest.raises(DomainError):
                    f(w)
        # sweep poisons the same points whether it gets the whole array or
        # calls once per frequency
        grid = FrequencyGrid.logarithmic(1.0, 100.0, 21)
        whole = sweep(lambda w: ideal_transfer(200.0, w, Convention.WEYL), grid)
        one = sweep(lambda w: ideal_transfer(200.0, float(w), Convention.WEYL), grid)
        assert 0 < sum(not s.valid for s in whole) < len(whole)
        assert [(s.omega, s.valid, s.note) for s in whole] == \
            [(s.omega, s.valid, s.note) for s in one]
        assert [s.value for s in whole if s.valid] == [s.value for s in one if s.valid]


class TestSweepArrayPath:
    def test_array_capable_closure_is_called_once(self):
        calls = []

        def closure(w):
            calls.append(np.shape(w))
            return ideal_transfer(0.5, w, Convention.WEYL)

        grid = FrequencyGrid.logarithmic(0.1, 10.0, 50)
        samples = sweep(closure, grid)
        assert calls == [(50,)]
        assert all(s.valid and type(s.value) is complex for s in samples)

    def test_scalar_only_closure_falls_back_per_point(self):
        grid = FrequencyGrid.linear(0.5, 3.0, 11)
        samples = sweep(lambda w: cmath.exp(1j * w), grid)
        assert len(samples) == 11 and all(s.valid for s in samples)
        for s in samples:
            assert s.value == cmath.exp(1j * s.omega)

    def test_misshaped_result_falls_back_per_point(self):
        samples = sweep(lambda w: 2.0, FrequencyGrid.linear(1.0, 2.0, 4))
        assert [s.value for s in samples] == [2.0 + 0j] * 4

    def test_partly_poisoned_array_keeps_points_and_notes(self):
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        grid = FrequencyGrid.logarithmic(1.0, 50.0, 40)
        samples = sweep(lambda w: jacobi_transfer(p, w), grid)
        for s in samples:
            try:
                expected = jacobi_transfer(p, s.omega)
            except FracfiltError as exc:
                assert not s.valid and s.note == str(exc)
                assert math.isnan(s.value.real) and math.isnan(s.value.imag)
            else:
                assert s.valid and s.note == "" and s.value == expected
        assert 0 < sum(not s.valid for s in samples) < 40

    def test_array_and_per_point_sweeps_agree(self):
        p = _flat_params(16, 0.3, delta=1e-3, M=4096)
        grid = _nyquist_grid(1e-3, 200)
        for f in (hahn_transfer, hahn_truncated_transfer):
            arr = sweep(lambda w: f(p, w), grid)
            one = sweep(lambda w: f(p, float(w)), grid)   # scalars only
            scale = max(abs(s.value) for s in one)
            for a, b in zip(arr, one):
                assert a.omega == b.omega and a.valid and b.valid
                assert abs(a.value - b.value) <= 1e-12 * scale


def _object_route(transfer, grid):
    """The samples of a sweep built one TransferSample per frequency from
    scalar calls, as sweep built them before it kept columns."""
    out = []
    for w in grid.points.tolist():
        try:
            v = complex(transfer(w))
        except FracfiltError as exc:
            out.append(TransferSample(w, complex(math.nan, math.nan), False, str(exc)))
            continue
        ok = cmath.isfinite(v)
        out.append(TransferSample(w, v, ok, "" if ok else
                                  "transfer value overflows double precision (not finite)"))
    return out


def _reprs(samples):
    """Sample reprs, which compare NaN values as equal."""
    return list(map(repr, samples))


class TestSweepRecord:
    """sweep returns a Sweep: columns read as a sequence of TransferSample."""

    def test_complex_omega_is_refused_not_cut_to_its_real_part(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for omega in (np.array([1 + 1j, 2 + 0j]), [1.0, 2j]):
                with pytest.raises(ValidationError):
                    Sweep(omega, np.ones(2, dtype=complex))

    @staticmethod
    def _transfer(w):
        return ideal_transfer(200.0, w, Convention.WEYL)   # overflows from omega ~ 35

    def test_sequence_contract(self):
        grid = FrequencyGrid.logarithmic(1.0, 100.0, 21)
        record = sweep(self._transfer, grid)
        expected = _object_route(self._transfer, grid)
        assert isinstance(record, Sweep) and isinstance(record, collections.abc.Sequence)
        assert len(record) == 21
        got = list(record)
        assert _reprs(got) == _reprs(expected)
        assert 0 < sum(not s.valid for s in got) < 21
        assert all(type(s.omega) is float and type(s.value) is complex
                   and type(s.valid) is bool and type(s.note) is str for s in got)
        for i in (0, 7, 20, -1, -21, np.int64(3)):
            assert repr(record[i]) == repr(expected[i])
        for i in (21, -22):
            with pytest.raises(IndexError):
                record[i]
        with pytest.raises(TypeError):
            record[1.0]
        for key in (slice(2, 9), slice(None, None, -3), slice(30, 40), slice(None)):
            part = record[key]
            assert type(part) is list and _reprs(part) == _reprs(expected[key])
        extra = [TransferSample(1e3, 1j)]
        for combined, reference in ((record + extra, expected + extra),
                                    (extra + record, extra + expected),
                                    (record + record, expected + expected)):
            assert type(combined) is list and _reprs(combined) == _reprs(reference)
        grown = list(extra)
        grown += record
        assert _reprs(grown) == _reprs(extra + expected)
        alias = record
        alias += extra
        assert type(alias) is list and len(alias) == 22 and len(record) == 21
        with pytest.raises(TypeError):
            record + (1, 2)
        assert record[0] in record and expected[0] in record
        assert TransferSample(0.5, 1j) not in record
        assert record.index(expected[2]) == 2

    def test_no_array_of_the_caller_reaches_a_finished_sweep(self):
        points = np.array([1.0, 2.0, 4.0])
        grid = FrequencyGrid(points=points, spacing=GridSpacing.LOGARITHMIC)
        returned = []

        def closure(w):
            out = np.asarray(w) * 1j     # a complex array sweep need not convert
            returned.append(out)
            return out

        record = sweep(closure, grid)
        points[:] = 8.0
        returned[0][:] = 0.0
        assert [(s.omega, s.value) for s in record] == [(1.0, 1j), (2.0, 2j), (4.0, 4j)]
        assert grid.points.tolist() == [1.0, 2.0, 4.0]
        for column in (record._omega, record._value, record._valid):
            with pytest.raises(ValueError):
                column[0] = 0

    _parts = st.one_of(
        st.floats(-1e300, 1e300),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    )

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_columns_and_objects_write_the_same_bytes(self, data):
        """An array sweep with overflow points, or a per-point sweep with
        poisoned notes: the record reads as the object route's samples, and
        both writers write the same bytes for it as for list(record)."""
        n = data.draw(st.integers(1, 30), label="points")
        grid = FrequencyGrid.logarithmic(0.1, 100.0, n)
        values = data.draw(st.lists(st.builds(complex, self._parts, self._parts),
                                    min_size=n, max_size=n), label="values")
        failing = data.draw(st.one_of(st.none(), st.dictionaries(
            st.integers(0, n - 1), st.text(st.sampled_from('ab "\\\n\té–'), max_size=6))),
            label="failures")
        index = {w: i for i, w in enumerate(grid.points.tolist())}

        def transfer(w):
            if np.ndim(w):
                if failing is None:       # array-capable: one call for the grid
                    return np.array([values[index[x]] for x in w.tolist()])
                raise TypeError("one frequency at a time")   # the per-point route
            if index[w] in (failing or {}):
                raise DomainError(failing[index[w]])
            return values[index[w]]

        record = sweep(transfer, grid)
        objects = list(record)
        assert _reprs(objects) == _reprs(_object_route(transfer, grid))
        metadata = {"run_id": "abc123", "n": n}
        for writer in (write_sweep_json, write_sweep_text):
            # a caught libm overflow leaves errno set for the abs() of a NaN
            # value that follows; neither route may read it
            with pytest.raises(OverflowError):
                math.exp(1000.0)
            columns, samples = io.StringIO(), io.StringIO()
            writer(record, columns, metadata)
            writer(objects, samples, metadata)
            assert columns.getvalue() == samples.getvalue()
        json_doc = io.StringIO()
        write_sweep_json(record, json_doc, metadata)
        assert json_doc.getvalue() == TestWriters._json_dumps_route(objects, metadata)


def _mp_log10_modulus(family, omega):
    """log10|H| at order 200 by mpmath for the designs of
    TestLargeOrderOverflow."""
    with mpmath.workdps(30):
        w = mpmath.mpf(omega)
        if family == "legendre":   # n = 1, delta = 1/2: 3 j_1(x)/x
            x = w / 2
            j1 = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(1.5, x)
            return float(200 * mpmath.log10(w) + mpmath.log10(3 * abs(j1) / x))
        delta = mpmath.mpf(0.01)
        if family == "jacobi":     # n = 200, alpha = beta = 0
            m = mpmath.hyp1f1(201, 402, 2j * w * delta)
            return float(200 * mpmath.log10(w) + mpmath.log10(abs(m)))
        # hahn at N = n = 200: the 2F1 and the gain are 1, |H| = |B|^200
        return float(200 * mpmath.log10(abs((1 - mpmath.exp(1j * w * delta)) / delta)))


class TestLargeOrderOverflow:
    """At order 200, (i w)^nu leaves double range inside the grid.  The
    transfer returns inf or NaN there without a numpy RuntimeWarning, and
    exactly the points whose true modulus is past double range come back
    non-finite and are flagged by sweep."""

    @pytest.mark.parametrize("family, transfer", [
        ("legendre", lambda w: legendre_transfer(1, 200.0, 0.5, w)),
        ("jacobi", lambda w: jacobi_transfer(
            JacobiKernelParams(alpha=0.0, beta=0.0, n=200, nu=200.0, delta=0.01), w)),
        ("hahn", lambda w: hahn_transfer(
            HahnFilterParams(alpha=0.0, beta=0.0, N=200, n=200, nu=200.0, delta=0.01), w)),
    ], ids=["legendre", "jacobi", "hahn"])
    def test_overflow_is_quiet_and_flagged(self, family, transfer):
        omega = np.logspace(-1, 3, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = transfer(omega)
            samples = sweep(transfer, FrequencyGrid.logarithmic(0.1, 1e3, 50))
        finite = np.isfinite(value)
        exact = np.array([_mp_log10_modulus(family, w) for w in omega])
        assert np.count_nonzero(~finite) == 18
        assert np.all(exact[~finite] > 310.0) and np.all(exact[finite] < 307.0)
        assert np.allclose(np.log10(abs(value[finite])), exact[finite], rtol=0, atol=1e-12)
        assert [s.valid for s in samples] == [bool(f) for f in finite]


class TestFitLoglogSlope:
    def test_recovers_the_power_law_exponent(self):
        grid = FrequencyGrid.logarithmic(1e-3, 1e2, 101)
        samples = sweep(lambda w: ideal_transfer(0.7, w, Convention.WEYL), grid)
        assert fit_loglog_slope(samples) == pytest.approx(0.7, rel=1e-12)
        assert fit_loglog_slope(samples, window=(1.0, 100.0)) == pytest.approx(
            0.7, rel=1e-12
        )

    def test_window_selects_the_regime(self):
        # fractional differentiator with a low-pass tail: slope nu at low
        # frequency, nu - 2n beyond the corner
        grid = FrequencyGrid.logarithmic(1e-3, 1e3, 121)
        samples = sweep(
            lambda w: butterworth_fractional_transfer(0.5, 7, 1.0, w), grid
        )
        low = fit_loglog_slope(samples, window=(1e-3, 1e-2))
        high = fit_loglog_slope(samples, window=(1e2, 1e3))
        assert low == pytest.approx(0.5, abs=1e-3)
        assert high == pytest.approx(0.5 - 14.0, abs=0.1)

    def test_needs_usable_samples(self):
        empty = [TransferSample(omega=1.0, value=complex("nan"), valid=False)]
        with pytest.raises(ValidationError):
            fit_loglog_slope(empty)
        two = sweep(
            lambda w: ideal_transfer(0.5, w, Convention.WEYL),
            FrequencyGrid.linear(1.0, 2.0, 2),
        )
        with pytest.raises(ValidationError):
            fit_loglog_slope(two, window=(5.0, 6.0))


class TestWriters:
    def _samples(self):
        grid = FrequencyGrid.logarithmic(0.1, 10.0, 5)
        return sweep(lambda w: ideal_transfer(0.5, w, Convention.WEYL), grid)

    def test_text_format_round_trips(self):
        buf = io.StringIO()
        write_sweep_text(self._samples(), buf, metadata={"nu": 0.5, "family": "ideal"})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# family = ideal"
        assert lines[1] == "# nu = 0.5"
        assert lines[2] == "# columns: omega re_h im_h abs_h arg_h valid"
        rows = [line.split() for line in lines[3:]]
        assert len(rows) == 5
        for row, s in zip(rows, self._samples()):
            assert float(row[0]) == s.omega
            assert float(row[1]) == s.value.real
            assert float(row[3]) == s.modulus
            assert int(row[5]) == 1

    def test_json_document(self):
        buf = io.StringIO()
        write_sweep_json(self._samples(), buf, metadata={"run_id": "abc123"})
        doc = json.loads(buf.getvalue())
        assert doc["metadata"] == {"run_id": "abc123"}
        assert len(doc["samples"]) == 5
        first = doc["samples"][0]
        assert set(first) == {"omega", "re", "im", "abs", "arg", "valid", "note"}
        assert first["valid"] is True
        ref = self._samples()[0]
        assert first["omega"] == ref.omega
        assert first["abs"] == ref.modulus

    @staticmethod
    def _json_dumps_route(samples, metadata):
        """The document as json.dumps writes it: the byte-level reference
        for write_sweep_json's template writer."""
        doc = {
            "metadata": metadata,
            "samples": [
                {"omega": s.omega, "re": s.value.real, "im": s.value.imag,
                 "abs": s.modulus, "arg": s.phase, "valid": s.valid, "note": s.note}
                for s in samples
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("case", ["poisoned", "nested", "empty", "non-float"])
    def test_json_bytes_match_json_dumps(self, case):
        samples = self._samples()
        metadata = {"run_id": "abc123", "nu": 0.5, "family": "ideal"}
        if case == "poisoned":
            nan = complex(math.nan, math.nan)
            samples += [
                TransferSample(omega=20.0, value=nan, valid=False,
                               note='kummer_m: |z| = "60" > 50'),
                TransferSample(omega=30.0, value=complex(math.inf, -math.inf),
                               valid=False, note="caf\u00e9 \u2013 \\ tab\there\n"),
                TransferSample(omega=1e-300, value=complex(-0.0, 5e-324)),
            ]
            metadata["note"] = "quote \" and \u00fc"
        elif case == "nested":
            metadata.update(grid={"points": [0.1, 1.0, None], "kind": "log"},
                            flags=[True, False], depth={"a": {"b": {}}, "c": []},
                            big=1e300, tiny=-5e-324, count=3)
        elif case == "non-float":
            # Hand-built samples may hold ints, numpy floats or a non-bool
            # flag; they must come out as json.dumps writes them.
            samples = [
                TransferSample(omega=1, value=0j),
                TransferSample(omega=2, value=3, valid=1),
                TransferSample(omega=np.float64(0.1), value=complex(1.0, 2.0), valid=0),
            ]
        else:
            samples = []
        buf = io.StringIO()
        write_sweep_json(samples, buf, metadata)
        assert buf.getvalue() == self._json_dumps_route(samples, metadata)

    def test_text_writes_numpy_scalars_as_floats(self):
        """Every number goes through float.__repr__ of the value as a
        float, whatever scalar type a hand-built sample holds."""
        samples = [
            TransferSample(omega=np.float64(0.1), value=complex(1.0, 2.0)),
            TransferSample(omega=2.0, value=np.complex128(1.0 - 0.5j), valid=np.bool_(False)),
            TransferSample(omega=3, value=4, valid=1),
            TransferSample(omega=np.float64(5.0), value=np.complex128(complex(math.nan, 1.0)),
                           valid=False),
        ]
        buf = io.StringIO()
        write_sweep_text(samples, buf)
        rows = buf.getvalue().splitlines()[1:]
        assert rows == [
            f"0.1 1.0 2.0 {abs(1 + 2j)!r} {cmath.phase(1 + 2j)!r} 1",
            f"2.0 1.0 -0.5 {abs(1 - 0.5j)!r} {cmath.phase(1 - 0.5j)!r} 0",
            "3.0 4.0 0.0 4.0 0.0 1",
            "5.0 nan 1.0 nan nan 0",
        ]

    def test_text_rows_are_the_samples_reprs(self):
        """A sweep's rows: each number as its float repr, valid as 0/1."""
        nan = complex(math.nan, math.nan)
        samples = self._samples() + [
            TransferSample(omega=20.0, value=nan, valid=False, note="x"),
            TransferSample(omega=30.0, value=complex(math.inf, -0.0), valid=False),
            TransferSample(omega=40.0, value=complex(2.0, 5e-324)),
        ]
        buf = io.StringIO()
        write_sweep_text(samples, buf)
        assert buf.getvalue().splitlines()[1:] == [
            f"{s.omega!r} {s.value.real!r} {s.value.imag!r} {s.modulus!r} {s.phase!r} "
            f"{int(s.valid)}" for s in samples
        ]

    # value parts: any finite double up to where |H| stays in range
    # (subnormals and -0.0 included), plus NaN, +-inf and edge cases
    _parts = st.one_of(
        st.floats(-1e300, 1e300),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310]),
    )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.builds(
        TransferSample,
        omega=st.one_of(_parts, st.integers(1, 10**6), _parts.map(np.float64)),
        value=st.builds(complex, _parts, _parts),
        valid=st.one_of(st.booleans(), st.sampled_from([0, 1])),
        note=st.one_of(st.just(""), st.text(max_size=8),
                       st.text(st.sampled_from('a "\\\n\té–€'), max_size=8)),
    ), max_size=40))
    def test_json_bytes_match_json_dumps_property(self, samples):
        metadata = {"run_id": "abc123", "nu": 0.5}
        # a caught libm overflow leaves errno set for the abs() of a NaN
        # value that follows; the writer must not read it
        with pytest.raises(OverflowError):
            math.exp(1000.0)
        buf = io.StringIO()
        write_sweep_json(samples, buf, metadata)
        assert buf.getvalue() == self._json_dumps_route(samples, metadata)

    @pytest.mark.parametrize("poisoned", [False, True])
    def test_json_encoder_runs_per_note_not_per_sample(self, monkeypatch, poisoned):
        """json.dumps encodes the metadata and each non-empty note; every
        number and flag of the 1000 samples goes through one % pass."""
        params = _flat_params(7, 0.5, M=256)
        cut = 0.5 if poisoned else math.inf

        def closure(w):
            if np.any(np.asarray(w) > cut):
                raise DomainError("past the cut")
            return hahn_truncated_transfer(params, w)

        samples = sweep(closure, FrequencyGrid.logarithmic(1e-3, math.pi, 1000))
        notes = sum(s.note != "" for s in samples)
        assert (notes > 0) == poisoned
        calls = []
        dumps = json.dumps

        def counting(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        buf = io.StringIO()
        write_sweep_json(samples, buf, {"N": 7, "M": 256})
        assert len(calls) == notes + 1
        monkeypatch.undo()
        assert buf.getvalue() == self._json_dumps_route(samples, {"N": 7, "M": 256})

    def test_array_sweep_and_writers_build_no_samples(self, monkeypatch):
        """A 1000-point array sweep and both writers read the columns: not
        one TransferSample is built until a sample is read."""
        built = []
        init = TransferSample.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TransferSample, "__init__", counting)
        params = _flat_params(7, 0.5, M=256)
        samples = sweep(lambda w: hahn_truncated_transfer(params, w),
                        FrequencyGrid.logarithmic(1e-3, math.pi, 1000))
        write_sweep_json(samples, io.StringIO(), {"N": 7, "M": 256})
        write_sweep_text(samples, io.StringIO())
        assert built == []
        samples[-1]
        assert len(built) == 1
