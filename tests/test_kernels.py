"""Continuous kernels: shape branches, the confluent closed form, and the
kernel-integral operator with its dual-route oracle."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from fracfilt import kernels
from fracfilt.errors import ConvergenceError, DomainError, GrowthError, ValidationError
from fracfilt.kernels import (
    JacobiKernelParams,
    apply_kernel,
    confluent_inverse_ft,
    gegenbauer_legendre_params,
    jacobi_kernel,
    jacobi_normalization,
    laguerre_kernel,
    orthogonal_derivative,
)
from fracfilt.specfun import SQRT_TWO_PI, gamma

LEGENDRE_HALF = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)


def exp_closed_form(p: JacobiKernelParams, x: float) -> float:
    """apply_kernel of e^-t: e^(-x-delta) 1F1(n+a+1; 2n+a+b+2; 2 delta)."""
    with mpmath.workdps(30):
        return float(mpmath.exp(-x - p.delta) * mpmath.hyp1f1(
            p.n + p.alpha + 1, 2 * p.n + p.alpha + p.beta + 2, 2 * p.delta))


def mp_kernel_integral(p: JacobiKernelParams, x: float, f) -> float:
    """delta^-nu times the integral of f(x + delta y) k(y) over y > -1 by
    mpmath quadrature of the direct kernel formulas at 20 digits."""
    with mpmath.workdps(20):
        a, b, nu, d = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.nu, p.delta))
        n = p.n
        coeff = mpmath.gamma(2 * n + a + b + 2) / (
            2 ** (2 * n - nu + a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n - nu + b + 1))

        def interior(y):
            return f(x + d * y) * coeff * (1 - y) ** (n + a - nu) * (1 + y) ** (n + b - nu) \
                * mpmath.hyp2f1(-nu, 2 * n - nu + a + b + 1, n - nu + b + 1, (1 + y) / 2)

        def tail(y):
            return f(x + d * y) * mpmath.rgamma(-nu) * (1 + y) ** (-nu - 1) \
                * mpmath.hyp2f1(nu + 1, n + b + 1, 2 * n + a + b + 2, 2 / (1 + y))

        total = mpmath.quad(interior, [-1, 0, 1]) + mpmath.quad(tail, [1, 2, 4, 8, 16, mpmath.inf])
        return float(total / d ** nu)


def design_cases(count: int) -> list:
    """The first `count` of one seeded list of (params, x): alpha, beta in
    (-0.9, 2), n <= 3, nu in (0.05, n), delta in [0.03, 2], x in (-1, 1)."""
    rng = np.random.default_rng(20141974)
    cases = []
    for _ in range(count):
        a, b = rng.uniform(-0.9, 2.0, 2)
        n = int(rng.integers(1, 4))
        p = JacobiKernelParams(alpha=float(a), beta=float(b), n=n,
                               nu=float(rng.uniform(0.05, n)),
                               delta=float(rng.uniform(0.03, 2.0)))
        cases.append((p, float(rng.uniform(-1.0, 1.0))))
    return cases


def oracle_double_integral(f, params: JacobiKernelParams, x: float) -> float:
    """Reference route for apply_kernel: the order-(n-nu) upper-limit
    integral of f evaluated pointwise by quadrature, then pushed through
    the integer-order orthogonal_derivative (with the upper-limit sign
    (-1)^n).  No interchange of the two integrals, so agreement with
    apply_kernel checks exactly the step the kernel construction relies
    on.  Slow."""
    mu = params.n - params.nu
    if mu < 0.0:
        raise ValidationError(f"needs nu <= n, got nu = {params.nu:g}, n = {params.n}")
    if mu == 0.0:
        smoothed = f
    else:
        from scipy import integrate

        inv_mu = 1.0 / mu
        norm = mu * gamma(mu)

        def smoothed(t: float) -> float:
            val, _ = integrate.quad(
                lambda r: f(t + r ** inv_mu), 0.0, math.inf, limit=400
            )
            return val / norm

    sign = -1.0 if params.n % 2 else 1.0
    return sign * orthogonal_derivative(
        smoothed, params.n, params.alpha, params.beta, params.delta, x
    )


class TestParams:
    def test_gegenbauer_mapping(self):
        p = gegenbauer_legendre_params(0.5, 2, 1.2, 0.1)
        assert p.alpha == 0.0 and p.beta == 0.0
        assert p.n == 2 and p.nu == 1.2 and p.delta == 0.1
        p = gegenbauer_legendre_params(1.0, 1, 0.5, 1.0)
        assert p.alpha == 0.5 and p.beta == 0.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            JacobiKernelParams(alpha=-1.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        with pytest.raises(ValidationError):
            JacobiKernelParams(alpha=0.0, beta=0.0, n=0, nu=0.5, delta=1.0)
        with pytest.raises(ValidationError):
            JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=1.5, delta=1.0)
        with pytest.raises(ValidationError):
            JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=0.0)
        with pytest.raises(ValidationError):
            gegenbauer_legendre_params(-0.5, 1, 0.5, 1.0)

    def test_normalization(self):
        # h_n/k_n for Legendre n=1: 2^2 * 1 * 1 / G(4) = 2/3
        assert jacobi_normalization(0.0, 0.0, 1) == pytest.approx(
            2.0 / 3.0, rel=1e-14
        )


class TestJacobiKernel:
    def test_zero_left_of_support(self):
        assert jacobi_kernel(LEGENDRE_HALF, -1.5) == 0.0
        assert jacobi_kernel(LEGENDRE_HALF, -1.0) == 0.0

    def test_branch_junction_refused(self):
        with pytest.raises(DomainError):
            jacobi_kernel(LEGENDRE_HALF, 1.0)

    def test_branches_meet_at_one(self):
        """Interior and tail formulas are individually singular at y = 1
        but share a finite nonzero one-sided limit."""
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=2, nu=0.5, delta=1.0)
        below = jacobi_kernel(p, 1.0 - 1e-6)
        above = jacobi_kernel(p, 1.0 + 1e-6)
        assert below != 0.0
        assert above == pytest.approx(below, rel=1e-4)

    def test_tail_decay_exponent(self):
        # k(y) ~ C y^(-nu-1) for large y
        ratio = jacobi_kernel(LEGENDRE_HALF, 2000.0) / jacobi_kernel(LEGENDRE_HALF, 1000.0)
        assert ratio == pytest.approx(2.0 ** -1.5, rel=1e-2)

    def test_integer_order_has_no_tail(self):
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=1.0, delta=0.3)
        assert jacobi_kernel(p, 2.0) == 0.0
        assert jacobi_kernel(p, 1.0001) == 0.0

    def test_integer_order_interior_is_the_polynomial_weight(self):
        # at nu = n = 1 the interior reduces to -(3/2) y: the weighted
        # first-degree polynomial with the upper-limit sign (-1)^n
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=1.0, delta=0.3)
        y = 0.37
        expected = -gamma(4.0) / (2.0 ** 2.0 * gamma(2.0) * gamma(1.0)) * y
        assert jacobi_kernel(p, y) == pytest.approx(expected, rel=1e-13)

    def test_matches_confluent_closed_form(self):
        # same function through the a, b, c parametrization and y -> (1-y)/2
        scale = SQRT_TWO_PI * 2.0 ** 1.5
        for y in (-0.4, 0.3, 1.7):
            lhs = jacobi_kernel(LEGENDRE_HALF, y)
            rhs = confluent_inverse_ft(2.0, 1.5, 4.0, (1.0 - y) / 2.0) / scale
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_left_endpoint_singular_orders_refused(self):
        p = JacobiKernelParams(alpha=0.0, beta=-0.5, n=1, nu=0.5, delta=1.0)
        with pytest.raises(DomainError):
            jacobi_kernel(p, -1.0)


class TestJacobiKernelArrays:
    Y = np.array([-3.0, -1.0, -1.0 + 1e-12, -0.7, -0.2, 0.0, 0.45, 0.9, 0.97, 0.999,
                  1.0 - 1e-9, 1.0 + 1e-9, 1.001, 1.05, 1.3, 2.0, 7.5, 40.0, 1e6])

    @pytest.mark.parametrize("alpha, beta, n, nu", [
        (0.0, 0.0, 1, 0.5), (0.5, 0.5, 1, 0.3), (-0.6, 0.4, 1, 0.8),
        (-0.85, 0.2, 1, 0.9), (1.3, 0.2, 2, 2.0)])
    def test_array_matches_scalar_calls(self, alpha, beta, n, nu):
        # both sides of y = 1 with the singular (alpha < nu - n) and the
        # bounded exponent there, and an integer order
        p = JacobiKernelParams(alpha=alpha, beta=beta, n=n, nu=nu, delta=1.0)
        got = jacobi_kernel(p, self.Y.reshape(-1, 1))
        assert got.shape == (self.Y.size, 1)
        for y, g in zip(self.Y.tolist(), got.ravel()):
            assert g == pytest.approx(jacobi_kernel(p, y), rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("alpha, beta, n, nu", [(-0.892, -0.334, 2, 1.86),
                                                    (-0.897, 0.319, 1, 0.65)])
    def test_junction_neighbourhood_against_mpmath(self, alpha, beta, n, nu):
        # n + alpha < nu: the kernel is singular on both sides of y = 1,
        # and the direct tail formula's 2F1 diverges there
        p = JacobiKernelParams(alpha=alpha, beta=beta, n=n, nu=nu, delta=1.0)
        with mpmath.workdps(40):
            a, b, mnu = (mpmath.mpf(v) for v in (alpha, beta, nu))
            for y in (1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 1e-3):
                my = mpmath.mpf(y)
                if y < 1.0:
                    ref = mpmath.gamma(2 * n + a + b + 2) / (
                        2 ** (2 * n - mnu + a + b + 1) * mpmath.gamma(n + a + 1)
                        * mpmath.gamma(n - mnu + b + 1)) * (1 - my) ** (n + a - mnu) \
                        * (1 + my) ** (n + b - mnu) * mpmath.hyp2f1(
                            -mnu, 2 * n - mnu + a + b + 1, n - mnu + b + 1, (1 + my) / 2)
                else:
                    ref = mpmath.rgamma(-mnu) * (1 + my) ** (-mnu - 1) * mpmath.hyp2f1(
                        mnu + 1, n + b + 1, 2 * n + a + b + 2, 2 / (1 + my))
                assert jacobi_kernel(p, y) == pytest.approx(float(ref), rel=1e-10)

    @pytest.mark.parametrize("alpha, beta, n, nu", [(0.5, 0.2, 2, 0.7), (-0.85, 0.2, 1, 0.9)])
    def test_nodes_rounding_onto_one_take_the_gauss_value(self, alpha, beta, n, nu):
        """A level-0 node of the [-1, 1] or [1, 2] chunk about 5e-23 from
        y = 1 has u = 1 + y round to exactly 2, so its 2F1 argument, u/2
        inside or 2/u in the tail, is exactly 1 and takes Gauss's value.
        n + alpha - nu is 1.8 (the Euler interior and direct tail forms)
        and -0.75 (the direct interior and Euler tail forms).  Scalar and
        array calls match 40-digit mpmath at the node's true position."""
        p = JacobiKernelParams(alpha=alpha, beta=beta, n=n, nu=nu, delta=1.0)
        for side, (lo, hi) in ((-1.0, (-1.0, 1.0)), (1.0, (1.0, 2.0))):
            _, d_lo, d_hi = kernels._level_nodes(lo, hi, 0)
            d = d_hi if side < 0.0 else d_lo
            u = 2.0 + side * d
            (d,) = d[(u == 2.0) & (d > 1e-30)]
            with mpmath.workdps(40):
                a, b, mnu, md = (mpmath.mpf(v) for v in (alpha, beta, nu, d))
                mu = 2 + side * md
                if side < 0.0:
                    ref = mpmath.gamma(2 * n + a + b + 2) / (
                        2 ** (2 * n - mnu + a + b + 1) * mpmath.gamma(n + a + 1)
                        * mpmath.gamma(n - mnu + b + 1)) * md ** (n + a - mnu) \
                        * mu ** (n + b - mnu) * mpmath.hyp2f1(
                            -mnu, 2 * n - mnu + a + b + 1, n - mnu + b + 1, mu / 2)
                else:
                    ref = mpmath.rgamma(-mnu) * mu ** (-mnu - 1) * mpmath.hyp2f1(
                        mnu + 1, n + b + 1, 2 * n + a + b + 2, 2 / mu)
            gaps = (2.0, -side * d)
            assert jacobi_kernel(p, 1.0, _gaps=gaps) == pytest.approx(float(ref), rel=2e-15)
            got = jacobi_kernel(p, np.ones(1), _gaps=tuple(np.full(1, g) for g in gaps))
            assert got[0] == pytest.approx(float(ref), rel=2e-15)

    def test_float_in_float_out(self):
        assert type(jacobi_kernel(LEGENDRE_HALF, 0.3)) is float
        assert type(jacobi_kernel(LEGENDRE_HALF, 3.0)) is float
        assert type(jacobi_kernel(LEGENDRE_HALF, -2.0)) is float

    def test_point_rules_hold_in_arrays(self):
        with pytest.raises(DomainError):
            jacobi_kernel(LEGENDRE_HALF, np.array([0.2, 1.0, 3.0]))
        singular_left = JacobiKernelParams(alpha=0.0, beta=-0.5, n=1, nu=0.5, delta=1.0)
        with pytest.raises(DomainError):
            jacobi_kernel(singular_left, np.array([-1.0, 0.3]))
        assert jacobi_kernel(singular_left, np.array([-1.5, 0.3]))[0] == 0.0


class TestConfluentInverseFt:
    def test_zero_beyond_support(self):
        assert confluent_inverse_ft(2.5, 1.5, 6.0, 1.0) == 0.0
        assert confluent_inverse_ft(2.5, 1.5, 6.0, 3.7) == 0.0

    def test_junction_refused(self):
        with pytest.raises(DomainError):
            confluent_inverse_ft(2.5, 1.5, 6.0, 0.0)

    def test_branches_meet_at_zero(self):
        # a - b = 1.2 here: an integer a - b puts the limit from below
        # into the unimplemented logarithmic 2F1 case (see the sliver
        # note in the frequency-domain acceptance test)
        below = confluent_inverse_ft(2.7, 1.5, 6.0, -1e-5)
        above = confluent_inverse_ft(2.7, 1.5, 6.0, 1e-5)
        assert above == pytest.approx(below, rel=5e-3)

    def test_support_edge_decay_exponent(self):
        # (1 - y)^(c-a-b) vanishing toward y = 1, exponent 1.8
        f1 = confluent_inverse_ft(2.7, 1.5, 6.0, 1.0 - 1e-3)
        f2 = confluent_inverse_ft(2.7, 1.5, 6.0, 1.0 - 2e-3)
        assert f1 / f2 == pytest.approx(0.5 ** 1.8, rel=2e-2)

    def test_parameter_window_validated(self):
        with pytest.raises(ValidationError):
            confluent_inverse_ft(2.5, 3.0, 6.0, 0.5)   # b >= a
        with pytest.raises(ValidationError):
            confluent_inverse_ft(2.5, -0.5, 6.0, 0.5)  # b <= 0
        with pytest.raises(ValidationError):
            confluent_inverse_ft(5.0, 1.5, 6.0, 0.5)   # b >= c - a


class TestCoefficientsPastGammaOverflow:
    """Finite Gamma ratios whose factors overflow: gamma(172) in the
    interior coefficient at n = 85, gamma(200) in the inverse transform at
    c = 200.  Both used to raise DomainError."""

    def test_jacobi_kernel_interior(self):
        # near y = -1, where the interior 2F1 does not cancel
        n, y = 85, -0.9
        with mpmath.workdps(40):
            nu, my = mpmath.mpf(0.5), mpmath.mpf(y)
            ref = (mpmath.gamma(2 * n + 2) / (2 ** (2 * n - nu + 1) * mpmath.gamma(n + 1)
                                              * mpmath.gamma(n - nu + 1))
                   * (1 - my * my) ** (n - nu)
                   * mpmath.hyp2f1(-nu, 2 * n - nu + 1, n - nu + 1, (1 + my) / 2))
        got = jacobi_kernel(JacobiKernelParams(0.0, 0.0, n, 0.5, 1.0), y)
        assert got == pytest.approx(float(ref), rel=1e-12)

    def test_confluent_inverse_ft(self):
        a, b, c, y = 2.5, 1.5, 200.0, 0.3
        with mpmath.workdps(40):
            a, b, c, my = (mpmath.mpf(v) for v in (a, b, c, y))
            ref = (mpmath.sqrt(2 * mpmath.pi) * mpmath.gamma(c)
                   / (mpmath.gamma(a) * mpmath.gamma(1 - a - b + c))
                   * my ** (a - b) * (1 - my) ** (c - a - b)
                   * mpmath.hyp2f1(1 - b, c - b, c + 1 - a - b, 1 - my))
        assert confluent_inverse_ft(2.5, 1.5, 200.0, y) == pytest.approx(float(ref), rel=1e-12)


class TestLaguerreKernel:
    def test_integer_order_closed_form(self):
        # nu = n = 1, alpha = 0: e^(-y) (1 - y)
        assert laguerre_kernel(0.0, 1, 1.0, 0.5) == pytest.approx(
            math.exp(-0.5) * 0.5, rel=1e-14
        )
        assert laguerre_kernel(0.0, 1, 1.0, 3.0) == pytest.approx(
            -2.0 * math.exp(-3.0), rel=1e-13
        )

    def test_origin_values(self):
        assert laguerre_kernel(0.0, 1, 0.5, 0.0) == 0.0
        # exponent n - nu + alpha exactly zero: finite limit 1/Gamma(1)
        assert laguerre_kernel(-0.5, 1, 0.5, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValidationError):
            laguerre_kernel(-1.0, 1, 0.5, 1.0)
        with pytest.raises(ValidationError):
            laguerre_kernel(0.0, 1, 1.5, 1.0)
        with pytest.raises(ValidationError):
            laguerre_kernel(0.0, 1, 0.5, -1.0)
        with pytest.raises(DomainError):
            laguerre_kernel(-0.9, 1, 0.5, 0.0)


class TestOrthogonalDerivative:
    def test_exact_on_degree_n(self):
        """The weighted average reproduces the n-th derivative of degree-n
        polynomials exactly, independent of the step."""
        f = lambda x: 3.0 * x * x - x + 2.0
        value = orthogonal_derivative(f, 2, 0.5, -0.3, 1.7, 0.4)
        assert value == pytest.approx(6.0, abs=1e-10)
        g = lambda x: -2.0 * x + 9.0
        assert orthogonal_derivative(g, 1, 0.0, 0.0, 3.7, -1.2) == pytest.approx(
            -2.0, abs=1e-10
        )

    def test_second_order_on_smooth_functions(self):
        d1 = orthogonal_derivative(math.sin, 1, 0.0, 0.0, 0.2, 0.7) - math.cos(0.7)
        d2 = orthogonal_derivative(math.sin, 1, 0.0, 0.0, 0.1, 0.7) - math.cos(0.7)
        assert abs(d1) < 0.01
        assert d1 / d2 == pytest.approx(4.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            orthogonal_derivative(math.sin, 0, 0.0, 0.0, 0.1, 0.0)
        with pytest.raises(ValidationError):
            orthogonal_derivative(math.sin, 1, -1.5, 0.0, 0.1, 0.0)
        with pytest.raises(ValidationError):
            orthogonal_derivative(math.sin, 1, 0.0, 0.0, -0.1, 0.0)


class TestApplyKernel:
    def test_exponential_eigenfunction(self):
        """e^(-x) is an eigenfunction with eigenvalue 1 in the upper-limit
        convention, up to the O(delta^2) scheme error."""
        f = lambda t: math.exp(-t)
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=0.2)
        out = apply_kernel(f, p, 0.3)
        assert out.value == pytest.approx(math.exp(-0.3), rel=1e-2)
        assert out.tail_bound < 1e-10

    def test_scheme_error_is_second_order(self):
        f = lambda t: math.exp(-t)
        errs = []
        for delta in (0.4, 0.2):
            p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=delta)
            errs.append(apply_kernel(f, p, 0.3).value - math.exp(-0.3))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_agrees_with_double_integral_oracle(self):
        """Dual route: pointwise upper-limit integral pushed through the
        integer-order derivative, no interchange of integrals."""
        f = lambda t: math.exp(-t)
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=0.4)
        assert apply_kernel(f, p, 0.3).value == pytest.approx(
            oracle_double_integral(f, p, 0.3), rel=1e-10
        )

    def test_integer_order_collapses_to_weighted_derivative(self):
        f = lambda t: math.exp(-t)
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=1.0, delta=0.3)
        out = apply_kernel(f, p, 0.3)
        assert out.tail_bound == 0.0
        # (-d/dx)^n route: opposite sign from the plain derivative
        assert out.value == pytest.approx(
            -orthogonal_derivative(f, 1, 0.0, 0.0, 0.3, 0.3), rel=1e-12
        )

    def test_growth_guard(self):
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        with pytest.raises(GrowthError):
            apply_kernel(math.exp, p, 0.0)

    def test_tail_cutoff_reports_remainder(self):
        f = lambda t: 1.0 / (1.0 + t * t)
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=1.0)
        cut = apply_kernel(f, p, 0.0, tail_cutoff=4.0)
        full = apply_kernel(f, p, 0.0)
        assert cut.tail_bound > full.tail_bound
        assert cut.value == pytest.approx(full.value, abs=5.0 * cut.tail_bound)

    def test_nonpositive_order_rejected(self):
        p = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=-0.5, delta=1.0)
        with pytest.raises(ValidationError):
            apply_kernel(math.exp, p, 0.0)
        with pytest.raises(ValidationError):
            apply_kernel(math.cos, LEGENDRE_HALF, 0.0, tail_cutoff=0.5)

    @pytest.mark.parametrize("case, f, mp_f", [
        # one fixed h = 1/8 level was 2.6e-7 off here
        ((-0.004, 0.247, 3, 0.644, 1.90, 0.92),
         lambda t: 1.0 / (1.0 + t * t), lambda t: 1 / (1 + t * t)),
        # a singular y = -1 end: nodes formed as y lose 5.6e-6 here
        ((0.694, -0.820, 1, 0.766, 0.294, -0.0108), lambda t: math.exp(-t), mpmath.exp),
    ])
    def test_against_mpmath_quadrature(self, case, f, mp_f):
        *shape, x = case
        p = JacobiKernelParams(*shape)
        out = apply_kernel(f, p, x)
        ref = mp_kernel_integral(p, x, mp_f)
        assert abs(out.value - ref) <= out.tail_bound + 1e-11 * abs(ref)

    def test_exponential_closed_form_over_the_design_range(self):
        """Seeded property: alpha, beta in (-0.9, 2), n <= 3, nu in
        (0.05, n), delta in [0.03, 2]; apply_kernel(e^-t) matches the
        closed form within 1e-9 plus its own tail bound."""
        for p, x in design_cases(60):
            out = apply_kernel(lambda t: math.exp(-t), p, x)
            ref = exp_closed_form(p, x)
            assert abs(out.value - ref) <= 1e-9 * abs(ref) + out.tail_bound, (p, x)

    def test_exponential_closed_form_near_the_weakest_endpoint_powers(self):
        """Seeded property: one endpoint exponent n + alpha - nu or
        n + beta - nu in (-0.99, -0.9), where a share of the endpoint mass
        up to ~0.2 lies closer to the end than the outermost node."""
        rng = np.random.default_rng(1974)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            power = float(rng.uniform(-0.99, -0.9))
            gap = float(rng.uniform(0.0, 1.0 + power))    # n - nu
            weak, other = power - gap, float(rng.uniform(-0.9, 2.0))
            a, b = (weak, other) if rng.random() < 0.5 else (other, weak)
            p = JacobiKernelParams(alpha=a, beta=b, n=n, nu=n - gap,
                                   delta=float(rng.uniform(0.03, 2.0)))
            x = float(rng.uniform(-1.0, 1.0))
            out = apply_kernel(lambda t: math.exp(-t), p, x)
            ref = exp_closed_form(p, x)
            assert abs(out.value - ref) <= 1e-9 * abs(ref) + out.tail_bound, (p, x)

    def test_scalar_only_callable(self):
        seen = set()

        def f(t):
            seen.add(type(t))
            return math.exp(-t)

        p = JacobiKernelParams(alpha=0.5, beta=0.5, n=1, nu=0.3, delta=0.25)
        out = apply_kernel(f, p, 0.4)
        assert seen == {float}
        assert out.value == pytest.approx(exp_closed_form(p, 0.4), rel=1e-10)

    def test_rough_integrand_raises_instead_of_guessing(self):
        # a decaying f with noise on every call: no two levels agree
        rng = np.random.default_rng(3)

        def noisy(t):
            return math.exp(-t) * (1.0 + 0.5 * rng.standard_normal())

        with pytest.raises(ConvergenceError):
            apply_kernel(noisy, LEGENDRE_HALF, 0.0)


class TestLevelTableCache:
    """apply_kernel keeps each chunk's nodes and kernel values per kernel
    shape (alpha, beta, n, nu), chunk and level; a call at a new x only
    evaluates f."""

    table = staticmethod(kernels._level_table)
    SHAPE = JacobiKernelParams(alpha=0.3, beta=0.2, n=1, nu=0.5, delta=0.5)

    def one(self, t):
        return 1.0

    def test_cold_and_warm_calls_agree_bitwise(self):
        fs = (lambda t: math.exp(-t), lambda t: math.exp(-t * t),
              lambda t: 1.0 / (1.0 + t * t))
        for p, x in design_cases(20):
            for f in fs:
                self.table.cache_clear()
                cold = apply_kernel(f, p, x)
                assert apply_kernel(f, p, x) == cold, (p, x)

    def test_tables_are_read_only(self):
        apply_kernel(lambda t: math.exp(-t), self.SHAPE, 0.3)
        *arrays, edge = self.table(0.3, 0.2, 1, 0.5, 1.0, 2.0, 0, True)
        assert isinstance(edge, float)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_shape_not_step_keys_the_tables(self):
        # with f = 1 and a fixed cutoff the chunks and levels cannot
        # depend on delta or x, so a second step adds no entry
        self.table.cache_clear()
        first = apply_kernel(self.one, self.SHAPE, 0.0, tail_cutoff=4.0)
        built = self.table.cache_info().misses
        assert built > 0
        other = dataclasses.replace(self.SHAPE, delta=1.7)
        second = apply_kernel(self.one, other, 0.9, tail_cutoff=4.0)
        assert self.table.cache_info().misses == built
        assert second.value == pytest.approx(first.value * (0.5 / 1.7) ** 0.5, rel=1e-15)
        apply_kernel(self.one, dataclasses.replace(self.SHAPE, nu=math.nextafter(0.5, 1.0)),
                     0.0, tail_cutoff=4.0)
        assert self.table.cache_info().misses == 2 * built

    def test_integer_and_float_exponents_share_bits(self):
        f = lambda t: math.exp(-t)
        values = []
        for alpha in (0, 0.0):
            self.table.cache_clear()
            p = JacobiKernelParams(alpha=alpha, beta=0.0, n=1, nu=0.5, delta=0.5)
            values.append(apply_kernel(f, p, 0.3))
        assert values[0] == values[1]
        built = self.table.cache_info().misses
        apply_kernel(f, JacobiKernelParams(alpha=0, beta=0, n=1, nu=0.5, delta=0.5), 0.3)
        assert self.table.cache_info().misses == built

    def test_errors_are_not_cached(self):
        # nu > n + beta: k is singular at y = -1, the edge of this chunk
        self.table.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError):
                self.table(0.0, -0.5, 1, 0.6, -3.0, -1.0, 0, True)
        assert self.table.cache_info().currsize == 0

    def test_cache_stays_bounded(self):
        self.table.cache_clear()
        maxsize = self.table.cache_info().maxsize
        assert maxsize == kernels._TABLE_CACHE_SIZE
        for i in range(40):
            p = dataclasses.replace(self.SHAPE, nu=0.2 + 0.015 * i)
            apply_kernel(lambda t: math.exp(-t), p, 0.3)
            assert self.table.cache_info().currsize <= maxsize
        assert self.table.cache_info().misses > maxsize
