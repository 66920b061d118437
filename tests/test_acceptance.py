"""Top-level acceptance checks, one test per release criterion.

Each test carries an `acceptance` marker; the terminal summary prints one
pass/fail line per criterion.  Oracles are deliberately independent of the
code under test: math.gamma and mpmath for reference values, brute-force
sums for transfer functions, and a large-frequency asymptotic expansion,
local to this file, for the confluent spectrum."""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from fracfilt import cli
from fracfilt.fracops import SampledSignal, gl_coefficients, gl_difference
from fracfilt.hahn import (
    HahnFilterParams,
    apply_discrete_filter,
    gram_n1_weights,
    hahn_normalization,
    hahn_polynomial,
    hahn_weight_function,
    hahn_weights,
)
from fracfilt.kernels import (
    JacobiKernelParams,
    confluent_inverse_ft,
    jacobi_kernel,
    orthogonal_derivative,
)
from fracfilt.specfun import (
    complex_power,
    hyp3f2_unit,
    kummer_m,
    pochhammer,
    spherical_jn_ratio,
)
from fracfilt.transfer import (
    hahn_transfer,
    hahn_truncated_transfer,
    jacobi_transfer,
    truncated_dc_gain,
)

HALF_DERIVATIVE_OF_SQUARE = math.gamma(3.0) / math.gamma(2.5)


def full_taps(weights):
    return weights.prefactor * np.concatenate(
        [weights.backward[::-1], weights.forward]
    )


def load_curve(path):
    rows = [line.split() for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    omega = np.array([float(r[0]) for r in rows])
    modulus = np.array([float(r[3]) for r in rows])
    return omega, modulus


def loglog_slope(omega, modulus, lo, hi):
    keep = (omega >= lo) & (omega <= hi)
    return float(np.polyfit(np.log10(omega[keep]), np.log10(modulus[keep]), 1)[0])


@pytest.fixture(scope="module")
def preset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("presets")
    for name in ("fig2", "fig4", "fig5", "fig6", "fig7"):
        code = cli.main(["sweep", "--preset", name, "-o", str(out / f"{name}.txt")])
        assert code == 0
    return out


@pytest.mark.acceptance("gl filter recovers the half derivative of x^2 at first order")
def test_power_law_oracle():
    target = HALF_DERIVATIVE_OF_SQUARE
    errors = {}
    started = time.perf_counter()
    for delta in (1e-3, 5e-4):
        count = round(1.0 / delta) + 1
        grid = np.arange(count) * delta
        signal = SampledSignal(x0=0.0, delta=delta, samples=grid * grid, causal=True)
        got = gl_difference(signal, 0.5, count - 1, count)
        errors[delta] = abs(got - target)
    elapsed = time.perf_counter() - started
    assert errors[1e-3] < 1e-2
    assert errors[1e-3] / errors[5e-4] >= 1.7  # first-order decay
    assert elapsed < 1.0


@pytest.mark.acceptance("composing discrete orders mu and nu equals order mu + nu")
def test_semigroup():
    rng = np.random.default_rng(42)
    delta = 0.5
    for mu, nu in ((0.3, 0.7), (0.5, 0.5), (1.2, 0.8)):
        for _ in range(20):
            signal = SampledSignal(
                x0=0.0, delta=delta,
                samples=rng.standard_normal(64), causal=True,
            )
            stage = SampledSignal(
                x0=0.0, delta=delta, causal=True,
                samples=[gl_difference(signal, mu, i, i + 1) for i in range(64)],
            )
            chained = [gl_difference(stage, nu, i, i + 1) for i in range(64)]
            direct = [gl_difference(signal, mu + nu, i, i + 1) for i in range(64)]
            np.testing.assert_allclose(chained, direct, rtol=1e-12, atol=1e-12)


@pytest.mark.acceptance("hahn taps at N = n collapse to the gl taps")
def test_gl_embedding():
    delta, M = 0.3, 24
    for n, nu in ((1, 0.6), (2, 1.4), (3, 2.5)):
        weights = hahn_weights(HahnFilterParams(
            alpha=0.0, beta=0.0, N=n, n=n, nu=nu, delta=delta, M=M))
        descending = full_taps(weights)[::-1]  # lookahead end first
        reference = gl_coefficients(nu, n + 1 + M) / delta ** nu
        np.testing.assert_allclose(descending, reference, rtol=1e-12, atol=1e-12)


@pytest.mark.acceptance("closed-form first-order window taps match the general build")
def test_gram_closed_form():
    delta, M = 0.3, 40
    for N in range(1, 9):
        for nu in (0.25, 0.5, 0.9):
            closed = gram_n1_weights(N, nu, delta, M)
            generic = hahn_weights(HahnFilterParams(
                alpha=0.0, beta=0.0, N=N, n=1, nu=nu, delta=delta, M=M))
            np.testing.assert_allclose(
                full_taps(closed), full_taps(generic), rtol=1e-10, atol=1e-10)


@pytest.mark.acceptance("numeric fourier transform of the jacobi kernel matches the closed response")
def test_kernel_transfer_consistency():
    # graded midpoint mesh: fine near the algebraic cusps at y = -1 and
    # both sides of y = 1, coarse over the far power-law tail
    segments = ((-1.0, -0.5, 2e-4), (-0.5, 0.5, 2e-3), (0.5, 1.0, 2e-4),
                (1.0, 1.5, 2e-4), (1.5, 50.0, 5e-3), (50.0, 4000.0, 2e-2))
    mids, steps = [], []
    for lo, hi, h in segments:
        count = round((hi - lo) / h)
        mids.append(lo + (np.arange(count) + 0.5) * h)
        steps.append(np.full(count, h))
    mids = np.concatenate(mids)
    steps = np.concatenate(steps)
    params = JacobiKernelParams(alpha=0.0, beta=0.0, n=2, nu=1.5, delta=1.0)
    started = time.perf_counter()
    kernel_values = np.array([jacobi_kernel(params, float(y)) for y in mids])
    for omega in np.geomspace(0.1, 10.0, 25):
        numeric = np.sum(kernel_values * np.exp(-1j * omega * mids) * steps)
        exact = jacobi_transfer(params, omega)
        assert abs(numeric - exact) <= 1e-3 * abs(exact)
    assert time.perf_counter() - started < 10.0


@pytest.mark.acceptance("confluent kernel under the argument map reproduces the jacobi kernel")
def test_confluent_equivalence():
    ygrid = np.concatenate([
        np.linspace(-3.0, -1.05, 12),
        np.linspace(-0.95, 0.95, 60),
        np.linspace(1.05, 6.0, 28),
    ])
    for n, alpha, beta, nu in ((1, 0.0, 0.0, 0.5), (2, 0.3, 0.7, 1.2)):
        params = JacobiKernelParams(alpha=alpha, beta=beta, n=n, nu=nu, delta=1.0)
        a = n + alpha + 1.0
        c = 2.0 * n + alpha + beta + 2.0
        scale = 1.0 / (math.sqrt(2.0 * math.pi) * 2.0 ** (nu + 1.0))
        for y in ygrid:
            mapped = scale * confluent_inverse_ft(a, nu + 1.0, c, (1.0 - y) / 2.0)
            assert jacobi_kernel(params, float(y)) == pytest.approx(
                mapped, rel=1e-12, abs=1e-12)


def _kummer_large_imag(a: float, c: float, omega: np.ndarray) -> np.ndarray:
    """M(a, c; i*omega) for large omega by the two-sector Poincare
    expansion; truncated at twelve terms, plenty below omega = 4e4."""
    iw = 1j * omega
    head = np.zeros_like(iw)
    tail = np.zeros_like(iw)
    for k in range(12):
        head = head + (pochhammer(c - a, k) * pochhammer(1.0 - a, k)
                       / math.factorial(k)) * iw ** (-k)
        tail = tail + (pochhammer(a, k) * pochhammer(a - c + 1.0, k)
                       / math.factorial(k)) * (-iw) ** (-k)
    front = np.exp(1j * omega) * omega ** (a - c) * cmath.exp(
        1j * math.pi * (a - c) / 2.0) / math.gamma(a)
    back = omega ** (-a) * cmath.exp(1j * math.pi * a / 2.0) / math.gamma(c - a)
    return math.gamma(c) * (front * head + back * tail)


@pytest.mark.acceptance("quadrature inversion of the confluent spectrum lands on the kernel")
def test_confluent_spectrum_inversion():
    a, b, c = 2.5, 1.5, 6.0
    h1, h2 = 0.005, 0.05
    omega1 = (np.arange(round(25.0 / h1)) + 0.5) * h1
    spectrum1 = (1j * omega1) ** (b - 1.0) * np.array(
        [kummer_m(a, c, 1j * w) for w in omega1])
    omega2 = 25.0 + (np.arange(round((40000.0 - 25.0) / h2)) + 0.5) * h2
    spectrum2 = (1j * omega2) ** (b - 1.0) * _kummer_large_imag(a, c, omega2)
    # smooth cutoff so the truncation at 4e4 does not ring
    spectrum2 = spectrum2 * np.where(
        omega2 > 20000.0,
        np.cos(0.5 * math.pi * (omega2 - 20000.0) / 20000.0) ** 2,
        1.0,
    )
    ys = np.array([t / 10.0 for t in range(-30, 31)
                   if abs(t) >= 1 and abs(t - 10) >= 1])
    # spectrum taken with the e^{+i w y} analysis kernel, so synthesis
    # runs with e^{-i w y}; the real part folds in the negative axis
    numeric = np.empty(ys.size)
    for i, y in enumerate(ys):
        total = (np.sum(spectrum1 * np.exp(-1j * omega1 * y)) * h1
                 + np.sum(spectrum2 * np.exp(-1j * omega2 * y)) * h2)
        numeric[i] = 2.0 * total.real / math.sqrt(2.0 * math.pi)
    exact = np.array([confluent_inverse_ft(a, b, c, float(y)) for y in ys])
    l2 = np.linalg.norm(numeric - exact) / np.linalg.norm(exact)
    assert l2 <= 1e-2


@pytest.mark.acceptance("hahn transfer equals the brute-force weighted exponential sum")
def test_transfer_against_brute_sum():
    for N, n, alpha, beta, nu in ((4, 1, 0.0, 0.0, 0.5), (6, 2, 0.5, 0.5, 1.5)):
        params = HahnFilterParams(alpha=alpha, beta=beta, N=N, n=n, nu=nu, delta=1.0)
        for omega in (0.3, 0.9, 2.2):
            weighted = sum(
                hahn_polynomial(n, float(x), alpha, beta, N)
                * hahn_weight_function(x, alpha, beta, N)
                * cmath.exp(-1j * x * omega)
                for x in range(N + 1)
            )
            brute = (hahn_normalization(alpha, beta, N, n)
                     * complex_power(1.0 - cmath.exp(1j * omega), nu - n)
                     * weighted)
            assert hahn_transfer(params, omega) == pytest.approx(brute, rel=1e-8)


@pytest.mark.acceptance("preset sweeps reproduce the documented response shapes")
def test_figure_shapes(preset_dir):
    omega, modulus = load_curve(preset_dir / "fig2.txt")
    assert loglog_slope(omega, modulus, 1e-3, 1e-2) == pytest.approx(1.0, abs=1e-3)

    for nu in (0.5, 0.75):
        omega, modulus = load_curve(preset_dir / f"fig4_nu{nu:g}.txt")
        assert loglog_slope(omega, modulus, 1e-3, 1e-2) == pytest.approx(nu, abs=1e-3)

    omega, modulus = load_curve(preset_dir / "fig5_N1.txt")
    np.testing.assert_allclose(modulus, (2.0 * np.sin(omega / 2.0)) ** 0.5,
                               rtol=1e-10)

    plateaus = []
    for M in (16, 64, 256, 1024):
        _, modulus = load_curve(preset_dir / f"fig6_M{M}.txt")
        plateaus.append(modulus[0])
        params = HahnFilterParams(alpha=0.0, beta=0.0, N=7, n=1, nu=0.5,
                                  delta=1.0, M=M)
        at_zero = hahn_truncated_transfer(params, 0.0)
        assert at_zero.imag == 0.0
        assert at_zero.real == pytest.approx(
            truncated_dc_gain(7, 0.5, 1.0, M), rel=1e-10)
    assert plateaus == sorted(plateaus, reverse=True)

    omega, modulus = load_curve(preset_dir / "fig7.txt")
    assert loglog_slope(omega, modulus, 1e2, 1e3) == pytest.approx(
        0.5 - 14.0, abs=0.1)


@pytest.mark.acceptance("located response maximum agrees with the small-frequency estimate")
def test_passband_edge_estimate(preset_dir):
    omega, modulus = load_curve(preset_dir / "fig4_nu0.5.txt")
    located = omega[np.argmax(modulus)]
    estimate = math.sqrt(0.5 * 5.0 / 1.5)
    assert abs(located - estimate) / estimate < 0.15


@pytest.mark.acceptance("integer-order paths are exact on matching-degree polynomials")
def test_integer_order_exactness():
    assert orthogonal_derivative(
        lambda x: 3.0 * x * x - x + 2.0, 2, 0.5, -0.3, 1.7, 0.4
    ) == pytest.approx(6.0, abs=1e-10)
    assert orthogonal_derivative(
        lambda x: -2.0 * x + 9.0, 1, 0.0, 0.0, 3.7, 1.1
    ) == pytest.approx(-2.0, abs=1e-10)

    ramp = SampledSignal(x0=0.0, delta=3.7,
                         samples=[-2.0 * (3.7 * k) + 9.0 for k in range(30)])
    slope_taps = gram_n1_weights(5, 1.0, 3.7, 12)
    assert apply_discrete_filter(ramp, slope_taps, 15) == pytest.approx(
        -2.0, abs=1e-10)

    parabola = SampledSignal(x0=0.0, delta=0.4,
                             samples=[(0.4 * k) ** 2 - 3.0 * (0.4 * k) + 1.0
                                      for k in range(30)])
    second = hahn_weights(HahnFilterParams(alpha=0.5, beta=0.5, N=6, n=2,
                                           nu=2.0, delta=0.4, M=8))
    assert apply_discrete_filter(parabola, second, 15) == pytest.approx(
        2.0, abs=1e-10)


@pytest.mark.acceptance("special-function closed forms and summation identities hold")
def test_special_function_suite():
    with mpmath.workdps(40):
        for x in (0.1, 1.0, 10.0):
            t = mpmath.mpf(x)
            closed = (
                mpmath.sin(t) / t,
                mpmath.sin(t) / t ** 2 - mpmath.cos(t) / t,
                (3 / t ** 3 - 1 / t) * mpmath.sin(t) - 3 * mpmath.cos(t) / t ** 2,
                (15 / t ** 4 - 6 / t ** 2) * mpmath.sin(t)
                - (15 / t ** 3 - 1 / t) * mpmath.cos(t),
            )
            for order, reference in enumerate(closed):
                assert spherical_jn_ratio(order, x) * x ** order == pytest.approx(
                    float(reference), rel=1e-12)

    for N in range(1, 9):
        for m in range(N + 1):
            for nu in (0.25, 0.5, 0.9, 1.5):
                value = hyp3f2_unit(-1.0, 2.0, -float(m), -float(N), nu)
                expected = (N * nu - 2.0 * m) / (N * nu)
                assert value == pytest.approx(expected, rel=1e-13, abs=1e-13)

    for a in (0.25, 0.5, 0.9):
        terms = [math.gamma(m - a) / math.gamma(m) for m in range(1, 51)]
        for K in range(1, 51):
            closed = math.gamma(K + 1.0 - a) / (math.gamma(float(K)) * (1.0 - a))
            assert math.fsum(terms[:K]) == pytest.approx(closed, rel=1e-13)
