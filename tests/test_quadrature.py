"""The reference quadratures orthogonal_derivative and rl_integral_numeric
against 30-digit mpmath values.

The references substitute the weights' endpoint singularities away, so
mpmath integrates smooth functions: 1 + y = s^(1/(b+1)) and
1 - y = s^(1/(a+1)) for the Jacobi weight, y = x - t^(1/mu) for the
Riemann-Liouville weight.  The seeded designs reach the weak endpoint
powers (exponents near -1, mu down to 0.02) and the short steps where an
earlier Gauss-Jacobi doubling loop and QUADPACK's error estimate gave up.
"""

import math

import mpmath
import numpy as np
import pytest

from fracfilt.errors import ConvergenceError, ValidationError
from fracfilt.fracops import rl_integral_numeric
from fracfilt.kernels import orthogonal_derivative

# (float f, mpmath f), smooth and positive on the real line
FUNCTIONS = (
    (lambda t: math.exp(-t), lambda t: mpmath.exp(-t)),
    (lambda t: 1.0 / (1.0 + t * t), lambda t: 1 / (1 + t * t)),
    (lambda t: 2.0 + math.sin(3.0 * t), lambda t: 2 + mpmath.sin(3 * t)),
)


def derivative_cases(count: int = 60) -> list:
    """(f, mp_f, n, alpha, beta, delta, x): n <= 4, alpha, beta in
    (-0.95, 2.5), delta in (0.05, 2), x in (-1, 1)."""
    rng = np.random.default_rng(0)
    cases = []
    for i in range(count):
        n = int(rng.integers(1, 5))
        a, b = (float(v) for v in rng.uniform(-0.95, 2.5, 2))
        delta, x = float(rng.uniform(0.05, 2.0)), float(rng.uniform(-1.0, 1.0))
        cases.append((*FUNCTIONS[i % 3], n, a, b, delta, x))
    return cases


def integral_cases(count: int = 60) -> list:
    """(f, mp_f, mu, x, lower): mu log-uniform in (0.02, 4), lower in
    (-2, 0), x - lower in (0.05, 3)."""
    rng = np.random.default_rng(0)
    cases = []
    for i in range(count):
        mu = math.exp(rng.uniform(math.log(0.02), math.log(4.0)))
        lower = float(rng.uniform(-2.0, 0.0))
        cases.append((*FUNCTIONS[i % 3], mu, lower + float(rng.uniform(0.05, 3.0)), lower))
    return cases


def mp_jacobi(n, a, b):
    """P_n^(a,b) by its explicit sum (DLMF 18.5.8), not the recurrence
    orthogonal_derivative uses."""
    terms = [(k, mpmath.binomial(n + a, n - k) * mpmath.binomial(n + b, k))
             for k in range(n + 1)]
    return lambda y: sum(c * ((y - 1) / 2) ** k * ((y + 1) / 2) ** (n - k) for k, c in terms)


def mp_derivative(mp_f, n, a, b, delta, x) -> tuple[float, float]:
    """orthogonal_derivative's value and its term scale, the same
    coefficient times the integral of |f P_n w| over delta^n.  The scale
    is a norm, needed to a few digits, so it is integrated at 15 digits
    and a low quadrature degree."""
    with mpmath.workdps(30):
        a, b, delta, x = (mpmath.mpf(v) for v in (a, b, delta, x))
        p_n = mp_jacobi(n, a, b)

        def left(s):        # y in [-1, 0], (1 + y)^b dy = ds / (b + 1)
            y = s ** (1 / (b + 1)) - 1
            return mp_f(x + delta * y) * p_n(y) * (1 - y) ** a / (b + 1)

        def right(s):       # y in [0, 1], (1 - y)^a dy = ds / (a + 1)
            y = 1 - s ** (1 / (a + 1))
            return mp_f(x + delta * y) * p_n(y) * (1 + y) ** b / (a + 1)

        coeff = mpmath.gamma(2 * n + a + b + 2) * mpmath.gamma(n + 1) / (
            2 ** (n + a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
            * delta ** n)
        value = mpmath.quad(left, [0, 1]) + mpmath.quad(right, [0, 1])
        with mpmath.workdps(15):
            scale = sum(mpmath.quad(lambda s: abs(g(s)), [0, 1], maxdegree=3)
                        for g in (left, right))
        return float(coeff * value), float(coeff * scale)


def mp_integral(mp_f, mu, x, lower) -> float:
    """(1 / (mu Gamma(mu))) times the integral of f(x - t^(1/mu)) over
    0 <= t <= (x - lower)^mu."""
    with mpmath.workdps(30):
        mu, x, lower = (mpmath.mpf(v) for v in (mu, x, lower))
        value = mpmath.quad(lambda t: mp_f(x - t ** (1 / mu)), [0, (x - lower) ** mu])
        return float(value / (mu * mpmath.gamma(mu)))


def test_orthogonal_derivative_against_mpmath():
    """Error within 1e-13 of the term scale on every seeded design."""
    for f, mp_f, n, a, b, delta, x in derivative_cases():
        ref, scale = mp_derivative(mp_f, n, a, b, delta, x)
        got = orthogonal_derivative(f, n, a, b, delta, x)
        assert abs(got - ref) <= 1e-13 * scale, (n, a, b, delta, x)


def test_rl_integral_numeric_against_mpmath():
    """Relative error within 1e-13 on every seeded design."""
    for f, mp_f, mu, x, lower in integral_cases():
        ref = mp_integral(mp_f, mu, x, lower)
        assert rl_integral_numeric(f, mu, x, lower) == pytest.approx(ref, rel=1e-13), (
            mu, x, lower)


def test_rl_integral_numeric_refuses_a_jump():
    # a step inside [lower, x]: the levels converge only algebraically,
    # so no value is returned
    with pytest.raises(ConvergenceError):
        rl_integral_numeric(lambda y: 1.0 if y > 0.3 else 0.0, 0.5, 1.0, 0.0)


def test_rl_integral_numeric_refuses_infinite_limits():
    # the rule integrates over finite chunks only
    for x, lower in ((0.0, -math.inf), (math.inf, 0.0), (math.nan, 0.0)):
        with pytest.raises(ValidationError):
            rl_integral_numeric(math.exp, 0.5, x, lower)
