"""Every design quantity has one check in fracfilt.errors: a count, a
fractional order, a step and the weight exponents.  Each public entry
point that takes one of them refuses a bad value with ValidationError
before any computation, and emits no warning on the way."""

import math
import warnings
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfilt import (
    Convention,
    FracfiltError,
    FractionalOrder,
    HahnFilterParams,
    JacobiKernelParams,
    SampledSignal,
    ValidationError,
    apply_kernel,
    butterworth_fractional_transfer,
    default_history,
    gl_coefficients,
    gl_transfer,
    gl_weights,
    gram_n1_weights,
    hahn_transfer,
    hahn_weights,
    ideal_transfer,
    jacobi_transfer,
    laguerre_kernel,
    legendre_transfer,
    orthogonal_derivative,
    rl_integral_numeric,
    rl_power,
    truncated_dc_gain,
    weyl_power,
)
from fracfilt.transfer import _grid_count

nan, inf = math.nan, math.inf
ABOVE_ONE = math.nextafter(1.0, 2.0)

# Each of these returned NaN, zeros, inf taps or a complex gain, or raised
# something other than ValidationError, before the checks were shared.
BROKEN = {
    "jacobi nu nan": lambda: jacobi_transfer(JacobiKernelParams(0, 0, 1, nan, 1.0), 1.0),
    "jacobi nu -inf": lambda: jacobi_transfer(JacobiKernelParams(0, 0, 1, -inf, 1.0), 1.0),
    "legendre nu nan": lambda: legendre_transfer(1, nan, 1.0, 1.0),
    "ideal nu nan": lambda: ideal_transfer(nan, 1.0, Convention.WEYL),
    "gl_transfer nu nan": lambda: gl_transfer(nan, 1.0, 1.0),
    "butterworth nu nan": lambda: butterworth_fractional_transfer(nan, 2, 1.0, 1.0),
    "gram delta inf": lambda: gram_n1_weights(4, 0.5, inf, 64),
    "hahn_weights delta inf": lambda: hahn_weights(HahnFilterParams(0, 0, 4, 1, 0.5, inf, 64)),
    "gl_weights delta inf": lambda: gl_weights(0.5, 10, inf),
    "dc gain delta inf": lambda: truncated_dc_gain(4, 0.5, inf, 64),
    "gl_transfer delta inf": lambda: gl_transfer(0.5, inf, 1.0),
    "hahn_transfer delta inf": lambda: hahn_transfer(
        HahnFilterParams(0, 0, 4, 1, 0.5, inf, 64), 1.0),
    "gl_weights delta 0": lambda: gl_weights(0.5, 5, 0.0),
    "gl_weights delta -1": lambda: gl_weights(0.5, 5, -1.0),
    "hahn_weights alpha inf": lambda: hahn_weights(HahnFilterParams(inf, 0, 4, 1, 0.5, 1.0, 8)),
    "FractionalOrder inf": lambda: FractionalOrder(inf).n,
    "laguerre nu nan": lambda: laguerre_kernel(0.0, 1, nan, 1.0),
    "jacobi alpha inf": lambda: jacobi_transfer(JacobiKernelParams(inf, 0, 1, 0.5, 1.0), 1.0),
    "gl_weights nu nan": lambda: gl_weights(nan, 5, 1.0),
    "gl_coefficients count 2.5": lambda: gl_coefficients(0.5, 2.5),
    "butterworth omega0 inf": lambda: butterworth_fractional_transfer(0.5, 2, inf, 1.0),
    "SampledSignal delta inf": lambda: SampledSignal(0.0, inf, [1.0, 2.0]),
    "default_history nu nan": lambda: default_history(4, 1, nan),
    "rl_power mu nan": lambda: rl_power(0.5, nan, 1.0),
    "weyl_power mu nan": lambda: weyl_power(-2.0, nan, 1.0),
    "rl_integral_numeric mu inf": lambda: rl_integral_numeric(lambda y: 1.0, inf, 1.0, 0.0),
}

STEPS = {
    "HahnFilterParams": lambda d: HahnFilterParams(0, 0, 4, 1, 0.5, d, 8),
    "JacobiKernelParams": lambda d: JacobiKernelParams(0, 0, 1, 0.5, d),
    "gram_n1_weights": lambda d: gram_n1_weights(4, 0.5, d, 8),
    "truncated_dc_gain": lambda d: truncated_dc_gain(4, 0.5, d, 8),
    "legendre_transfer": lambda d: legendre_transfer(1, 0.5, d, 1.0),
    "gl_transfer": lambda d: gl_transfer(0.5, d, 1.0),
    "butterworth omega0": lambda d: butterworth_fractional_transfer(0.5, 2, d, 1.0),
    "gl_weights": lambda d: gl_weights(0.5, 5, d),
    "SampledSignal": lambda d: SampledSignal(0.0, d, [1.0, 2.0]),
}

COUNTS = {
    "HahnFilterParams N": lambda c: HahnFilterParams(0, 0, c, 1, 0.5, 1.0, 8),
    "HahnFilterParams n": lambda c: HahnFilterParams(0, 0, 4, c, 0.5, 1.0, 8),
    "HahnFilterParams M": lambda c: HahnFilterParams(0, 0, 4, 1, 0.5, 1.0, c),
    "JacobiKernelParams n": lambda c: JacobiKernelParams(0, 0, c, 0.5, 1.0),
    "gram_n1_weights N": lambda c: gram_n1_weights(c, 0.5, 1.0, 8),
    "gram_n1_weights M": lambda c: gram_n1_weights(4, 0.5, 1.0, c),
    "truncated_dc_gain N": lambda c: truncated_dc_gain(c, 0.5, 1.0, 8),
    "truncated_dc_gain M": lambda c: truncated_dc_gain(4, 0.5, 1.0, c),
    "legendre_transfer n": lambda c: legendre_transfer(c, 0.5, 1.0, 1.0),
    "butterworth n": lambda c: butterworth_fractional_transfer(0.5, c, 1.0, 1.0),
    "gl_coefficients count": lambda c: gl_coefficients(0.5, c),
    "gl_weights terms": lambda c: gl_weights(0.5, c, 1.0),
    "laguerre_kernel n": lambda c: laguerre_kernel(0.0, c, 0.5, 1.0),
    "default_history N": lambda c: default_history(c, 1, 0.5),
    "default_history n": lambda c: default_history(4, c, 0.5),
    "grid count": _grid_count,
}

ABOVE_SCHEME = {
    "HahnFilterParams nu > n": lambda: HahnFilterParams(0, 0, 4, 1, ABOVE_ONE, 1.0, 8),
    "JacobiKernelParams nu > n": lambda: JacobiKernelParams(0, 0, 1, ABOVE_ONE, 1.0),
    "laguerre_kernel nu > n": lambda: laguerre_kernel(0.0, 1, ABOVE_ONE, 1.0),
    "default_history nu > n": lambda: default_history(4, 1, ABOVE_ONE),
    "HahnFilterParams alpha -1": lambda: HahnFilterParams(-1.0, 0, 4, 1, 0.5, 1.0, 8),
    "HahnFilterParams beta -1": lambda: HahnFilterParams(0, -1.0, 4, 1, 0.5, 1.0, 8),
    "JacobiKernelParams alpha -1": lambda: JacobiKernelParams(-1.0, 0, 1, 0.5, 1.0),
    "JacobiKernelParams beta -1": lambda: JacobiKernelParams(0, -1.0, 1, 0.5, 1.0),
    "laguerre_kernel alpha -1": lambda: laguerre_kernel(-1.0, 1, 0.5, 1.0),
}


def _decay(t):
    return math.exp(-t)


POSITIONS = {"laguerre_kernel y nan": partial(laguerre_kernel, 0.0, 1, 0.5, nan)}
for x in (nan, -inf, inf):
    POSITIONS[f"apply_kernel x {x}"] = partial(
        apply_kernel, _decay, JacobiKernelParams(0, 0, 1, 0.5, 1.0), x)
    POSITIONS[f"orthogonal_derivative x {x}"] = partial(
        orthogonal_derivative, _decay, 1, 0.0, 0.0, 0.1, x)
    POSITIONS[f"SampledSignal x0 {x}"] = partial(SampledSignal, x, 1.0, [1.0, 2.0])

CASES = {
    **BROKEN,
    **{f"{k} step {d:g}": partial(f, d) for k, f in STEPS.items() for d in (0.0, -1.0)},
    **{f"{k} = {c:g}": partial(f, c) for k, f in COUNTS.items() for c in (0, -1, 2.5)},
    **ABOVE_SCHEME,
    **POSITIONS,
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_bad_design_input_raises_before_computing(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call()


def _finite_step(delta):
    return 0.0 < delta < inf


# (call, rule its (nu, delta) must meet) for four entry points, each
# with its documented order rule: gram's 0 <= nu <= 1, gl's and
# legendre's finite nu, the kernel's nu <= n = 1
RULES = {
    "gram_n1_weights": (lambda nu, d: gram_n1_weights(4, nu, d, 16),
                        lambda nu, d: 0.0 <= nu <= 1.0 and _finite_step(d)),
    "gl_weights": (lambda nu, d: gl_weights(nu, 5, d),
                   lambda nu, d: math.isfinite(nu) and _finite_step(d)),
    "legendre_transfer": (lambda nu, d: legendre_transfer(1, nu, d, 1.0),
                          lambda nu, d: math.isfinite(nu) and _finite_step(d)),
    "JacobiKernelParams": (lambda nu, d: JacobiKernelParams(0.0, 0.0, 1, nu, d),
                           lambda nu, d: -inf < nu <= 1.0 and _finite_step(d)),
}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(RULES)), nu=st.floats(), delta=st.floats())
def test_validation_error_exactly_when_the_rule_breaks(name, nu, delta):
    """Any double, NaN and the infinities included: ValidationError exactly
    when nu or delta breaks the entry point's rule.  A valid design may
    still meet a DomainError past double range, but no bare error and no
    warning."""
    call, rule = RULES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(nu, delta)
        except ValidationError:
            assert not rule(nu, delta)
        except FracfiltError as exc:
            assert rule(nu, delta), exc
        else:
            assert rule(nu, delta)
