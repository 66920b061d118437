"""Range edges of valid designs: every gain over delta**nu goes through
specfun._over_step, every response angle omega * delta through
transfer._angle, and the quadrature checks the integrand once per level.
A valid step near the edge of double range gives a finite number or a
FracfiltError of the stated class, never a zero filter, an infinite or
NaN value, a bare ArithmeticError or a warning."""

import math
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfilt import (
    DomainError,
    FracfiltError,
    FrequencyGrid,
    HahnFilterParams,
    JacobiKernelParams,
    ValidationError,
    apply_kernel,
    cli,
    filter_metrics,
    gl_transfer,
    gl_weights,
    gram_n1_weights,
    hahn_transfer,
    hahn_truncated_transfer,
    hahn_weights,
    legendre_transfer,
    orthogonal_derivative,
    rl_integral_numeric,
    sweep,
    truncated_dc_gain,
)
from fracfilt.transfer import GridSpacing


def _decay(t):
    return math.exp(-t)


def _nan(t):
    return math.nan


def _smooth(t):
    # finite at every double, decaying both ways: t * t is inf, not an error
    return 1.0 / (1.0 + t * t)


FAR = HahnFilterParams(0, 0, 4, 1, 0.5, 1e308, 16)
TWO = np.array([1.0, 2.0])

# (call, error class).  Before the shared routes each of these returned
# 0.0, inf, -inf or NaN, raised a bare ZeroDivisionError or OverflowError,
# warned, or blamed the quadrature for a NaN from f.
EDGES = {
    "gram prefactor delta 1e308": (lambda: gram_n1_weights(4, 1.0, 1e308, 16), DomainError),
    "gram prefactor delta 1e-320": (lambda: gram_n1_weights(4, 1.0, 1e-320, 16), DomainError),
    "hahn prefactor delta 1e-320": (
        lambda: hahn_weights(HahnFilterParams(0, 0, 4, 1, 1.0, 1e-320, 16)), DomainError),
    "dc gain delta 1e308": (lambda: truncated_dc_gain(4, 1.0, 1e308, 16), DomainError),
    "dc gain delta 1e-320": (lambda: truncated_dc_gain(4, 1.0, 1e-320, 16), DomainError),
    "gl prefactor delta 1e308": (lambda: gl_weights(1.5, 5, 1e308), DomainError),
    "apply_kernel integer delta 1e-200": (
        lambda: apply_kernel(_decay, JacobiKernelParams(0, 0, 2, 2.0, 1e-200), 0.0),
        DomainError),
    "apply_kernel fractional delta 1e-250": (
        lambda: apply_kernel(_decay, JacobiKernelParams(0, 0, 2, 1.5, 1e-250), 0.0),
        DomainError),
    "orthogonal_derivative n 2 delta 1e-200": (
        lambda: orthogonal_derivative(_decay, 2, 0.0, 0.0, 1e-200, 0.0), DomainError),
    "orthogonal_derivative n 3 delta 1e150": (
        lambda: orthogonal_derivative(_smooth, 3, 0.0, 0.0, 1e150, 0.0), DomainError),
    "gl_transfer omega delta": (lambda: gl_transfer(0.5, 1e308, 2.0), DomainError),
    "hahn_transfer omega delta": (lambda: hahn_transfer(FAR, 2.0), DomainError),
    "hahn_truncated_transfer omega delta": (
        lambda: hahn_truncated_transfer(FAR, 2.0), DomainError),
    "legendre_transfer omega delta": (
        lambda: legendre_transfer(1, 0.5, 1e308, 2.0), DomainError),
    "gl_transfer array": (lambda: gl_transfer(0.5, 1e308, TWO), DomainError),
    "hahn_transfer array": (lambda: hahn_transfer(FAR, TWO), DomainError),
    "hahn_truncated_transfer array": (lambda: hahn_truncated_transfer(FAR, TWO), DomainError),
    "legendre_transfer array": (lambda: legendre_transfer(1, 0.5, 1e308, TWO), DomainError),
    "filter_metrics delta 1e-310": (
        lambda: filter_metrics(HahnFilterParams(0, 0, 4, 1, 0.3, 1e-310, 4096)), DomainError),
    "filter_metrics delta 1e-320": (
        lambda: filter_metrics(HahnFilterParams(0, 0, 4, 1, 1.0, 1e-320, 16)), DomainError),
    "apply_kernel f nan": (
        lambda: apply_kernel(_nan, JacobiKernelParams(0, 0, 1, 0.5, 1.0), 0.0), ValidationError),
    "orthogonal_derivative f nan": (
        lambda: orthogonal_derivative(_nan, 2, 0.0, 0.0, 0.1, 0.0), ValidationError),
    "rl_integral_numeric f nan": (
        lambda: rl_integral_numeric(_nan, 0.5, 1.0, 0.0), ValidationError),
}


@pytest.mark.parametrize("call,error", EDGES.values(), ids=EDGES.keys())
def test_range_edge_raises_its_class(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("argv", [
    ["--family", "gram", "--nu", "1", "--delta", "1e-320", "--N", "4", "--M", "16"],
    ["--family", "gram", "--nu", "0.3", "--delta", "1e-310", "--N", "4", "--M", "4096"],
])
def test_metrics_cli_exits_numeric_at_the_edge(argv, capsys):
    assert cli.main(["metrics", *argv]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and "numeric failure" in err


def test_non_finite_f_names_f_and_the_interval():
    with pytest.raises(ValidationError, match=r"f returned a non-finite value for y in \[-1, 1\]"):
        apply_kernel(_nan, JacobiKernelParams(0, 0, 1, 0.5, 1.0), 0.0)


def test_sweep_poisons_only_the_points_past_range():
    """An array call raises for the whole grid; sweep falls back per point
    and flags only the frequencies whose omega * delta overflows."""
    params = HahnFilterParams(0, 0, 4, 1, 0.5, 1e300, 16)
    grid = FrequencyGrid(np.array([1.0, 1e10]), GridSpacing.LOGARITHMIC)
    for transfer in (partial(hahn_transfer, params), partial(hahn_truncated_transfer, params),
                     partial(gl_transfer, 0.5, 1e300), partial(legendre_transfer, 1, 0.5, 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = list(sweep(transfer, grid))
        assert samples[0].valid and not samples[1].valid
        assert "omega * delta" in samples[1].note


def _weights(w):
    """A tap set's prefactor and taps; the prefactor must not be zero."""
    assert w.prefactor != 0.0
    return [w.prefactor, *w.taps.tolist()]


def _metrics(m):
    return [v for v in vars(m).values() if v is not None]


# (call giving the numbers to check, strategy of nu) per entry point, nu
# drawn from the entry's own range
ENTRIES = {
    "gram_n1_weights": (lambda nu, d: _weights(gram_n1_weights(4, nu, d, 16)),
                        st.floats(0.0, 1.0)),
    "hahn_weights": (
        lambda nu, d: _weights(hahn_weights(HahnFilterParams(0.5, 0, 4, 2, nu, d, 16))),
        st.floats(0.0, 2.0)),
    "gl_weights": (lambda nu, d: _weights(gl_weights(nu, 5, d)),
                   st.floats(allow_nan=False, allow_infinity=False)),
    "truncated_dc_gain": (lambda nu, d: [truncated_dc_gain(4, nu, d, 64)],
                          st.floats(0.0, 1.0)),
    "filter_metrics": (
        lambda nu, d: _metrics(filter_metrics(HahnFilterParams(0, 0, 4, 1, nu, d, 64))),
        st.floats(0.0, 1.0, exclude_min=True)),
    "apply_kernel integer": (
        lambda nu, d: vars(apply_kernel(_smooth, JacobiKernelParams(0, 0, 2, nu, d),
                                        0.5)).values(),
        st.sampled_from([1.0, 2.0])),
    "apply_kernel fractional": (
        lambda nu, d: vars(apply_kernel(_smooth, JacobiKernelParams(0, 0, 1, nu, d), 0.5,
                                        tail_cutoff=64.0)).values(),
        st.floats(0.05, 1.0, exclude_max=True)),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(ENTRIES)),
       delta=st.floats(0.0, sys.float_info.max, exclude_min=True))
def test_any_finite_step_gives_finite_numbers_or_a_fracfilt_error(data, name, delta):
    """delta from every positive finite double, subnormals included: finite
    numbers (and a non-zero prefactor for a tap builder) or a
    FracfiltError, with no warning and no bare ArithmeticError."""
    call, orders = ENTRIES[name]
    nu = data.draw(orders, label="nu")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = list(call(nu, delta))
        except FracfiltError:
            return
    assert all(map(math.isfinite, values)), values
