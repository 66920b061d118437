"""Fractional differentiation by smoothing kernels and discrete filters.

The continuous side evaluates interval and half-line kernels whose
convolution with a signal gives a noise-robust fractional derivative;
the discrete side builds the matching FIR weights on a uniform grid,
their exact transfer functions, and usable-band metrics.  Reference
operators (power rules, quadrature forms, backward-difference limits)
live in :mod:`fracfilt.fracops` so every closed form can be checked
against an independent route.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    FracfiltError,
    GrowthError,
    PoleError,
    ValidationError,
)
from .fracops import (
    FractionalOrder,
    SampledSignal,
    gl_coefficients,
    gl_difference,
    gl_weights,
    rl_integral_numeric,
    rl_power,
    weyl_power,
)
from .hahn import (
    FilterWeights,
    HahnFilterParams,
    apply_discrete_filter,
    default_history,
    export_taps,
    filter_signal,
    gram_n1_weights,
    hahn_normalization,
    hahn_polynomial,
    hahn_weight_function,
    hahn_weights,
)
from .kernels import (
    JacobiKernelParams,
    KernelApplication,
    apply_kernel,
    confluent_inverse_ft,
    gegenbauer_legendre_params,
    jacobi_kernel,
    jacobi_normalization,
    laguerre_kernel,
    orthogonal_derivative,
)
from .transfer import (
    Convention,
    FilterMetrics,
    FrequencyGrid,
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
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Convention",
    "DomainError",
    "FilterMetrics",
    "FilterWeights",
    "FracfiltError",
    "FractionalOrder",
    "FrequencyGrid",
    "GrowthError",
    "HahnFilterParams",
    "JacobiKernelParams",
    "KernelApplication",
    "PoleError",
    "SampledSignal",
    "TransferSample",
    "ValidationError",
    "apply_discrete_filter",
    "apply_kernel",
    "butterworth_fractional_transfer",
    "confluent_inverse_ft",
    "default_history",
    "export_taps",
    "filter_metrics",
    "filter_signal",
    "fit_loglog_slope",
    "gegenbauer_legendre_params",
    "gl_coefficients",
    "gl_difference",
    "gl_weights",
    "gl_transfer",
    "gram_n1_weights",
    "hahn_normalization",
    "hahn_polynomial",
    "hahn_transfer",
    "hahn_truncated_transfer",
    "hahn_weight_function",
    "hahn_weights",
    "ideal_transfer",
    "jacobi_kernel",
    "jacobi_normalization",
    "jacobi_transfer",
    "laguerre_kernel",
    "legendre_transfer",
    "orthogonal_derivative",
    "rl_integral_numeric",
    "rl_power",
    "sweep",
    "truncated_dc_gain",
    "weyl_power",
    "write_sweep_json",
    "write_sweep_text",
]
