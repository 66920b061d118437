"""Inputs, operations and correctness checks of the workloads.

Every input is a function of the workload seed.  Each workload exposes

    prepare(seed, scale, workdir) -> state     inputs and reference values
    make_ops(..., indices)        -> op list   op i depends on seed and i only
    run_op(state, op)             -> result    the timed call (in-process)
    check(state, op, result)      -> rel_err   raises CheckFailed when wrong

References come from a route independent of the code under test and are
built in prepare or in check, never inside the timed call.  The library
is reached through module attributes (``hahn.gram_n1_weights(...)``), so a
wrapper installed on a module attribute sees the benchmark's own calls.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from fracfilt import cli, fracops, hahn, kernels, transfer


class CheckFailed(Exception):
    """An op gave output outside its check tolerance."""


@dataclass(frozen=True)
class Scale:
    """Input sizes.  FULL is what the benchmark measures; tests shrink it."""

    rows: int = 100_000                 # CLI input rows
    cli_probes: int = 500               # checked CLI output rows per op
    record: int = 20_000                # pointwise record length
    adf_probes: int = 12_000            # apply_discrete_filter calls per op
    adf_history: int = 2_000            # backward taps of the pointwise filter
    gl_calls: int = 12                  # full-history gl_difference calls per op
    sweep_points: int = 1_000
    shapes: tuple = (
        (4, 1024), (16, 4096), (64, 4096),
        *((N, M) for N in (1, 2, 4, 7, 15) for M in (64, 256, 1024)),
    )


FULL = Scale()

# Tolerances follow from each route's own accuracy, not from observed
# errors.  They are relative to the magnitude sum of the terms compared,
# so any wrong formula, tap or index (an O(1) error) fails by far.
#   windows: two tap routes agreeing to ~1e-13, summed in double
#   gl: scipy.special.binom taps, good to ~1e-10 at 1e5 terms
#   taps and DC gain: running products over up to M+N factors and
#     lgamma differences of size M log M, ~1e-11 at M = 4096
#   jacobi/legendre: Kummer and Bessel series at |2 w delta| <= 2 pi
#   apply_kernel: its documented tail target TAIL_REL_TARGET = 1e-8
WINDOW_RTOL = 1e-10
GL_RTOL = 1e-8
TAP_RTOL = 1e-9
DC_RTOL = 1e-9
JACOBI_RTOL = 1e-10
KERNEL_RTOL = 1e-8

CLI_NU = 0.5
CLI_DELTA = 1e-3
CLI_NOISE = 1e-3
# (family, N, alpha, beta); default M, causal alternating per call
CLI_WINDOW_DESIGNS = (("gram", 4, 0.0, 0.0), ("gram", 16, 0.0, 0.0),
                      ("hahn", 16, 0.5, 0.5))
GL_NUS = (0.3, 0.5, 0.7)            # cli-history calls and pointwise probes

POINTWISE_DELTA = 1e-3
POINTWISE_N = 8
POINTWISE_NU = 0.5
# (alpha, beta, n, nu, delta) of the kernel probes
KERNEL_SET = ((0.0, 0.0, 1, 0.5, 0.5), (0.5, 0.5, 1, 0.3, 0.25),
              (1.0, 0.0, 1, 0.7, 0.5), (0.0, 1.0, 2, 1.5, 1.0))


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _rel(err: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(err / np.maximum(scale, 1e-300))) if err.size else 0.0


# ----------------------------------------------------------- CLI workloads


@dataclass
class CliOp:
    index: int
    argv: list
    design: str
    causal: bool


@dataclass
class CliState:
    workload: str
    seed: int
    scale: Scale
    input_path: str
    output_path: str
    x_text: list
    samples: np.ndarray
    refs: dict = field(default_factory=dict)   # design -> (taps, M, N, prefactor, rtol)


def make_signal_csv(path: str, seed: int, rows: int):
    """Noisy x^2 on x = k * CLI_DELTA, floats written as repr so the CLI
    can reproduce the x column byte for byte."""
    x = np.arange(rows) * CLI_DELTA
    values = x * x + CLI_NOISE * _rng(seed, 0).standard_normal(rows)
    x_text = [repr(float(v)) for v in x]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,value\n")
        fh.writelines(f"{xs},{float(v)!r}\n" for xs, v in zip(x_text, values))
    return x_text, values


def _window_reference(family, N, alpha, beta, delta):
    """Taps in offset order -M..N from a different route than the CLI's:
    Hahn series at alpha = beta = 0 for gram, per-tap j1/j2 for hahn."""
    p = hahn.HahnFilterParams(alpha=alpha, beta=beta, N=N, n=1, nu=CLI_NU,
                              delta=delta)
    if family == "gram":
        w = hahn.hahn_weights(p)
        forward, backward = w.forward, w.backward
    else:
        forward = np.array([hahn.j2_weight(p, m) for m in range(N + 1)])
        backward = np.array([hahn.j1_weight(p, m) for m in range(1, p.M + 1)])
    prefactor = hahn.hahn_normalization(alpha, beta, N, 1) / delta ** CLI_NU
    return np.concatenate([backward[::-1], forward]), p.M, N, prefactor


def _gl_reference(nu, rows, delta):
    k = np.arange(rows)
    taps = np.where(k % 2 == 1, -1.0, 1.0) * special.binom(nu, k)
    return taps[::-1], rows - 1, 0, delta ** -nu


def prepare_cli(workload: str, seed: int, scale: Scale, workdir: str) -> CliState:
    os.makedirs(workdir, exist_ok=True)
    input_path = os.path.join(workdir, f"{workload}-input.csv")
    x_text, samples = make_signal_csv(input_path, seed, scale.rows)
    state = CliState(workload, seed, scale, input_path,
                     os.path.join(workdir, f"{workload}-output.csv"), x_text, samples)
    # the CLI derives the step from the file, so the reference does too
    delta = (float(x_text[-1]) - float(x_text[0])) / (scale.rows - 1)
    if workload == "cli-window":
        for family, N, alpha, beta in CLI_WINDOW_DESIGNS:
            ref = _window_reference(family, N, alpha, beta, delta)
            state.refs[f"{family}{N}"] = (*ref, WINDOW_RTOL)
    else:
        for nu in GL_NUS:
            state.refs[f"gl{nu:g}"] = (*_gl_reference(nu, scale.rows, delta), GL_RTOL)
    return state


def cli_ops(state: CliState, indices) -> list:
    out = []
    for i in indices:
        io_args = ["-i", state.input_path, "-o", state.output_path]
        if state.workload == "cli-window":
            family, N, alpha, beta = CLI_WINDOW_DESIGNS[i % len(CLI_WINDOW_DESIGNS)]
            causal = i % 2 == 1
            argv = ["filter", "--family", family, "--nu", repr(CLI_NU), "--N", str(N)]
            if family == "hahn":
                argv += ["--alpha", repr(alpha), "--beta", repr(beta)]
            design = f"{family}{N}"
        else:
            nu = GL_NUS[i % len(GL_NUS)]
            causal = True
            argv = ["filter", "--family", "gl", "--nu", repr(nu)]
            design = f"gl{nu:g}"
        if causal:
            argv.append("--causal")
        out.append(CliOp(i, argv + io_args, design, causal))
    return out


def check_cli(state: CliState, op: CliOp, exit_code: int) -> float:
    """x column byte-identical, valid/NaN mask per the documented rule,
    values at seeded rows equal to a direct dot product of reference taps."""
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    with open(state.output_path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "x,value,valid":
        raise CheckFailed("missing x,value,valid header")
    rows = [ln.split(",") for ln in lines[1:]]
    L = len(state.x_text)
    if len(rows) != L or any(len(r) != 3 for r in rows):
        raise CheckFailed(f"expected {L} rows of 3 columns")
    if [r[0] for r in rows] != state.x_text:
        raise CheckFailed("x column differs from the input")
    taps, M, N, prefactor, rtol = state.refs[op.design]
    valid = np.array([int(r[2]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    expected = np.ones(L, dtype=int)
    if N > 0:
        expected[L - N:] = 0
    if not op.causal and M > 0:
        expected[:M] = 0
    if not np.array_equal(valid, expected):
        raise CheckFailed("valid column breaks the lookahead/history rule")
    if not (np.all(np.isnan(values[expected == 0]))
            and np.all(np.isfinite(values[expected == 1]))):
        raise CheckFailed("NaN masking does not follow the valid column")
    candidates = np.flatnonzero(expected)
    rng = _rng(state.seed, 1, op.index)
    idx = rng.choice(candidates, size=min(state.scale.cli_probes, candidates.size),
                     replace=False)
    padded = np.concatenate([np.zeros(M), state.samples, np.zeros(N)])
    ref = np.empty(idx.size)
    scale = np.empty(idx.size)
    for j, i in enumerate(idx):
        window = padded[i: i + M + N + 1]
        ref[j] = prefactor * np.dot(taps, window)
        scale[j] = abs(prefactor) * np.dot(np.abs(taps), np.abs(window))
    err = _rel(np.abs(values[idx] - ref), scale)
    if not err <= rtol:
        raise CheckFailed(f"value error {err:.3g} of the term scale exceeds {rtol:g}")
    return err


# ----------------------------------------------------------- design


@dataclass
class DesignOp:
    index: int
    N: int
    M: int
    nu: float
    delta: float


@dataclass
class DesignResult:
    gram: object
    hahn: object
    truncated: list
    exact: list
    jacobi: list
    metrics: object


def design_ops(seed: int, scale: Scale, indices) -> list:
    """Shapes in a seeded order per cycle; nu and delta fresh every step,
    so the truncated-transfer tap cache never serves across steps."""
    out = []
    shapes = scale.shapes
    for i in indices:
        cycle, pos = divmod(i, len(shapes))
        N, M = shapes[_rng(seed, 2, cycle).permutation(len(shapes))[pos]]
        rng = _rng(seed, 3, i)
        nu = float(rng.uniform(0.01, 0.99))
        delta = float(10.0 ** rng.uniform(-4.0, -1.0))
        out.append(DesignOp(i, N, M, nu, delta))
    return out


def run_design(scale: Scale, op: DesignOp) -> DesignResult:
    params = hahn.HahnFilterParams(alpha=0.0, beta=0.0, N=op.N, n=1, nu=op.nu,
                                   delta=op.delta, M=op.M)
    gram = hahn.gram_n1_weights(op.N, op.nu, op.delta, op.M)
    hahn_w = hahn.hahn_weights(params)
    nyquist = math.pi / op.delta
    grid = transfer.FrequencyGrid.logarithmic(1e-4 * nyquist, nyquist,
                                              scale.sweep_points)
    exact = transfer.sweep(lambda w: transfer.hahn_transfer(params, w), grid)
    truncated = transfer.sweep(lambda w: transfer.hahn_truncated_transfer(params, w), grid)
    kparams = kernels.JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=op.nu,
                                         delta=op.delta)
    jacobi = transfer.sweep(lambda w: transfer.jacobi_transfer(kparams, w), grid)
    metrics = transfer.filter_metrics(params)
    transfer.write_sweep_json(truncated, io.StringIO(),
                              {"N": op.N, "M": op.M, "nu": op.nu, "delta": op.delta})
    return DesignResult(gram, hahn_w, truncated, exact, jacobi, metrics)


def _taps(w) -> np.ndarray:
    return w.prefactor * np.concatenate([w.forward, w.backward])


def check_design(op: DesignOp, res: DesignResult) -> float:
    """Hahn = Gram taps at alpha = beta = 0, tap sum = truncated_dc_gain,
    jacobi_transfer = legendre_transfer at alpha = beta = 0."""
    g, h = _taps(res.gram), _taps(res.hahn)
    tap_scale = float(np.max(np.abs(g)))
    e_taps = float(np.max(np.abs(g - h))) / tap_scale
    if not e_taps <= TAP_RTOL:
        raise CheckFailed(f"hahn/gram taps differ by {e_taps:.3g} of the tap scale")
    dc = transfer.truncated_dc_gain(op.N, op.nu, op.delta, op.M)
    e_dc = abs(float(np.sum(g)) - dc) / float(np.sum(np.abs(g)))
    if not e_dc <= DC_RTOL:
        raise CheckFailed(f"tap sum misses truncated_dc_gain by {e_dc:.3g}")
    if abs(res.metrics.h_zero - abs(dc)) > DC_RTOL * abs(dc):
        raise CheckFailed("filter_metrics h_zero disagrees with truncated_dc_gain")
    e_j = 0.0
    for s in res.jacobi:
        if not s.valid:
            raise CheckFailed(f"jacobi_transfer failed at omega={s.omega:g}: {s.note}")
        ref = transfer.legendre_transfer(1, op.nu, op.delta, s.omega)
        e_j = max(e_j, abs(s.value - ref) / abs(ref))
    if not e_j <= JACOBI_RTOL:
        raise CheckFailed(f"jacobi/legendre transfer differ by {e_j:.3g}")
    if any(not s.valid for s in res.exact + res.truncated):
        raise CheckFailed("a hahn transfer sweep point failed")
    return max(e_taps, e_dc, e_j)


# ----------------------------------------------------------- pointwise


@dataclass
class PointwiseState:
    signal: object
    weights: object
    adf_ref: np.ndarray          # apply_discrete_filter at every index
    adf_scale: np.ndarray
    gl_taps: dict                # nu -> binom-built coefficients
    kernels: list
    f_evals: list = field(default_factory=lambda: [0])


@dataclass
class PointwiseOp:
    index: int
    probes: np.ndarray
    gl: list                     # (nu, at_index)
    kernel_x: list


def prepare_pointwise(seed: int, scale: Scale, workdir: str) -> PointwiseState:
    L = scale.record
    x = np.arange(L) * POINTWISE_DELTA
    samples = x * x + CLI_NOISE * _rng(seed, 4).standard_normal(L)
    signal = fracops.SampledSignal(x0=0.0, delta=POINTWISE_DELTA, samples=samples,
                                   causal=True)
    M = scale.adf_history
    weights = hahn.gram_n1_weights(POINTWISE_N, POINTWISE_NU, POINTWISE_DELTA, M)
    ref_w = hahn.hahn_weights(hahn.HahnFilterParams(
        alpha=0.0, beta=0.0, N=POINTWISE_N, n=1, nu=POINTWISE_NU,
        delta=POINTWISE_DELTA, M=M))
    taps = np.concatenate([ref_w.backward[::-1], ref_w.forward])
    padded = np.concatenate([np.zeros(M), samples])
    adf_ref = ref_w.prefactor * np.correlate(padded, taps, mode="valid")
    adf_scale = abs(ref_w.prefactor) * np.correlate(np.abs(padded), np.abs(taps),
                                                    mode="valid")
    k = np.arange(L)
    gl_taps = {nu: np.where(k % 2 == 1, -1.0, 1.0) * special.binom(nu, k)
               for nu in GL_NUS}
    kparams = [kernels.JacobiKernelParams(alpha=a, beta=b, n=n, nu=nu, delta=d)
               for a, b, n, nu, d in KERNEL_SET]
    return PointwiseState(signal, weights, adf_ref, adf_scale, gl_taps, kparams)


def pointwise_ops(state: PointwiseState, seed: int, scale: Scale, indices) -> list:
    L = len(state.signal)
    last = L - POINTWISE_N - 1          # lookahead must stay inside the record
    out = []
    for i in indices:
        rng = _rng(seed, 5, i)
        probes = rng.integers(0, last + 1, size=scale.adf_probes)
        gl_at = rng.integers(L // 2, L, size=scale.gl_calls)
        gl = [(GL_NUS[j % len(GL_NUS)], int(a)) for j, a in enumerate(gl_at)]
        out.append(PointwiseOp(i, probes, gl, list(rng.uniform(0.0, 2.0, len(KERNEL_SET)))))
    return out


def run_pointwise(state: PointwiseState, op: PointwiseOp):
    evals = state.f_evals

    def decaying(t: float) -> float:
        evals[0] += 1
        return math.exp(-t)

    adf = [hahn.apply_discrete_filter(state.signal, state.weights, int(i))
           for i in op.probes]
    gl = [fracops.gl_difference(state.signal, nu, at, at + 1) for nu, at in op.gl]
    kern = [kernels.apply_kernel(decaying, p, x)
            for p, x in zip(state.kernels, op.kernel_x)]
    return adf, gl, kern


def check_pointwise(state: PointwiseState, op: PointwiseOp, res) -> float:
    """apply_discrete_filter against Hahn-series taps correlated over the
    whole record, gl_difference against scipy.special.binom taps,
    apply_kernel(e^-t) against e^(-x-delta) 1F1(n+a+1; 2n+a+b+2; 2 delta)."""
    adf, gl, kern = res
    e_adf = _rel(np.abs(np.array(adf) - state.adf_ref[op.probes]),
                 state.adf_scale[op.probes])
    if not e_adf <= WINDOW_RTOL:
        raise CheckFailed(f"apply_discrete_filter error {e_adf:.3g}")
    samples = state.signal.samples
    d = state.signal.delta
    e_gl = 0.0
    for (nu, at), got in zip(op.gl, gl):
        terms = state.gl_taps[nu][: at + 1] * samples[at::-1]
        ref = float(np.sum(terms)) / d ** nu
        e_gl = max(e_gl, abs(got - ref) / (float(np.sum(np.abs(terms))) / d ** nu))
    if not e_gl <= GL_RTOL:
        raise CheckFailed(f"gl_difference error {e_gl:.3g}")
    e_k = 0.0
    for p, x, got in zip(state.kernels, op.kernel_x, kern):
        ref = math.exp(-x - p.delta) * float(special.hyp1f1(
            p.n + p.alpha + 1.0, 2.0 * p.n + p.alpha + p.beta + 2.0, 2.0 * p.delta))
        e_k = max(e_k, abs(got.value - ref) / abs(ref))
    if not e_k <= KERNEL_RTOL:
        raise CheckFailed(f"apply_kernel error {e_k:.3g}")
    return max(e_adf, e_gl, e_k)


# ----------------------------------------------------------- library

# A library op is one design session followed by probes of a record:
# every shape of the design grid once, in a seeded order, then this many
# pointwise batches.  That makes each op a few seconds long and the same
# mix of work every time, so one op's latency already averages over the
# shared host's second-scale speed swings, and the pointwise layers
# (fracops, kernels) carry about a third of it.
LIBRARY_PROBE_BATCHES = 4


@dataclass
class LibraryState:
    scale: Scale
    probe: PointwiseState

    @property
    def f_evals(self) -> list:
        return self.probe.f_evals


@dataclass
class LibraryOp:
    index: int
    design: list                 # DesignOp, one per shape
    probes: list                 # PointwiseOp


def library_ops(state: LibraryState, seed: int, scale: Scale, indices) -> list:
    shapes, k = len(scale.shapes), LIBRARY_PROBE_BATCHES
    return [LibraryOp(i, design_ops(seed, scale, range(i * shapes, (i + 1) * shapes)),
                      pointwise_ops(state.probe, seed, scale, range(i * k, (i + 1) * k)))
            for i in indices]


def run_library(state: LibraryState, op: LibraryOp):
    return ([run_design(state.scale, d) for d in op.design],
            [run_pointwise(state.probe, p) for p in op.probes])


def check_library(state: LibraryState, op: LibraryOp, res) -> float:
    designs, probes = res
    errs = [check_design(d, r) for d, r in zip(op.design, designs)]
    errs += [check_pointwise(state.probe, p, r) for p, r in zip(op.probes, probes)]
    return max(errs)


# ----------------------------------------------------------- registry


IN_PROCESS = ("library", "design", "pointwise")
CLI = ("cli-window", "cli-history")
NAMES = CLI + IN_PROCESS


def prepare(workload: str, seed: int, scale: Scale, workdir: str):
    if workload in CLI:
        return prepare_cli(workload, seed, scale, workdir)
    if workload == "design":
        return scale          # design steps draw everything from seed and index
    if workload == "library":
        return LibraryState(scale, prepare_pointwise(seed, scale, workdir))
    return prepare_pointwise(seed, scale, workdir)


def cycle_length(workload: str, scale: Scale) -> int:
    """Ops a timed loop runs as one unit.  Design steps differ tenfold in
    cost, so runs end on whole cycles of shapes; the CLI designs, the
    pointwise batches and the library ops cost about the same each, so
    any count will do."""
    return len(scale.shapes) if workload == "design" else 1


def make_ops(workload: str, state, seed: int, scale: Scale, indices) -> list:
    """Ops with the given indices; op i is the same for a given seed
    however many ops a run ends up making."""
    if workload in CLI:
        return cli_ops(state, indices)
    if workload == "design":
        return design_ops(seed, scale, indices)
    if workload == "library":
        return library_ops(state, seed, scale, indices)
    return pointwise_ops(state, seed, scale, indices)


def run_op(workload: str, state, op):
    if workload in CLI:
        return cli.main(op.argv)
    if workload == "design":
        return run_design(state, op)
    if workload == "library":
        return run_library(state, op)
    return run_pointwise(state, op)


def check(workload: str, state, op, result) -> float:
    if workload in CLI:
        return check_cli(state, op, result)
    if workload == "design":
        return check_design(op, result)
    if workload == "library":
        return check_library(state, op, result)
    return check_pointwise(state, op, result)
