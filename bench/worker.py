"""Runs ops in-process, in a fresh interpreter of its own.

    python3 bench/worker.py timed  WORKLOAD SEED SECONDS SETUP_STARTS OUT
    python3 bench/worker.py traced WORKLOAD SEED OUT

`timed` is the closed loop of the in-process workloads (run in this
child so its peak RSS is theirs alone), with setup_s and the reference
task sampled between its ops.  `traced` runs each op of a fixed list
twice in a row, untraced and then with the tracer's wrappers installed,
and reduces the spans to per-layer metrics.
Results go to OUT as JSON.  PYTHONPATH must name the package sources.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import workloads as W

WARMUP_INDEX = 999_999
# ops per traced run: whole cycles, so per-op counts repeat exactly
TRACE_OPS = {"cli-window": 6, "cli-history": 3, "library": 2, "design": 18,
             "pointwise": 6}
# layers that should carry most of each workload's traced op time
DOMINANT = {
    "cli-window": ("cli",),
    "cli-history": ("cli",),
    "library": ("hahn", "specfun", "transfer", "fracops", "kernels"),
    "design": ("hahn", "specfun", "transfer"),
    "pointwise": ("hahn", "fracops", "kernels", "specfun"),
}


def attempt(workload, state, op, call, failures):
    """Run op through call and check its output.  Returns the op's latency
    and check error; a raising op or a failed check goes to failures."""
    t0 = time.perf_counter()
    try:
        result = call(op)
    except Exception as exc:  # a raising op is a failed op, never fatal
        failures.append((op.index, f"{type(exc).__name__}: {exc}"))
        return time.perf_counter() - t0, 0.0
    latency = time.perf_counter() - t0
    try:
        return latency, W.check(workload, state, op, result)
    except W.CheckFailed as exc:
        failures.append((op.index, str(exc)))
        return latency, 0.0


def closed_loop(workload, state, seed, scale, seconds, call, between=None):
    """One client: the next op starts when the previous one and its check
    are done.  Whole cycles until the ops' own time reaches `seconds`.
    between(busy seconds so far), if given, runs before each op, untimed."""
    latencies, failures, max_err = [], [], 0.0
    cycle = W.cycle_length(workload, scale)
    start = 0
    while sum(latencies) < seconds:
        for op in W.make_ops(workload, state, seed, scale, range(start, start + cycle)):
            if between is not None:
                between(sum(latencies))
            latency, err = attempt(workload, state, op, call, failures)
            latencies.append(latency)
            max_err = max(max_err, err)
        start += cycle
    return latencies, failures, max_err


def _clear_tap_cache():
    W.transfer._gram_taps.cache_clear()


def timed(workload, seed, seconds, workdir, setup_starts, scale=W.FULL):
    from reference import ReferenceSampler
    from startup import SetupSampler, child_env

    state = W.prepare(workload, seed, scale, workdir)
    warm = W.make_ops(workload, state, seed, scale, [WARMUP_INDEX])[0]
    W.run_op(workload, state, warm)
    _clear_tap_cache()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    setup = SetupSampler("fracfilt", child_env(root), setup_starts, seconds)
    ref = ReferenceSampler()

    def between(busy):
        setup(busy)
        ref()

    lat, failures, max_err = closed_loop(
        workload, state, seed, scale, seconds,
        lambda op: W.run_op(workload, state, op), between=between)
    return {"latencies": lat, "failures": failures, "max_rel_err": max_err,
            "setup_s": setup.median(), "reference": ref.times}


def traced(workload, seed, workdir, scale=W.FULL, n_ops=None):
    """Each op runs twice in a row, untraced and then traced, so the
    overhead estimate pairs ops run under the same host conditions."""
    from tracing import LAYERS, Tracer, layer_of

    state = W.prepare(workload, seed, scale, workdir)
    ops = W.make_ops(workload, state, seed, scale, range(n_ops or TRACE_OPS[workload]))
    W.run_op(workload, state, W.make_ops(workload, state, seed, scale, [WARMUP_INDEX])[0])
    tracer = Tracer()
    failures, untraced, traced_lat = [], [], []
    err = 0.0
    counts = {"read": 0, "write": 0, "hits": 0, "misses": 0, "evals": 0}

    def plain(op):
        return W.run_op(workload, state, op)

    def traced_op(op):
        return tracer.run_op(op.index, W.run_op, workload, state, op)

    for op in ops:
        _clear_tap_cache()
        latency, e = attempt(workload, state, op, plain, failures)
        untraced.append(latency)
        _clear_tap_cache()
        evals = getattr(state, "f_evals", [0])[0]
        tracer.install()
        try:
            latency, e2 = attempt(workload, state, op, traced_op, failures)
        finally:
            tracer.uninstall()
        traced_lat.append(latency)
        err = max(err, e, e2)
        cache = W.transfer._gram_taps.cache_info()
        counts["hits"] += cache.hits
        counts["misses"] += cache.misses
        counts["evals"] += getattr(state, "f_evals", [0])[0] - evals
        if workload in W.CLI:
            counts["read"] += os.path.getsize(state.input_path)
            counts["write"] += os.path.getsize(state.output_path)
    tracer.save(os.path.join(workdir, f"spans-{workload}.npz"))

    n = len(ops)
    totals = tracer.totals()
    op_times = tracer.op_durations()

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / n

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / n

    def counter(name):
        return tracer.counters.get(name, 0) / n

    self_by_layer = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for name, (_, _, own) in totals.items():
        self_by_layer[layer_of(name)] += own / n
    op_mean = float(op_times.mean())
    m = {
        "cli.read_s": incl("cli.read"),
        "cli.read_bytes": counts["read"] / n,
        "cli.write_s": incl("cli.write"),
        "cli.write_bytes": counts["write"] / n,
        "cli.convolve_s": totals.get("cli.run_filter", (0, 0.0, 0.0))[2] / n,
        "cli.convolve_macs": counter("cli.convolve_macs"),
        "cli.taps_s": incl("cli.taps"),
        "cli.taps": counter("cli.taps"),
        "fracops.gl_coefficients_s": incl("fracops.gl_coefficients"),
        "fracops.gl_coefficients_terms": counter("fracops.gl_coefficients_terms"),
        "fracops.gl_difference_s": incl("fracops.gl_difference"),
        "fracops.gl_difference_calls": calls("fracops.gl_difference"),
        "hahn.gram_n1_weights_s": incl("hahn.gram_n1_weights"),
        "hahn.gram_n1_weights_calls": calls("hahn.gram_n1_weights"),
        "hahn.hahn_weights_s": incl("hahn.hahn_weights"),
        "hahn.hahn_weights_calls": calls("hahn.hahn_weights"),
        "hahn.taps_built": counter("hahn.taps_built"),
        "hahn.apply_discrete_filter_s": incl("hahn.apply_discrete_filter"),
        "hahn.apply_discrete_filter_calls": calls("hahn.apply_discrete_filter"),
        "specfun.hyp3f2_unit_s": incl("specfun.hyp3f2_unit"),
        "specfun.hyp3f2_unit_calls": calls("specfun.hyp3f2_unit"),
        "specfun.gamma_calls": calls("specfun.gamma"),
        "specfun.hyp2f1_s": incl("specfun.hyp2f1"),
        "specfun.hyp2f1_calls": calls("specfun.hyp2f1"),
        "specfun.kummer_m_calls": calls("specfun.kummer_m"),
        "transfer.hahn_truncated_transfer_s": incl("transfer.hahn_truncated_transfer"),
        "transfer.tap_cache_hits": counts["hits"] / n,
        "transfer.tap_cache_misses": counts["misses"] / n,
        "transfer.hahn_transfer_s": incl("transfer.hahn_transfer"),
        "transfer.jacobi_transfer_s": incl("transfer.jacobi_transfer"),
        "transfer.sweep_points": counter("transfer.sweep_points"),
        "transfer.invalid_points": counter("transfer.invalid_points"),
        "transfer.filter_metrics_s": incl("transfer.filter_metrics"),
        "transfer.write_sweep_s": incl("transfer.write_sweep"),
        "transfer.write_bytes": counter("transfer.write_bytes"),
        "kernels.apply_kernel_s": incl("kernels.apply_kernel"),
        "kernels.apply_kernel_calls": calls("kernels.apply_kernel"),
        "kernels.f_evals": counts["evals"] / n,
        "kernels.jacobi_kernel_calls": calls("kernels.jacobi_kernel"),
        "check.max_rel_err": err,
        "check.failed_ratio": len(failures) / (2 * n),
        **{f"self.{layer}_s": t for layer, t in self_by_layer.items()},
        "trace.op_s": statistics.median(traced_lat),
        "trace.untraced_op_s": statistics.median(untraced),
        "trace.spans": len(tracer.start) / n,
        "trace.dominant_share": sum(self_by_layer[x] for x in DOMINANT[workload]) / op_mean,
    }
    pairs = list(zip(traced_lat, untraced))
    m["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    m["trace.overhead_ratio"] = statistics.median((t - u) / u for t, u in pairs)
    return {"metrics": m, "attempted": 2 * n, "failures": failures}


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    workdir = os.path.dirname(os.path.abspath(argv[-1]))
    if mode == "timed":
        out = timed(workload, seed, float(argv[3]), workdir, int(argv[4]))
    else:
        out = traced(workload, seed, workdir)
    with open(argv[-1], "w", encoding="ascii") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
