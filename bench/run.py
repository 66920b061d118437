"""Benchmark of fracfilt: the filter CLI, filter design, pointwise probes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its src/ directory and scratch files go to .bench_work/ at the checkout
root.  One client runs a closed loop: each op starts when the previous
op and its correctness check are done.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics of the mode
(end-to-end with --trace 0, per-layer with --trace 1).  The lines above
it name every metric with its unit, the run's environment and each
failed op with its cause.

Workloads (see bench/README.md for why each exists):
  cli-window   `python -m fracfilt.cli filter`, windowed families, 1e5 rows
  library      one op: a design session over the whole (N, M) grid, then
               four batches of pointwise probes
  design       one design step: tap builds, 1000-point transfer sweeps,
               usable-band metrics
  pointwise    one batch of apply_discrete_filter / gl_difference /
               apply_kernel probes
  cli-history  the same CLI, full-history gl taps, 1e5 rows
Only cli-window and library are listed in BENCHMARK.json; the others are
there to run by hand, their run-to-run spreads are above the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import startup
from reference import ReferenceSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("cli-window", "library", "cli-history", "design", "pointwise")
SETUP_STARTS = 5      # fresh interpreters per setup_s median
STARTUP_STARTS = 3    # fresh interpreters per startup.* median
OP_TIMEOUT = 60.0     # a CLI op or an in-process worker over this is killed

UNITS = {"_s": "s", "_mb": "MB", "_bytes": "bytes"}
RATIOS = ("failed_ratio", "max_rel_err", "dominant_share", "overhead_ratio", "_rel")


def unit_of(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name == "ops_per_ref":
        return "1/ref"
    if name.endswith(RATIOS):
        return "ratio"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def spawn(cmd: list, env: dict, timeout: float, stderr=subprocess.DEVNULL):
    """Run cmd to completion; returns (exit code, peak RSS in MB).

    os.wait4 reaps the child so its own resource usage is read; a
    watchdog kills it after `timeout` seconds."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def latency_stats(lat: list) -> dict:
    """Median, tail and throughput of op latencies.

    The tail is the highest percentile with at least ten samples beyond
    it.  Runs of fewer than 22 ops have no such percentile above the
    median; the sample just above the median stands in, and the printed
    percentile and count beyond say so."""
    s = sorted(lat)
    n = len(s)
    k = min(n - 1, max(n - 11, (n + 1) // 2))
    return {
        "op_p50_s": statistics.median(s),
        "op_tail_s": s[k],
        "ops_per_s": n / sum(s),
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - k - 1,
        "samples": n,
    }


def run_cli_timed(workload, seed, seconds, env):
    import workloads as W
    from worker import closed_loop

    state = W.prepare(workload, seed, W.FULL, WORKDIR)
    setup = startup.SetupSampler("fracfilt.cli", env, SETUP_STARTS, seconds)
    ref = ReferenceSampler()
    err_path = os.path.join(WORKDIR, f"{workload}-stderr.txt")
    peaks = []

    def call(op):
        with open(err_path, "w", encoding="utf-8") as err:
            code, peak = spawn([sys.executable, "-m", "fracfilt.cli", *op.argv],
                               env, OP_TIMEOUT, stderr=err)
        peaks.append(peak)
        if code != 0:
            with open(err_path, encoding="utf-8") as err:
                raise RuntimeError(f"exit {code}: {err.read().strip()[-300:]}")
        return code

    def between(busy):
        setup(busy)
        ref()

    lat, failures, max_err = closed_loop(workload, state, seed, W.FULL, seconds,
                                         call, between=between)
    return setup.median(), lat, failures, max(peaks), max_err, ref.times


def run_inprocess_timed(workload, seed, seconds, env):
    out = os.path.join(WORKDIR, f"{workload}-timed.json")
    cmd = [sys.executable, os.path.join(ROOT, "bench", "worker.py"), "timed",
           workload, str(seed), repr(seconds), str(SETUP_STARTS), out]
    code, peak = spawn(cmd, env, seconds + OP_TIMEOUT, stderr=None)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    with open(out, encoding="ascii") as fh:
        res = json.load(fh)
    return (res["setup_s"], res["latencies"], res["failures"], peak,
            res["max_rel_err"], res["reference"])


def end_to_end(setup: float, stats: dict, peak: float, ref: float) -> dict:
    """Op latencies as multiples of the run's median reference-task time
    (see reference.py); setup_s and peak_rss_mb as measured."""
    return {
        "setup_s": setup,
        "op_p50_rel": stats["op_p50_s"] / ref,
        "op_tail_rel": stats["op_tail_s"] / ref,
        "ops_per_ref": stats["ops_per_s"] * ref,
        "peak_rss_mb": peak,
    }


def timed(workload, seed, seconds, env):
    runner = run_cli_timed if workload.startswith("cli-") else run_inprocess_timed
    setup, lat, failures, peak, max_err, ref_times = runner(workload, seed, seconds, env)
    stats = latency_stats(lat)
    ref = statistics.median(ref_times)
    metrics = end_to_end(setup, stats, peak, ref)
    notes = [
        f"samples {stats['samples']}, tail at p{stats['tail_percentile']:.1f} "
        f"with {stats['tail_beyond']} samples beyond",
        f"in seconds: op_p50_s {stats['op_p50_s']:.6g}, op_tail_s "
        f"{stats['op_tail_s']:.6g}, ops_per_s {stats['ops_per_s']:.6g}; reference "
        f"task median {ref:.6g} s over {len(ref_times)} samples",
        f"failed_ratio {len(failures) / len(lat):.6g}, check.max_rel_err {max_err:.3g}",
    ]
    return metrics, len(lat), failures, notes


def traced(workload, seed, env):
    module = "fracfilt.cli" if workload.startswith("cli-") else "fracfilt"
    layer = startup.startup_layer(module, env, STARTUP_STARTS)
    out = os.path.join(WORKDIR, f"{workload}-traced.json")
    cmd = [sys.executable, os.path.join(ROOT, "bench", "worker.py"), "traced",
           workload, str(seed), out]
    code, _ = spawn(cmd, env, 3 * OP_TIMEOUT, stderr=None)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    with open(out, encoding="ascii") as fh:
        res = json.load(fh)
    metrics = {**layer, **res["metrics"]}
    notes = [f"spans saved to .bench_work/spans-{workload}.npz"]
    return metrics, res["attempted"], res["failures"], notes


def environment() -> str:
    import numpy
    import scipy

    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fracfilt", "__init__.py")):
        print(f"bench: no package sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(WORKDIR, exist_ok=True)
    env = startup.child_env(ROOT)
    t0 = time.perf_counter()
    if args.trace:
        metrics, attempted, failures, notes = traced(args.workload, args.seed, env)
    else:
        metrics, attempted, failures, notes = timed(args.workload, args.seed,
                                                    args.seconds, env)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"closed loop with 1 client, {time.perf_counter() - t0:.1f} s wall")
    print(environment())
    for line in notes:
        print(line)
    for index, cause in failures:
        print(f"FAILED op {index}: {cause}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
