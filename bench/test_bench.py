"""Tests of the benchmark itself, at a tiny input size.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import startup  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

TINY = replace(W.FULL, rows=2000, cli_probes=2000, record=3000, adf_probes=50,
               adf_history=200, gl_calls=2, sweep_points=40,
               shapes=((2, 64), (4, 128)))
SEED = 11
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", W.NAMES)
def test_traced_smoke(workload, tmp_path):
    n_ops = worker.TRACE_OPS[workload]
    out = worker.traced(workload, SEED, str(tmp_path), scale=TINY, n_ops=n_ops)
    assert out["failures"] == []
    assert out["attempted"] == 2 * n_ops
    m = out["metrics"]
    listed = {p["name"] for p in BENCHMARK["per_layer"]}
    assert set(m) == {n for n in listed if not n.startswith("startup.")}
    assert m["check.failed_ratio"] == 0.0
    assert 0.0 < m["trace.dominant_share"] <= 1.0 + 1e-9
    # self times partition the op time among the layers
    spans = np.load(tmp_path / f"spans-{workload}.npz")
    ops = spans["name_id"] == 0
    op_mean = float((spans["end"] - spans["start"])[ops].mean())
    layer_sum = sum(v for k, v in m.items() if k.startswith("self."))
    assert layer_sum == pytest.approx(op_mean, rel=1e-9)


@pytest.mark.parametrize("workload", W.IN_PROCESS)
def test_timed_smoke(workload, tmp_path):
    out = worker.timed(workload, SEED, 1e-6, str(tmp_path), 1, scale=TINY)
    assert out["failures"] == [] and out["setup_s"] > 0
    assert len(out["latencies"]) == W.cycle_length(workload, TINY)
    assert len(out["reference"]) == len(out["latencies"])


def test_cli_subprocess_op_passes_check(tmp_path):
    state = W.prepare("cli-window", SEED, TINY, str(tmp_path))
    op = W.make_ops("cli-window", state, SEED, TINY, [1])[0]
    env = startup.child_env(str(ROOT))
    code, peak = run.spawn([sys.executable, "-m", "fracfilt.cli", *op.argv], env, 60)
    assert code == 0 and peak > 0
    assert W.check("cli-window", state, op, code) <= W.WINDOW_RTOL


def _corrupt_value(lines, row):
    x, value, valid = lines[row].split(",")
    lines[row] = f"{x},{float(value) * (1 + 1e-6)!r},{valid}"


def _corrupt_x(lines, row):
    x, value, valid = lines[row].split(",")
    lines[row] = f"{float(x) + 1e-12!r},{value},{valid}"


def _corrupt_valid(lines, row):
    x, value, valid = lines[row].split(",")
    lines[row] = f"{x},nan,0"


@pytest.mark.parametrize("workload", W.CLI)
@pytest.mark.parametrize("corrupt", [_corrupt_value, _corrupt_x, _corrupt_valid])
def test_corrupted_cli_output_is_a_failed_op(workload, corrupt, tmp_path):
    state = W.prepare(workload, SEED, TINY, str(tmp_path))
    row = 1 + TINY.rows - 600          # a valid row for every design

    def call(op):
        code = W.run_op(workload, state, op)
        with open(state.output_path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        corrupt(lines, row)
        with open(state.output_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        return code

    lat, failures, _ = worker.closed_loop(workload, state, SEED, TINY, 1e-6, call)
    assert len(failures) == len(lat) == 1


def test_uncorrupted_cli_ops_pass(tmp_path):
    state = W.prepare("cli-history", SEED, TINY, str(tmp_path))
    lat, failures, err = worker.closed_loop(
        "cli-history", state, SEED, TINY, 0.5,
        lambda op: W.run_op("cli-history", state, op))
    assert failures == [] and err <= W.GL_RTOL


def test_design_draws_are_seeded():
    a = W.design_ops(SEED, W.FULL, range(40))
    b = W.design_ops(SEED, W.FULL, range(40))
    c = W.design_ops(SEED + 1, W.FULL, range(40))
    assert a == b and a != c
    # every cycle visits every shape once
    assert sorted((o.N, o.M) for o in a[:18]) == sorted(W.FULL.shapes)


def test_library_op_is_a_design_session_and_probes(tmp_path):
    state = W.prepare("library", SEED, TINY, str(tmp_path))
    a, b = W.make_ops("library", state, SEED, TINY, [0, 1])
    for op in (a, b):
        assert sorted((d.N, d.M) for d in op.design) == sorted(TINY.shapes)
        assert len(op.probes) == W.LIBRARY_PROBE_BATCHES
    assert a.design != b.design
    assert [p.index for p in b.probes] == list(range(4, 8))


def test_corrupted_library_result_is_a_failed_op(tmp_path):
    state = W.prepare("library", SEED, TINY, str(tmp_path))

    def call(op):
        designs, probes = W.run_op("library", state, op)
        adf = probes[-1][0]
        adf[0] += 1e-6 * state.probe.adf_scale[op.probes[-1].probes[0]]
        return designs, probes

    lat, failures, _ = worker.closed_loop("library", state, SEED, TINY, 1e-6, call)
    assert len(failures) == len(lat) == 1


def test_listed_metrics_are_reported():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert names == list(run.end_to_end(1.0, run.latency_stats([1.0] * 30), 100.0, 0.5))
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


def test_latency_stats_tail():
    lat = [float(i) for i in range(1, 31)]
    s = run.latency_stats(lat)
    assert s["op_tail_s"] == 20.0 and s["tail_beyond"] == 10
    short = run.latency_stats([3.0, 1.0, 2.0, 6.0, 5.0, 4.0])
    assert short["op_tail_s"] >= short["op_p50_s"]
    odd = run.latency_stats([float(i) for i in range(1, 14)])
    assert odd["op_p50_s"] == 7.0 and odd["op_tail_s"] == 8.0
    assert run.latency_stats([2.0])["op_tail_s"] == 2.0


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | site
import time:        10 |         10 |     math
import time:        50 |         60 |   numpy.core
import time:        20 |         80 | numpy
import time:        30 |         30 |   scipy._lib
import time:         5 |          5 |   scipy.special
import time:         7 |         42 | fracfilt
"""


def test_importtime_attribution():
    entries = startup.parse_importtime(IMPORTTIME)
    assert entries[1] == ("math", 2, 10)
    owned = startup.attribute(entries)
    assert owned["numpy"] == pytest.approx(80e-6)    # math counts as numpy's
    assert owned["scipy"] == pytest.approx(35e-6)
    assert owned["fracfilt"] == pytest.approx(7e-6)
    assert owned["other"] == pytest.approx(100e-6)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    inner = t._wrap(lambda: sum(range(20000)), "a.inner", None)
    outer = t._wrap(lambda: inner() + inner(), "b.outer", None)
    t.run_op(0, outer)
    totals = t.totals()
    calls, incl, own = totals["b.outer"]
    i_calls, i_incl, i_own = totals["a.inner"]
    assert calls == 1 and i_calls == 2
    assert own == pytest.approx(incl - i_incl)
    assert i_own == pytest.approx(i_incl)
    assert totals["op"][2] == pytest.approx(totals["op"][1] - incl)


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
