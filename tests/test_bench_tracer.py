"""The benchmark's tracer wraps package attributes by name; every name it
wraps must still exist, or a traced run fails when it installs."""

import dataclasses
import importlib.util
import io
import pathlib
import sys

import numpy as np
import pytest

from fracfilt import cli
from fracfilt.fracops import SampledSignal

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load_bench_module("tracing")


def test_every_wrapped_attribute_resolves():
    tracing = _load_tracing()
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert not missing


@pytest.mark.parametrize("family, options", [
    ("gl", {}), ("gram", {"N": 4}), ("hahn", {"N": 4, "alpha": 0.5, "M": 20}),
])
def test_filter_taps_returns_what_the_hook_unpacks(family, options):
    """The tracer's cli.taps hook unpacks _filter_taps' result as
    (M, N, taps, prefactor) and counts taps per signal sample."""
    signal = SampledSignal(x0=0.0, delta=0.1, samples=np.zeros(64), causal=False)
    cfg = cli.RunConfig(mode="filter", family=family, nu=0.5, **options)
    result = cli._filter_taps(cfg, signal)
    M, N, taps, prefactor = result
    assert isinstance(M, int) and isinstance(N, int) and isinstance(prefactor, float)
    assert taps.shape == (M + N + 1,)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing._result_hooks(tracer)["cli.taps"]((cfg, signal), result)
    assert tracer.counters == {"cli.taps": taps.size, "cli.convolve_macs": 64 * taps.size}


def test_traced_filter_op_keeps_its_layers(tmp_path):
    """One traced `filter` op: reading, the tap build and writing are
    spans under cli.run_filter, and nothing else is, so the correlation
    in hahn.filter_signal stays run_filter's self time (cli.convolve_s)."""
    L, M, N = 200, 20, 4
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("x,value\n" + "".join(f"{0.1 * i!r},{i * i!r}\n" for i in range(L)))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, cli.main, ["filter", "--family", "gram", "--nu", "0.5",
                                           "--N", str(N), "--M", str(M),
                                           "-i", str(src), "-o", str(dst)])
    finally:
        tracer.uninstall()
    assert code == 0
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_id"]]
    under = np.flatnonzero(a["parent"] == names.index("cli.run_filter"))
    assert sorted(names[j] for j in under) == ["cli.read", "cli.taps", "cli.write"]
    assert tracer.counters["cli.convolve_macs"] == L * (M + N + 1)
    assert tracer.totals()["cli.run_filter"][2] > 0.0


def test_traced_design_op_keeps_its_write_span():
    """One traced `library` design step: write_sweep_json is one
    transfer.write_sweep span under the op, and transfer.write_bytes is
    the length of the document it wrote, so transfer.write_sweep_s and
    transfer.write_bytes measure the same writer call before and after
    a change to the writer."""
    from fracfilt import transfer

    workloads = _load_bench_module("workloads")
    scale = dataclasses.replace(workloads.FULL, sweep_points=200)
    op = workloads.design_ops(7, scale, [0])[0]
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = tracer.run_op(0, workloads.run_design, scale, op)
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_id"]]
    writes = [j for j, name in enumerate(names) if name == "transfer.write_sweep"]
    assert len(writes) == 1 and a["parent"][writes[0]] == 0
    assert tracer.totals()["transfer.write_sweep"][0] == 1
    doc = io.StringIO()
    transfer.write_sweep_json(result.truncated, doc,
                              {"N": op.N, "M": op.M, "nu": op.nu, "delta": op.delta})
    assert tracer.counters["transfer.write_bytes"] == len(doc.getvalue())
    # the sweep hook takes len() of and iterates what sweep returns, a Sweep
    assert all(isinstance(s, transfer.Sweep)
               for s in (result.exact, result.truncated, result.jacobi))
    assert tracer.counters["transfer.sweep_points"] == 3 * scale.sweep_points
    assert tracer.counters["transfer.invalid_points"] == 0
    # and counts the points a Sweep flags invalid (here the overflows)
    grid = transfer.FrequencyGrid.logarithmic(1.0, 100.0, 21)

    def order_200(w):
        return transfer.ideal_transfer(200.0, w, transfer.Convention.WEYL)

    overflows = np.count_nonzero(~np.isfinite(order_200(grid.points)))
    counts = tracing.Tracer()
    tracing._result_hooks(counts)["transfer.sweep"]((), transfer.sweep(order_200, grid))
    assert 0 < overflows < 21
    assert counts.counters == {"transfer.sweep_points": 21,
                               "transfer.invalid_points": overflows}


def test_tap_cache_keeps_its_lru_interface():
    """bench/worker.py clears the truncated-transfer tap cache before each
    op and reads its hit and miss counts after."""
    from fracfilt import transfer

    assert callable(transfer._gram_taps.cache_clear)
    assert callable(transfer._gram_taps.cache_info)
