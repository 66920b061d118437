"""The benchmark's tracer wraps package attributes by name; every name it
wraps must still exist, or a traced run fails when it installs."""

import importlib.util
import pathlib

import numpy as np
import pytest

from fracfilt import cli
from fracfilt.fracops import SampledSignal

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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


def test_tap_cache_keeps_its_lru_interface():
    """bench/worker.py clears the truncated-transfer tap cache before each
    op and reads its hit and miss counts after."""
    from fracfilt import transfer

    assert callable(transfer._gram_taps.cache_clear)
    assert callable(transfer._gram_taps.cache_info)
