"""The benchmark's tracer wraps package attributes by name; every name it
wraps must still exist, or a traced run fails when it installs."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_wrapped_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_tap_cache_keeps_its_lru_interface():
    """bench/worker.py clears the truncated-transfer tap cache before each
    op and reads its hit and miss counts after."""
    from fracfilt import transfer

    assert callable(transfer._gram_taps.cache_clear)
    assert callable(transfer._gram_taps.cache_info)
