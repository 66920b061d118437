"""Spans around calls into the fracfilt modules, recorded from outside.

The tracer replaces module attributes with timing wrappers: each caller
looks its callee up in its own module's namespace at call time, so
wrapping ``fracfilt.cli.gram_n1_weights`` sees the CLI's tap builds and
wrapping ``fracfilt.transfer.gram_n1_weights`` the transfer cache's.
Nothing in the package changes.  Spans are kept in flat arrays (name,
start, end, parent, op) and only while an op is open.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from fracfilt import cli, fracops, hahn, kernels, specfun, transfer

LAYERS = ("cli", "hahn", "fracops", "transfer", "kernels", "specfun")

# (module, attribute, span name); the span name's prefix is the layer
# that owns the code, whatever module the lookup happens in
WRAPPED = (
    (cli, "main", "cli.main"),
    (cli, "run_filter", "cli.run_filter"),
    (cli, "read_signal_file", "cli.read"),
    (cli, "write_signal_file", "cli.write"),
    (cli, "_filter_taps", "cli.taps"),
    (cli, "gram_n1_weights", "hahn.gram_n1_weights"),
    (cli, "hahn_weights", "hahn.hahn_weights"),
    (cli, "gl_coefficients", "fracops.gl_coefficients"),
    (hahn, "gram_n1_weights", "hahn.gram_n1_weights"),
    (hahn, "hahn_weights", "hahn.hahn_weights"),
    (hahn, "apply_discrete_filter", "hahn.apply_discrete_filter"),
    (hahn, "hyp3f2_unit", "specfun.hyp3f2_unit"),
    (hahn, "gamma", "specfun.gamma"),
    (fracops, "gl_difference", "fracops.gl_difference"),
    (fracops, "gl_coefficients", "fracops.gl_coefficients"),
    (fracops, "gamma", "specfun.gamma"),
    (transfer, "sweep", "transfer.sweep"),
    (transfer, "hahn_transfer", "transfer.hahn_transfer"),
    (transfer, "hahn_truncated_transfer", "transfer.hahn_truncated_transfer"),
    (transfer, "jacobi_transfer", "transfer.jacobi_transfer"),
    (transfer, "filter_metrics", "transfer.filter_metrics"),
    (transfer, "truncated_dc_gain", "transfer.truncated_dc_gain"),
    (transfer, "write_sweep_json", "transfer.write_sweep"),
    (transfer, "gram_n1_weights", "hahn.gram_n1_weights"),
    (transfer, "hyp2f1", "specfun.hyp2f1"),
    (transfer, "kummer_m", "specfun.kummer_m"),
    (transfer, "complex_power", "specfun.complex_power"),
    (transfer, "gamma", "specfun.gamma"),
    (kernels, "apply_kernel", "kernels.apply_kernel"),
    (kernels, "jacobi_kernel", "kernels.jacobi_kernel"),
    (kernels, "hyp2f1", "specfun.hyp2f1"),
    (kernels, "kummer_m", "specfun.kummer_m"),
    (kernels, "gamma", "specfun.gamma"),
    (kernels, "rgamma", "specfun.rgamma"),
    (specfun, "gamma", "specfun.gamma"),
    (specfun, "rgamma", "specfun.rgamma"),
    (specfun, "hyp2f1", "specfun.hyp2f1"),
    (specfun, "hyp3f2_unit", "specfun.hyp3f2_unit"),
    (specfun, "kummer_m", "specfun.kummer_m"),
    (specfun, "complex_power", "specfun.complex_power"),
)

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    # -- recording

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op op_id; spans nest under it."""
        self._op = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = -1

    # -- wrappers

    def install(self) -> None:
        hooks = _result_hooks(self)
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, hook):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- reduction

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children nest strictly."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        ids = a["name_id"]
        # inclusive time skips spans nested in a span of the same name
        # (gamma's reflection, hyp2f1's transformations call themselves)
        outer = ~has_parent | (ids != ids[np.maximum(a["parent"], 0)])
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        excl = np.bincount(ids, weights=own, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def op_durations(self) -> np.ndarray:
        a = self.arrays()
        root = a["name_id"] == 0
        return (a["end"] - a["start"])[root]


def _result_hooks(tracer: Tracer) -> dict:
    """Counts taken from what a wrapped call returns."""

    def taps_built(args, w):
        tracer.count("hahn.taps_built", w.forward.size + w.backward.size)

    def filter_taps(args, res):
        _, _, taps, _ = res
        tracer.count("cli.taps", taps.size)
        tracer.count("cli.convolve_macs", len(args[1]) * taps.size)

    def sweep_points(args, samples):
        tracer.count("transfer.sweep_points", len(samples))
        tracer.count("transfer.invalid_points", sum(not s.valid for s in samples))

    def write_bytes(args, _):
        tracer.count("transfer.write_bytes", len(args[1].getvalue()))

    def gl_terms(args, _):
        tracer.count("fracops.gl_coefficients_terms", args[1])

    return {
        "hahn.gram_n1_weights": taps_built,
        "hahn.hahn_weights": taps_built,
        "cli.taps": filter_taps,
        "transfer.sweep": sweep_points,
        "transfer.write_sweep": write_bytes,
        "fracops.gl_coefficients": gl_terms,
    }


def layer_of(span_name: str) -> str:
    return "bench" if span_name == OP else span_name.split(".", 1)[0]

