"""Print one `sha256 label` line per run of a fixed table, so two
checkouts' outputs can be compared line by line.

    PYTHONPATH=src python .github/output_digest.py > digest.txt

The table holds `fracfilt filter` runs (gl, gram and hahn, causal and
not) on a seeded CSV, a `sweep` of every sweep family and of every
figure preset in .txt and .json, `metrics` runs, and library calls: the
prefactor and tap sum of a few tap builds and apply_kernel values.  A
CLI run hashes its exit code, its stdout and stderr (the temp directory
replaced by a fixed name) and the files it wrote; a library call hashes
the repr of its numbers, or its error's class and message.  Exits 1 if
any run's exit code differs from its table entry.
"""

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile

import numpy as np

from fracfilt import (
    FracfiltError,
    JacobiKernelParams,
    apply_kernel,
    cli,
    gl_weights,
    gram_n1_weights,
    hahn_weights,
    orthogonal_derivative,
)
from fracfilt.hahn import HahnFilterParams

FILTERS = {
    "gl nu 0.5": ["--family", "gl", "--nu", "0.5"],
    "gl nu 1": ["--family", "gl", "--nu", "1"],
    "gram": ["--family", "gram", "--nu", "0.5", "--N", "4"],
    "gram M 64": ["--family", "gram", "--nu", "0.3", "--N", "7", "--M", "64"],
    "hahn n 2": ["--family", "hahn", "--nu", "1.5", "--N", "6", "--n", "2",
                 "--alpha", "0.5", "--beta", "0.25", "--M", "64"],
}
SWEEPS = {
    "gl": ["--family", "gl", "--nu", "0.5", "--delta", "0.1"],
    "gram": ["--family", "gram", "--nu", "0.5", "--delta", "0.1", "--N", "4"],
    "gram M 64": ["--family", "gram", "--nu", "0.5", "--delta", "0.1", "--N", "4", "--M", "64"],
    "hahn": ["--family", "hahn", "--nu", "1.5", "--delta", "0.1", "--N", "6", "--n", "2",
             "--alpha", "0.5", "--beta", "0.25"],
    "hahn M 64": ["--family", "hahn", "--nu", "1.5", "--delta", "0.1", "--N", "6", "--n", "2",
                  "--alpha", "0.5", "--beta", "0.25", "--M", "64"],
    "jacobi": ["--family", "jacobi", "--nu", "0.5", "--delta", "0.1", "--n", "2",
               "--alpha", "0.5", "--beta", "0.25"],
    "legendre": ["--family", "legendre", "--nu", "0.75", "--delta", "0.1", "--n", "3"],
    "ideal": ["--family", "ideal", "--nu", "0.5"],
    "butterworth": ["--family", "butterworth", "--nu", "0.5", "--n", "3", "--omega0", "2"],
    **{f"preset {p}": ["--preset", p] for p in cli._PRESETS},
}
METRICS = {
    "gram": (["--family", "gram", "--nu", "0.5", "--delta", "1e-3", "--N", "4", "--M", "64"], 0),
    "hahn": (["--family", "hahn", "--nu", "0.3", "--delta", "0.01", "--N", "7"], 0),
    "gram nu 1": (["--family", "gram", "--nu", "1", "--delta", "0.5", "--N", "16"], 0),
    "gl refused": (["--family", "gl", "--nu", "0.5", "--delta", "1", "--N", "4"], 1),
}


def _decay(t):
    return math.exp(-t)


LIBRARY = {
    "gram_n1_weights(4, 0.5, 1e-3, 64)": lambda: gram_n1_weights(4, 0.5, 1e-3, 64),
    "gram_n1_weights(16, 0.9, 0.25, 4096)": lambda: gram_n1_weights(16, 0.9, 0.25, 4096),
    "hahn_weights(0.5, 0.25, 6, 2, 1.5, 0.1, 64)": lambda: hahn_weights(
        HahnFilterParams(0.5, 0.25, 6, 2, 1.5, 0.1, 64)),
    "hahn_weights(0, 0, 4, 1, 0.3, 1e-3, 256)": lambda: hahn_weights(
        HahnFilterParams(0.0, 0.0, 4, 1, 0.3, 1e-3, 256)),
    "gl_weights(0.5, 64, 1e-3)": lambda: gl_weights(0.5, 64, 1e-3),
    "gl_weights(1.5, 64, 0.37)": lambda: gl_weights(1.5, 64, 0.37),
    "gl_weights(-0.5, 64, 0.01)": lambda: gl_weights(-0.5, 64, 0.01),
    "apply_kernel(0, 0, 2, 2, 0.1)": lambda: apply_kernel(
        _decay, JacobiKernelParams(0.0, 0.0, 2, 2.0, 0.1), 0.3),
    "apply_kernel(0, 0, 1, 0.5, 0.2)": lambda: apply_kernel(
        _decay, JacobiKernelParams(0.0, 0.0, 1, 0.5, 0.2), 0.3),
    "apply_kernel(0, 0, 1, 0.75, 0.37)": lambda: apply_kernel(
        _decay, JacobiKernelParams(0.0, 0.0, 1, 0.75, 0.37), 0.3),
    "apply_kernel(0, 0, 1, 0.5, 1e-3)": lambda: apply_kernel(
        _decay, JacobiKernelParams(0.0, 0.0, 1, 0.5, 1e-3), 0.3),
    "apply_kernel(0.3, 0.2, 2, 1.5, 0.1)": lambda: apply_kernel(
        _decay, JacobiKernelParams(0.3, 0.2, 2, 1.5, 0.1), 0.3),
    "orthogonal_derivative(2, 0.5, -0.3, 0.1)": lambda: orthogonal_derivative(
        _decay, 2, 0.5, -0.3, 0.1, 0.4),
}


def _numbers(result) -> str:
    """repr of a tap set's prefactor and tap sum, a KernelApplication's
    value and tail bound, or a float."""
    if hasattr(result, "taps"):
        return f"{result.prefactor!r} {float(np.sum(result.taps))!r}"
    if hasattr(result, "tail_bound"):
        return f"{result.value!r} {result.tail_bound!r}"
    return repr(result)


def _cli_digest(argv, tmp: str) -> tuple[str, int]:
    before = set(os.listdir(tmp))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".replace(tmp, "TMP").encode())
    for name in sorted(set(os.listdir(tmp)) - before):
        path = os.path.join(tmp, name)
        with open(path, "rb") as fh:
            h.update(name.encode() + b"\n" + fh.read())
        os.remove(path)
    return h.hexdigest(), code


def _signal(path: str) -> None:
    rng = np.random.default_rng(20140)
    x = 1e-3 * np.arange(2000)
    values = np.sin(3.0 * x) * np.exp(-x) + 1e-3 * rng.standard_normal(x.size)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,value\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), values.tolist()))


def main() -> int:
    wrong = []
    with tempfile.TemporaryDirectory() as top:
        signal = os.path.join(top, "signal.csv")
        _signal(signal)
        tmp = os.path.join(top, "out")
        os.mkdir(tmp)
        runs = []
        io_args = ["-i", signal, "-o", os.path.join(tmp, "out.csv")]
        for label, args in FILTERS.items():
            runs.append((f"filter {label}", ["filter", *args, *io_args], 0))
            runs.append((f"filter {label} causal", ["filter", *args, "--causal", *io_args], 0))
        for label, args in SWEEPS.items():
            for ext in ("txt", "json"):
                runs.append((f"sweep {label} .{ext}", [
                    "sweep", *args, "-o", os.path.join(tmp, f"sweep.{ext}")], 0))
        for label, (args, code) in METRICS.items():
            runs.append((f"metrics {label}", ["metrics", *args], code))
        for label, argv, expected in runs:
            digest, code = _cli_digest(argv, tmp)
            print(digest, label)
            if code != expected:
                wrong.append(f"{label}: exit {code}, expected {expected}")
    for label, call in LIBRARY.items():
        try:
            text = _numbers(call())
        except FracfiltError as exc:
            text = f"{type(exc).__name__}: {exc}"
        print(hashlib.sha256(text.encode()).hexdigest(), label)
    for line in wrong:
        print(f"output_digest: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
