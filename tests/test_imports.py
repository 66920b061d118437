"""The package and its CLI start without scipy.

Only the scipy-backed quadrature routines (the reference operators) use
scipy, and they import it on first use; apply_kernel runs
its own tanh-sinh rule.  Each case runs in a fresh interpreter, since the
test process itself has usually imported scipy already.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import fracfilt
from fracfilt import JacobiKernelParams, apply_kernel

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fracfilt.__file__)))


def fresh_run(code: str) -> dict:
    """Run `code` in a new interpreter that imports fracfilt from this
    tree. The code leaves its answer in `result`. Returns that answer and
    the scipy modules the interpreter loaded."""
    script = (
        f"result = None\n{code}\n"
        "import json, sys\n"
        "print(json.dumps({'result': result, 'scipy': sorted("
        "m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_code(argv) -> str:
    return f"from fracfilt import cli\nresult = cli.main({argv!r})\n"


@pytest.fixture
def signal_csv(tmp_path):
    path = tmp_path / "in.csv"
    x = [1e-3 * i for i in range(400)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,value\n")
        fh.writelines(f"{xi!r},{xi * xi!r}\n" for xi in x)
    return str(path)


class TestStartsWithoutScipy:
    @pytest.mark.parametrize("module", ["fracfilt", "fracfilt.cli"])
    def test_import(self, module):
        assert fresh_run(f"import {module}")["scipy"] == []

    def test_filter(self, signal_csv, tmp_path):
        out = fresh_run(cli_code(
            ["filter", "--family", "gram", "--nu", "0.5", "--N", "4",
             "-i", signal_csv, "-o", str(tmp_path / "out.csv")]))
        assert out == {"result": 0, "scipy": []}

    def test_jacobi_sweep(self, tmp_path):
        out = fresh_run(cli_code(
            ["sweep", "--family", "jacobi", "--nu", "0.5", "--delta", "0.1",
             "-o", str(tmp_path / "sweep.json")]))
        assert out == {"result": 0, "scipy": []}

    def test_metrics(self):
        out = fresh_run(cli_code(
            ["metrics", "--family", "gram", "--nu", "0.5", "--delta", "1e-3",
             "--N", "4", "--M", "64"]))
        assert out == {"result": 0, "scipy": []}


class TestQuadratureLoadsScipy:
    def test_apply_kernel(self):
        # the kernel integral is numpy-only: no scipy module at all
        out = fresh_run(
            "import math\n"
            "from fracfilt import JacobiKernelParams, apply_kernel\n"
            "result = apply_kernel(lambda t: math.exp(-t),\n"
            "                      JacobiKernelParams(0.0, 0.0, 1, 0.5, 0.5), 0.3).value\n"
        )
        here = apply_kernel(lambda t: math.exp(-t),
                            JacobiKernelParams(0.0, 0.0, 1, 0.5, 0.5), 0.3).value
        assert out["result"] == here and math.isfinite(here)
        assert out["scipy"] == []

    def test_rl_integral_numeric(self):
        out = fresh_run(
            "from fracfilt import rl_integral_numeric\n"
            "result = rl_integral_numeric(lambda y: 1.0, 0.5, 1.0, 0.0)\n"
        )
        # I^mu 1 = x^mu / Gamma(mu + 1)
        assert out["result"] == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)
        assert "scipy.integrate" in out["scipy"]
