"""Each demo script runs to completion against this tree and prints its
header line first."""

import os
import subprocess
import sys

import pytest

import fracfilt

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fracfilt.__file__)))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

HEADERS = {
    "half_derivative_convergence.py":
        "target: d^0.5/dx^0.5 x^2 at x = 1  ->  1.5045055561",
    "noisy_slope_recovery.py":
        "rms error of d^0.5 x^2 over x in [1.0, 1.8], delta = 0.01",
    "response_vs_ideal.py":
        "          |H(0.02)|    |H(0.2)|    |H(1)|    |H(2.5)|  low-band slope",
    "window_design_table.py":
        "nu = 0.5, delta = 0.01",
}


def test_every_demo_is_listed():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == sorted(HEADERS)


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_demo_runs(name):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == HEADERS[name]
