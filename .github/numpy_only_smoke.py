"""Run fracfilt with scipy blocked: the reference quadratures,
apply_kernel, and the filter, sweep and metrics commands.

    python .github/numpy_only_smoke.py

sys.modules["scipy"] = None makes every scipy import raise ImportError,
so the check holds on a machine that has scipy installed as well.
"""

import json
import math
import os
import sys
import tempfile

sys.modules["scipy"] = None

from fracfilt import (  # noqa: E402
    JacobiKernelParams,
    apply_kernel,
    cli,
    orthogonal_derivative,
    rl_integral_numeric,
)

# exact on a degree-n polynomial; I^mu 1 = x^mu / Gamma(mu + 1)
assert abs(orthogonal_derivative(lambda t: 3 * t * t - t, 2, 0.5, -0.3, 1.7, 0.4) - 6.0) < 1e-12
assert abs(rl_integral_numeric(lambda y: 1.0, 0.5, 1.0, 0.0) * math.gamma(1.5) - 1.0) < 1e-12
kernel = JacobiKernelParams(alpha=0.0, beta=0.0, n=1, nu=0.5, delta=0.2)
assert abs(apply_kernel(lambda t: math.exp(-t), kernel, 0.3).value / math.exp(-0.3) - 1) < 1e-2

with tempfile.TemporaryDirectory() as tmp:
    signal = os.path.join(tmp, "in.csv")
    with open(signal, "w", encoding="ascii") as fh:
        fh.write("x,value\n")
        fh.writelines(f"{1e-3 * i!r},{(1e-3 * i) ** 2!r}\n" for i in range(400))
    for argv in (
        ["filter", "--family", "gram", "--nu", "0.5", "--N", "4",
         "-i", signal, "-o", os.path.join(tmp, "out.csv")],
        ["sweep", "--family", "jacobi", "--nu", "0.5", "--delta", "0.1",
         "-o", os.path.join(tmp, "sweep.json")],
        ["sweep", "--family", "hahn", "--nu", "0.5", "--delta", "1", "--N", "4",
         "--alpha", "0.5", "--M", "64", "--grid", "0.1:1:3:log",
         "-o", os.path.join(tmp, "hahn.txt")],
        ["metrics", "--family", "gram", "--nu", "0.5", "--delta", "1e-3", "--N", "4", "--M", "64"],
    ):
        assert cli.main(argv) == 0, argv
        # a sweep that exits 0 may still have written every point invalid
        if argv[0] == "sweep":
            path = argv[-1]
            with open(path, encoding="ascii") as fh:
                if path.endswith(".json"):
                    flags = [sample["valid"] for sample in json.load(fh)["samples"]]
                else:
                    flags = [line.split()[5] == "1" for line in fh if not line.startswith("#")]
            assert flags and all(flags), (argv, flags)
print("numpy-only smoke: ok")
