"""The reference task: a fixed piece of work that does not use fracfilt.

The shared host this benchmark was tuned on changes speed by up to 1.6x
for minutes at a time, and every op, import and loop slows with it.  A
run therefore times this task before each op and reports op latencies as
multiples of its median over the run.  A run in a slow period and one in
a fast period then read alike, while a change to fracfilt moves the op
times and not the reference.  The task mixes what the ops spend their
time on: interpreted float arithmetic, scalar scipy.special calls and
numpy calls on a few thousand elements.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

_RNG = np.random.default_rng(0)
_X = _RNG.uniform(0.1, 0.9, 200)
_V = _RNG.standard_normal(4096)


def task() -> float:
    s = 0.0
    for x in _X:
        s += float(special.hyp2f1(0.5, x, 2.5, 0.9 * x)) + math.lgamma(10.0 * x)
        s += float(special.gamma(x + 3.0))
        s += float(np.dot(np.cumprod(1.0 + 1e-4 * _V), _V))
        for k in range(2000):
            s += math.exp(-k * x) * math.cos(k * x)
    return s


class ReferenceSampler:
    """Times the reference task once per call; one untimed warm-up."""

    def __init__(self) -> None:
        self.times: list[float] = []
        task()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        task()
        self.times.append(time.perf_counter() - t0)
