"""Recovering a half derivative from noisy samples.

The plain backward-difference filter weighs the newest samples with O(1)
coefficients divided by delta^nu, so sample noise passes straight
through, amplified.  The windowed filters average over 2N+1 points
first, paying a truncation bias that grows with the window.  Which side
wins depends on the noise floor, so the table below runs both a clean
and a noisy record of f(x) = x^2.
"""

import math

import numpy as np

from fracfilt import SampledSignal, filter_signal, gl_weights, gram_n1_weights

DELTA = 1e-2
COEFF = math.gamma(3.0) / math.gamma(2.5)
WINDOWS = (2, 8, 32)


def rms(errors):
    return float(np.sqrt(np.mean(np.square(errors))))


def main():
    count = round(2.4 / DELTA) + 1
    x = np.arange(count) * DELTA
    probes = np.array([round(xi / DELTA) for xi in np.arange(1.0, 1.81, 0.05)])
    exact = COEFF * (probes * DELTA) ** 1.5

    print(f"rms error of d^0.5 x^2 over x in [1.0, 1.8], delta = {DELTA:g}")
    print("  sigma      gl        " + "".join(f"N={N:<7}" for N in WINDOWS))
    for sigma in (1e-3, 3e-2):
        rng = np.random.default_rng(7)
        noisy = x * x + sigma * rng.standard_normal(count)
        signal = SampledSignal(x0=0.0, delta=DELTA, samples=noisy, causal=True)
        designs = [gl_weights(0.5, count, DELTA)]
        designs += [gram_n1_weights(N, 0.5, DELTA, M=200) for N in WINDOWS]
        cells = [rms(filter_signal(signal, w)[0][probes] - exact) for w in designs]
        print(f"  {sigma:<8g}" + "".join(f"{c:.2e}  " for c in cells))
    print()
    print("clean record: nothing beats the plain difference.  at three")
    print("percent noise the N = 8 window halves the error while the")
    print("longest window is already all truncation bias at this step.")


if __name__ == "__main__":
    main()
