"""Timing at a fixed reference speed.

The benchmark's host changes speed by up to 1.6x every few seconds (a
2-vCPU guest whose cores are shared with other guests), so wall times of
the same operation differ by 20-40% between runs. Each timing is therefore
scaled by REF_NOMINAL_S over the time of a fixed calibration loop measured
right before and right after it: a reading is the operation's seconds on a
host where the loop takes REF_NOMINAL_S.
"""

from __future__ import annotations

import time

import numpy as np

# Calibration-loop seconds on the reference host (fast state, one BLAS thread).
REF_NOMINAL_S = 0.009
_A = np.random.default_rng(0).random((48, 48)) + 0j
_A @ _A  # loads BLAS before the first timed call


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and BLAS work, about 9 ms."""
    t0 = time.perf_counter()
    s = 0
    for j in range(100_000):
        s += j * j
    for _ in range(60):
        _A @ _A
    return time.perf_counter() - t0


class Stopwatch:
    """Raw and reference-speed seconds of one timed region."""

    def __enter__(self):
        self._ref = calibrate()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = time.perf_counter() - self._t0
        ref = 0.5 * (self._ref + calibrate())
        self.seconds = self.raw * REF_NOMINAL_S / ref
        return False
