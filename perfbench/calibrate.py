"""Time a fixed numpy kernel on one CPU, once per line read from stdin.

    python perfbench/calibrate.py CPU

Pins itself to CPU, then for every line on standard input runs
``calibration_kernel`` and prints the seconds it took; exits at end of
input. ``run.py`` keeps one of these per CPU it launches work on, so the
host's speed can be read just before and just after each process.
"""

import os
import sys
import time

import numpy as np


def calibration_kernel():
    """Seconds a fixed single-threaded kernel takes now: the per-call numpy
    overhead of small FFTs and normals (as in d=1 stepping) with a share of
    128x128 FFTs and normals (as in d=2)."""
    rng = np.random.Generator(np.random.PCG64(0))
    small = np.ones(512)
    big = np.ones((128, 128))
    t0 = time.perf_counter()
    for i in range(9000):
        small = np.fft.irfft(np.fft.rfft(small + rng.standard_normal(512))
                             * 0.5, n=512)
        if i % 25 == 0:
            big = np.fft.irfft2(np.fft.rfft2(big + rng.standard_normal(
                big.shape)) * 0.5, s=big.shape)
    return time.perf_counter() - t0


def main():
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for _ in sys.stdin:
        print(repr(calibration_kernel()), flush=True)


if __name__ == "__main__":
    main()
