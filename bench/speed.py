"""Machine-speed calibration for the benchmark's timings.

The cores of a shared sandbox are not steady: for stretches of seconds to
minutes a co-tenant slows all Python code by up to about 2x.  A fixed
pure-Python kernel, timed next to the measured work, slows by the same
factor.  On the reference sandbox (2 vCPUs, Intel Xeon), the ratio of a
solve's time to the kernel's time moved by 2% over two minutes in which the
median solve time itself moved by 20%.

Timings are therefore reported scaled by ``REFERENCE_S / kernel time``: in
seconds of the reference sandbox when nothing else runs on it.  The kernel
is part of the benchmark, not of marketopt, so a change to marketopt cannot
change it.
"""

from __future__ import annotations

import math
import statistics
import time

# Kernel time on the reference sandbox, idle (fastest of many samples).
REFERENCE_S = 0.0096
STEPS = 6000
REPEATS = 3


def kernel(steps: int = STEPS) -> float:
    """Scalar RK4 on a three-compartment toy system: the same kind of work
    (float arithmetic, calls and tuples in the interpreter) as the solver."""
    h = 1e-3
    x, y, z, t = 0.01, 0.09, 0.9, 0.0

    def f(x, y, z, t):
        spread = (0.5 + 0.5 * math.sin(t)) * x * z
        return (0.1 * y - 0.2 * x + spread, 0.2 * x - 0.15 * y, 0.05 * y - spread)

    for _ in range(steps):
        a = f(x, y, z, t)
        b = f(x + 0.5 * h * a[0], y + 0.5 * h * a[1], z + 0.5 * h * a[2], t + 0.5 * h)
        c = f(x + 0.5 * h * b[0], y + 0.5 * h * b[1], z + 0.5 * h * b[2], t + 0.5 * h)
        d = f(x + h * c[0], y + h * c[1], z + h * c[2], t + h)
        x += h / 6.0 * (a[0] + 2.0 * (b[0] + c[0]) + d[0])
        y += h / 6.0 * (a[1] + 2.0 * (b[1] + c[1]) + d[1])
        z += h / 6.0 * (a[2] + 2.0 * (b[2] + c[2]) + d[2])
        t += h
    return x + y + z


def sample() -> float:
    """Median time of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
