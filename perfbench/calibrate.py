"""Machine-speed calibration for the benchmark's timings.

The CPU speed that one process sees on a shared 2-core VM drifts by up to
1.9x, at time scales from a fraction of a second to tens of seconds.
Process time tracks wall time, so there is no steal time to subtract. So a
fixed kernel that does not touch ffdyn runs just before every measured
interval: Fraction arithmetic plus dict, tuple and str work. A time t,
measured where the kernel took k (the mean of the runs just before and
just after t), is reported as t * REFERENCE_S / k. That is the time in
seconds at the speed at which the kernel takes REFERENCE_S.

On a steady machine the scaling is a constant factor. On the drifting one
it cut the pass-to-pass variation of a whole batch from about 10% to
1-1.6% on all three workloads. A kernel built on big-integer
multiplication tracked the drift worse, even on the big-integer-heavy
orbit-deep workload. Raw times are kept next to the scaled ones in the
run record.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0025


def kernel() -> int:
    f = Fraction(0)
    for i in range(1, 400):
        f += Fraction(i, i + 1) * Fraction(3, i + 2)
    d = {}
    for i in range(1500):
        d[(i % 97, i)] = [i, str(i)]
    s = 0
    for k, v in d.items():
        s += k[0] + len(v[1])
    return s ^ f.denominator


def timed() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(raw_s: list, kernel_s: list) -> list:
    """Scale each raw time by the mean of the kernel times measured just
    before it and just after it (the kernel runs before each measured
    interval, so the one after is the next interval's)."""
    out = []
    for i, raw in enumerate(raw_s):
        k = (kernel_s[i] + kernel_s[min(i + 1, len(kernel_s) - 1)]) / 2
        out.append(raw * REFERENCE_S / k)
    return out
