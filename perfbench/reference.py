"""A fixed reference kernel that measures how fast the machine runs right now.

The 2-vCPU Xeon virtual machine this benchmark was tuned on changes speed by
up to 1.7x, sometimes for seconds and sometimes for minutes. Pure-Python and
small numpy work slow down alike. Run-to-run medians of raw wall times
therefore spread by up to 21%, however long a run is. The benchmark samples this
kernel before and after every set-up and every CLI command of a pass. It
reports each timing scaled by REF_S over the mean of the two samples, so a
timing reads as on the same machine at the speed where the kernel takes
REF_S. The kernel uses no moltext code, so no change to the package can move
it. The detail line keeps the raw seconds and every kernel sample.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

# median kernel seconds in that machine's fast state (numpy 2.4.6, OpenBLAS 0.3.31)
REF_S = 0.030
_REPEATS = 2


def _kernel() -> float:
    table: dict[int, int] = {}
    acc = 0
    for i in range(60000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        acc ^= key
    a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    for _ in range(600):
        a = np.tanh(a @ a.T * 0.01 + 0.5)
    return acc + float(a.sum())


def sample() -> float:
    """Kernel seconds on each CPU this process may use, averaged over the CPUs.

    The CPUs can run at different speeds; multi-threaded commands such as a
    threaded index build use all of them, and the scheduler moves a single
    thread between them.
    """
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(_REPEATS):
                start = perf_counter()
                _kernel()
                times.append(perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


class Meter:
    """Scales timings by kernel samples taken right before and right after them."""

    def __init__(self):
        self.samples = [sample()]

    def scale(self, seconds: float) -> float:
        """Sample the kernel now; return `seconds` scaled by the samples on either side."""
        self.samples.append(sample())
        return seconds * REF_S / statistics.fmean(self.samples[-2:])

    def time(self, fn) -> tuple[float, float]:
        """Run fn; return its raw and its scaled seconds."""
        start = perf_counter()
        fn()
        seconds = perf_counter() - start
        return seconds, self.scale(seconds)
