"""Host-speed calibration: scales measured times to a reference host speed.

The 2-vCPU host these figures come from (Intel Xeon) shares its cores with
other tenants, and its speed swings: for stretches of 5 s to several minutes
the same code runs 1.3 to 1.6 times slower, and CPU time slows with wall
time (the process is not descheduled, it runs slower).  A run cannot wait such a
stretch out, so the benchmark times a fixed kernel every CALIBRATE_EVERY_S
seconds of request time and scales each measured time by

    REFERENCE_S / (median kernel time of the NEAREST samples in time)

The kernel runs no compext code, so a change to the program moves the scaled
times as much as the measured ones.  It is half LAPACK (complex eig at a
size whose working set, like the Sylvester probe's, sits in L2) and half
interpreter loop, because the slow stretches slow LAPACK code by about 1.55x
and interpreted Python by about 1.35x, and the workloads mix the two.
REFERENCE_S is the kernel's time on the reference host when it is not
slowed; on a steady host whose kernel time equals it, scaled and measured
times agree.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.009  # kernel median on the reference host (Xeon, 2 vCPUs), not slowed
CALIBRATE_EVERY_S = 0.25  # seconds of request time between kernel samples
NEAREST = 3  # kernel samples that set the speed at one instant

_MATRIX = np.random.default_rng(20240327).standard_normal((64, 64)) * (1 + 0.5j)


def kernel() -> None:
    """The fixed calibration work: about 9 ms on the reference host."""
    np.linalg.eig(_MATRIX)
    s = 0
    for i in range(60000):
        s += i * i % 7


class HostSpeed:
    """Kernel samples over a run, and the scale they give at any instant."""

    def __init__(self, warm: int = NEAREST):
        self.marks = []  # (midpoint, kernel seconds), in time order
        self._last_busy = 0.0
        for _ in range(warm):
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.marks.append(((t0 + t1) / 2, t1 - t0))

    def tick(self, busy: float) -> None:
        """Sample once per CALIBRATE_EVERY_S of request time."""
        if busy - self._last_busy >= CALIBRATE_EVERY_S:
            self._last_busy = busy
            self.sample()

    def scaled(self, sends: list) -> list:
        """Each (midpoint, seconds) as scaled seconds."""
        return [dt * self.scale(mid) for mid, dt in sends]

    def scale(self, at: float) -> float:
        """REFERENCE_S over the host's kernel time around instant `at`."""
        mids = [m for m, _ in self.marks]
        i = bisect.bisect_left(mids, at)
        lo, hi = max(0, i - NEAREST), min(len(mids), i + NEAREST)
        near = sorted(range(lo, hi), key=lambda j: abs(mids[j] - at))[:NEAREST]
        return REFERENCE_S / statistics.median(self.marks[j][1] for j in near)
