"""A fixed reference kernel that measures how fast the host runs right now.

The machines this benchmark runs on share their cores with other tenants, and
their speed drifts by up to 2x over seconds to minutes.  Every timing the
benchmark reports is therefore taken relative to this kernel, timed between
operations: a time ``t`` measured while the kernel takes ``k`` seconds is
reported as ``t * REFERENCE_S / k``, the time it would have taken while the
kernel took ``REFERENCE_S``.  The kernel does what the program does (small
numpy calls, eigenvalues of 3x3 matrices, cubic roots, interpreted float
arithmetic, many small short-lived objects) and touches none of the
program's code, so a change to the program cannot change it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from bisect import bisect_right

import numpy as np

# Median kernel time on the machine the benchmark was tuned on (2-vCPU
# Intel Xeon virtual machine, Python 3.11, numpy 2), in a quiet period.
# It only sets the scale of the reported times.
REFERENCE_S = 0.015
# Calibrate again once this much operation time has passed.
INTERVAL_S = 0.25
# Calibrations on each side of an operation that set its speed factor.
NEIGHBOURS = 3

_MATRICES = np.random.default_rng(0).standard_normal((150, 3, 3))


def _kernel() -> float:
    acc = 0.0
    for m in _MATRICES:
        acc += float(np.abs(np.linalg.eigvals(m)).sum())
        acc += float(np.abs(np.roots((1.0, m[0, 0], m[0, 1], m[0, 2]))).sum())
    for k in range(30000):
        acc += math.sqrt(k) * 1.0001
    records = []
    for k in range(6000):
        records.append(({"w": k * 0.5, "pair": (k, k + 1.0), "tag": str(k)}, [k, k * 2.0]))
    records.sort(key=lambda r: -r[0]["w"])
    return acc + records[0][0]["w"]


def time_kernel() -> float:
    """Seconds one run of the kernel takes now, with the collector paused.

    The collector is paused so that garbage the program left behind is not
    collected, and charged, inside the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Kernel timings interleaved with a sequence of operations."""

    def __init__(self):
        self.positions: list[int] = []   # operations finished before each calibration
        self.seconds: list[float] = []
        self._since = math.inf

    def calibrate(self, position: int) -> None:
        self.positions.append(position)
        self.seconds.append(time_kernel())
        self._since = 0.0

    def before(self, position: int) -> None:
        """Calibrate before operation ``position`` if enough time has passed."""
        if self._since >= INTERVAL_S:
            self.calibrate(position)

    def after(self, elapsed: float) -> None:
        self._since += elapsed

    def factor(self, position: int) -> float:
        """REFERENCE_S over the median of the calibrations nearest operation ``position``."""
        split = bisect_right(self.positions, position)
        near = self.seconds[max(0, split - NEIGHBOURS):split + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)

    def speed(self) -> float:
        """Host speed over the whole sequence, relative to the reference."""
        return REFERENCE_S / statistics.median(self.seconds)
