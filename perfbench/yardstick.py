"""A fixed numpy yardstick of host speed, timed before every cell.

A shared host's speed can drift by tens of percent within minutes (another
tenant on a sibling hyperthread, memory bandwidth taken by a neighbour),
and no statistic over one 30-second run can hide that.  So every cell of a
pass is preceded by this yardstick: a fixed forward-backward-like step
repeated ``ITERATIONS`` times, in plain numpy on seeded random data of the
cell's problem shapes.  It calls no mvisolve code, so no change to the
library moves it; it moves only with the host.

End-to-end timings are reported at reference host speed: measured seconds
times ``REFERENCE_S / yardstick seconds``.  On the host below they read as
wall seconds; elsewhere they are a fixed multiple of the host's speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ITERATIONS = {"gemv": 200, "elementwise": 300}
PYTHON_CALLS = 100  # interpreter work per step, standing in for the solvers' bookkeeping

# Median yardstick seconds on the host the benchmark was defined on:
# 2 vCPU x86_64, Python 3.11, numpy 2.4, OpenBLAS 0.3.31 with 2 threads.
REFERENCE_S = {
    "gemv-256x512": 0.0139,
    "gemv-512x1024": 0.0477,
    "elementwise-1001": 0.0104,
}


def _call(a, b):
    return a * b + 1.0


class Yardstick:
    def __init__(self, problem):
        rng = np.random.default_rng(20260417)
        meta = problem.metadata
        if problem.family in ("cs", "lpa"):
            m, d = meta["m"], meta["d"]
            self.key = f"gemv-{m}x{d}"
            self.matrix = rng.standard_normal((m, d))
            self.rhs = rng.standard_normal(m)
            self.iterations = ITERATIONS["gemv"]
        else:
            d = meta["n"]
            self.key = f"elementwise-{d}"
            self.matrix = None
            self.iterations = ITERATIONS["elementwise"]
        self.u = 0.1 * rng.standard_normal(d)
        self.weights = np.full(d, 1.0 / d)
        self.recent: list[float] = []

    def seconds(self) -> float:
        """Time one yardstick: the same arithmetic every call, at the same point."""
        M, u, w = self.matrix, self.u, self.weights
        t0 = time.perf_counter()
        for _ in range(self.iterations):
            if M is None:
                g = u * np.log1p(np.abs(u))
            else:
                r = M @ u - self.rhs
                g = float(r @ r) * (M.T @ r)
            x = u - 1e-3 * g
            d = np.sign(x) * np.maximum(np.abs(x) - 1e-3, 0.0) - u
            acc = float((w * d) @ d)
            for _ in range(PYTHON_CALLS):
                acc = _call(acc, 0.5)
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor from measured seconds to seconds at reference host speed, read now.

        A single reading can catch a momentary stall that the cell after it
        does not see, so the factor uses the median of the last three.
        """
        self.recent = (self.recent + [self.seconds()])[-3:]
        return REFERENCE_S[self.key] / statistics.median(self.recent)


def joint_scale(sticks) -> float:
    """One factor for work that spans every problem, such as set-up: the median of seven readings."""
    reference = sum(REFERENCE_S[s.key] for s in sticks)
    return statistics.median(reference / sum(s.seconds() for s in sticks) for _ in range(7))
