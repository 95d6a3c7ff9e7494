"""Timers that sit outside the library: wrappers around the injected objects.

A traced pass hands the solvers a copy of each problem whose ``forward``,
``resolvent`` and ``space`` are wrapped here.  The wrappers count calls and
accumulate the nanoseconds spent inside the wrapped call; they return the
wrapped object's result unchanged, so iterates and counters are bitwise the
same as in an untraced pass (the determinism check in ``panel`` verifies
this on every run).
"""

from __future__ import annotations

import dataclasses
from time import perf_counter_ns

import numpy as np


class Meter:
    """Call count and busy nanoseconds of one layer."""

    __slots__ = ("calls", "ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0

    @property
    def seconds(self) -> float:
        return self.ns / 1e9


def _timed(fn, meter: Meter):
    def call(*args):
        t0 = perf_counter_ns()
        out = fn(*args)
        meter.ns += perf_counter_ns() - t0
        meter.calls += 1
        return out

    return call


class TimedSpace:
    """Duck-typed stand-in for ``InnerProductSpace`` that times every inner product.

    ``inner``, ``norm`` and ``norm2`` each cost one inner product and count
    as one call; ``check_member`` is input validation and is left untimed
    (it lands in the solver's self time).
    """

    def __init__(self, base, meter: Meter):
        self.dimension = base.dimension
        self.weights = base.weights
        self.label = base.label
        self.check_member = base.check_member
        self.inner = _timed(base.inner, meter)
        self.norm = _timed(base.norm, meter)
        self.norm2 = _timed(base.norm2, meter)


def is_weighted(space) -> bool:
    return not bool(np.all(space.weights == 1.0))


class LayerMeters:
    """The meters of one traced pass, shared by every problem of the pass.

    The forward map is metered per problem so that the computed flops and
    bytes can weight each problem's shapes by its own call count.
    """

    def __init__(self):
        self.resolvent = Meter()
        self.plain = Meter()
        self.weighted = Meter()
        self._forwards: list[tuple[tuple[int, int], Meter]] = []

    def instrument(self, problem):
        """A copy of ``problem`` whose injected objects report to these meters."""
        forward = Meter()
        self._forwards.append((forward_cost(problem), forward))
        space_meter = self.weighted if is_weighted(problem.space) else self.plain
        return dataclasses.replace(
            problem,
            forward=_timed(problem.forward, forward),
            resolvent=_timed(problem.resolvent, self.resolvent),
            space=TimedSpace(problem.space, space_meter),
        )

    @property
    def forward(self) -> Meter:
        total = Meter()
        for _, m in self._forwards:
            total.calls += m.calls
            total.ns += m.ns
        return total

    @property
    def forward_flops(self) -> int:
        return sum(cost[0] * m.calls for cost, m in self._forwards)

    @property
    def forward_bytes(self) -> int:
        return sum(cost[1] * m.calls for cost, m in self._forwards)


def forward_cost(problem) -> tuple[int, int]:
    """Computed (flops, bytes) of one forward evaluation, from the array shapes.

    Counting rule: a matrix-vector product costs ``2*m*d`` flops; every
    elementwise numpy operation (``log1p`` and ``**`` included) costs one
    flop per element; every numpy operation reads each operand and writes
    its result once, 8 bytes per float64.  Cache reuse is ignored, so the
    bytes are an upper bound on memory traffic, not a measurement.
    """
    meta = problem.metadata
    if problem.family == "cs":  # r = C@u - v; (r@r) * (C.T@r)
        m, d = meta["m"], meta["d"]
        return 4 * m * d + 3 * m + d, 8 * (2 * m * d + 7 * m + 4 * d)
    if problem.family == "lpa":  # Q.T@(Q@u - q) + mu*alpha*sign(u)*|u|**(alpha-1)
        m, d = meta["m"], meta["d"]
        return 4 * m * d + m + 6 * d, 8 * (2 * m * d + 5 * m + 16 * d)
    if problem.family == "l2":  # u * log1p(|u|)
        n = meta["n"]
        return 3 * n, 8 * 7 * n
    raise ValueError(f"no cost model for family {problem.family!r}")
