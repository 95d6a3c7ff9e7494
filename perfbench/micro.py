"""Microbenchmarks of public library functions at one fixed point per workload.

The fixed point is the iterate the workload's first cell reaches after half
of its iterations, so each function sees inputs of the size and kind the
workload feeds it.  Each figure is the median over several batches, each
batch long enough to hide the clock's resolution.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import mvisolve as mv
from mvisolve.bench import emit_convergence_csv

from layers import LayerMeters
from panel import solve_cell

BATCHES = 5
BATCH_SECONDS = 0.04


def _batch_size(fn) -> int:
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= BATCH_SECONDS:
            return n
        n *= 2


def us_per_call(fn) -> float:
    n = _batch_size(fn)
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def fixed_point(wl, problem, iterations: int):
    """The first cell's iterate after ``iterations // 2`` steps, and the line search's next start."""
    solver = wl.solvers[0]
    u, trace = solve_cell(wl, solver, problem, check_invariants=False, max_iters=max(1, iterations // 2))
    j_start = max(0, trace.records[-1].j - 1) if solver.options.get("warm_start") else 0
    return u, j_start


def backtrack_self_us_per_trial(problem, w, j_start) -> float:
    """Time inside ``backtrack`` minus the wrapped operator time, per trial."""
    params = mv.LineSearchParams()
    n = _batch_size(lambda: mv.backtrack(w, problem.forward, problem.resolvent, params, problem.space, j_start))
    samples = []
    for _ in range(BATCHES):
        meters = LayerMeters()
        timed = meters.instrument(problem)
        t0 = time.perf_counter_ns()
        for _ in range(n):
            mv.backtrack(w, timed.forward, timed.resolvent, params, problem.space, j_start)
        wall = time.perf_counter_ns() - t0
        ops = meters.forward.ns + meters.resolvent.ns
        samples.append((wall - ops) / meters.resolvent.calls / 1e3)
    return statistics.median(samples)


def emit_us_per_row(traces, workdir: Path) -> float:
    """``emit_convergence_csv`` over the given traces, in microseconds per written row."""
    rows = sum(t.iterations for t in traces)
    samples = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir) as tmp:
        for _ in range(BATCHES):
            t0 = time.perf_counter()
            for i, trace in enumerate(traces):
                emit_convergence_csv(trace, Path(tmp) / f"{i}.csv")
            samples.append((time.perf_counter() - t0) / rows)
    return statistics.median(samples) * 1e6


def run_all(wl, problem, iterations: int, traces, workdir: Path) -> dict:
    """Per-call microseconds of each public function, keyed by metric name."""
    w, j_start = fixed_point(wl, problem, iterations)
    cfg = mv.SolverConfig()
    ls = mv.backtrack(w, problem.forward, problem.resolvent, cfg.linesearch, problem.space, j_start)
    plain = mv.euclidean(len(w))
    weighted = mv.trapezoid_unit_interval(len(w))
    return {
        "linesearch.self_us_per_trial": backtrack_self_us_per_trial(problem, w, j_start),
        "solver.contraction_update_us": us_per_call(
            lambda: mv.contraction_update(
                w, ls.v, ls.b_w, ls.b_v, ls.lam, cfg.gamma, problem.space, cfg.phi_zero_tol
            )
        ),
        "operators.soft_threshold_us": us_per_call(lambda: mv.soft_threshold(w, ls.lam)),
        "spaces.plain.micro_us_per_inner": us_per_call(lambda: plain.inner(w, ls.v)),
        "spaces.weighted.micro_us_per_inner": us_per_call(lambda: weighted.inner(w, ls.v)),
        "bench.emit_us_per_row": emit_us_per_row(traces, workdir),
    }
