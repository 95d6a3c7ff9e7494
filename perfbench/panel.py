"""The workload panels, one solve of one cell, and the correctness gate.

Every solve goes through the public entry points ``mvisolve.solve`` and
``mvisolve.run_baseline``; the solver options mirror ``demos/specs/*.json``
and invariant checking is on unless a pass turns it off on purpose.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

import mvisolve as mv


@dataclass(frozen=True)
class Solver:
    label: str
    method: str
    options: dict = field(default_factory=dict)


IFB = Solver("ifb", "ifb")
IFB_WARM = Solver("ifb-warm", "ifb", {"warm_start": True})
FB = Solver("fb", "fb", {"lam": 0.5})
TSENG = Solver("tseng", "tseng")
ZW_ARMIJO = Solver("zw-armijo", "zw", {"lambda_mode": "armijo", "gamma": 1.0})
TC = Solver("tc", "tc")

LABELS = tuple(s.label for s in (IFB, IFB_WARM, FB, TSENG, ZW_ARMIJO, TC))


@dataclass(frozen=True)
class Workload:
    name: str
    generators: Callable[[int], list]  # seed -> [(problem id, zero-argument generator)]
    solvers: tuple
    stop_kind: str
    tol: float
    max_iters: int


def _recovery(seed):
    gens = [
        (f"cs-d512m256-seed{s}", lambda s=s: mv.gen_cs(512, 256, 10, snr_db=40.0, seed=s))
        for s in (seed, seed + 1, seed + 2)
    ]
    gens.append(
        (f"cs-d1024m512-seed{seed + 2}", lambda: mv.gen_cs(1024, 512, 20, snr_db=40.0, seed=seed + 2))
    )
    return gens


def _integral(seed):
    # the l2 family has no random component: every seed gives these instances
    return [(f"l2-case{c}-n1001", lambda c=c: mv.gen_l2(c, 1001)) for c in (1, 2, 3, 4)]


def _penalty(seed):
    return [
        (f"lpa-d512m256-seed{seed}", lambda: mv.gen_lpa(512, 256, 10, seed=seed)),
        (f"lpa-d1024m512-seed{seed}", lambda: mv.gen_lpa(1024, 512, 20, seed=seed)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recovery", _recovery, (IFB, TSENG, ZW_ARMIJO, TC), "distance_to_reference", 1e-2, 300),
        Workload("integral", _integral, (IFB, FB, TSENG, ZW_ARMIJO, TC), "successive_diff", 1e-12, 600),
        Workload("penalty-warm", _penalty, (IFB_WARM,), "successive_diff", 1e-9, 400),
    )
}


def setup(wl: Workload, seed: int):
    """Generate and assemble the workload's problems; returns them with both timings."""
    t0 = time.perf_counter()
    instances = [(pid, gen()) for pid, gen in wl.generators(seed)]
    t1 = time.perf_counter()
    problems = [(pid, mv.assemble(inst)) for pid, inst in instances]
    t2 = time.perf_counter()
    return problems, t1 - t0, t2 - t1


def solve_cell(wl: Workload, solver: Solver, problem, check_invariants: bool = True, max_iters=None):
    reference = problem.reference if wl.stop_kind == "distance_to_reference" else None
    stop = mv.StoppingRule(wl.stop_kind, wl.tol, reference=reference)
    max_iters = max_iters or wl.max_iters
    if solver.method == "ifb":
        cfg = mv.SolverConfig(
            linesearch=mv.LineSearchParams(**solver.options),
            stop=stop,
            max_iters=max_iters,
            check_invariants=check_invariants,
        )
        return mv.solve(problem, problem.u0, problem.u1, cfg)
    cfg = mv.BaselineConfig(method=solver.method, label=solver.label, **solver.options)
    return mv.run_baseline(
        cfg, problem, problem.u0, problem.u1, stop, max_iters=max_iters, check_invariants=check_invariants
    )


def gate(wl: Workload, problem, u, trace) -> str:
    """Empty string if the cell passes, else why it failed.

    A converged claim is re-checked from the returned iterate against the
    instance reference (``dist2 <= tol``); a vanishing contraction
    direction claims an exact solution, so it is re-checked the same way
    when the reference is one.  The lpa family has no reference, so its
    cells are checked for status, violations and finiteness only.
    """
    status = trace.status.value
    if not np.all(np.isfinite(u)):
        return "non-finite iterate"
    if status in ("diverged", "backtrack_exhausted"):
        return f"ended {status}"
    if trace.total_violations:
        return f"invariant violations {trace.violations}"
    recheck = (status == "converged" and problem.reference is not None) or (
        status == "phi_zero" and problem.reference_is_solution
    )
    if recheck:
        dist2 = problem.space.norm2(u - problem.reference)
        if not dist2 <= wl.tol:
            return f"claims {status} but recomputed dist2 {dist2:.3g} > tol {wl.tol:g}"
    return ""


class Outcome(NamedTuple):
    """What every pass must reproduce exactly for a cell."""

    status: str
    iterations: int
    forward_evals: int
    resolvent_evals: int
    digest: str  # of the final iterate's bytes


@dataclass(frozen=True)
class CellRun:
    key: str
    label: str
    seconds: float
    outcome: Outcome
    failure: str
    trace: Optional[object]


def run_cell(wl: Workload, solver: Solver, pid: str, problem, injected, check_invariants: bool = True,
             keep_trace: bool = False) -> CellRun:
    """Solve one cell on ``injected`` (``problem`` or its timed copy) and gate it against ``problem``."""
    key = f"{pid}/{solver.label}"
    t0 = time.perf_counter()
    try:
        u, trace = solve_cell(wl, solver, injected, check_invariants)
    except Exception as exc:  # a raising solve is a counted failure, not a crash
        seconds = time.perf_counter() - t0
        return CellRun(key, solver.label, seconds, Outcome("error", 0, 0, 0, ""), f"raised {exc!r}", None)
    seconds = time.perf_counter() - t0
    outcome = Outcome(
        trace.status.value,
        trace.iterations,
        trace.total_forward_evals,
        trace.total_resolvent_evals,
        hashlib.sha1(np.ascontiguousarray(u).tobytes()).hexdigest()[:16],
    )
    return CellRun(key, solver.label, seconds, outcome, gate(wl, problem, u, trace), trace if keep_trace else None)
