"""Every method of the method table: one step of it, as ``solve`` and ``run_baseline`` take it, or a whole run."""

from mvisolve.baselines import SETTINGS, BaselineConfig, run_baseline
from mvisolve.problems import Problem, gen_cs, gen_l2, gen_lpa
from mvisolve.solver import SolverConfig, StoppingRule, _step, solve
from mvisolve.spaces import euclidean

#: a small instance of each benchmark family
SMALL_PROBLEMS = {
    "cs": lambda: gen_cs(32, 16, 3, seed=1),
    "lpa": lambda: gen_lpa(32, 16, 3, seed=1),
    "l2": lambda: gen_l2(1, 101),
}


def one_step(cfg, k, u_prev, u_curr, forward, resolvent, space=None):
    """Step ``k`` of the method ``cfg`` selects (a ``SolverConfig`` or a ``BaselineConfig``), from a fresh row.

    The space defaults to the Euclidean space of ``u_curr``'s length.
    """
    space = euclidean(len(u_curr)) if space is None else space
    return _step(cfg._row(), k, u_prev, u_curr, Problem(forward, resolvent, space))


def every_method(prob, max_iters):
    """``{name: run}`` for ``ifb`` and each entry of ``SETTINGS``; ``run()`` returns ``(u, trace)`` of ``max_iters`` steps."""
    stop = StoppingRule("iter_cap_only")
    runs = {"ifb": lambda: solve(prob, prob.u0, prob.u1, SolverConfig(stop=stop, max_iters=max_iters))}
    for entry in SETTINGS:
        method, _, mode = entry.rstrip("]").partition("[")
        cfg = BaselineConfig(method, lambda_mode=mode or None)
        runs[entry] = lambda cfg=cfg: run_baseline(cfg, prob, prob.u0, prob.u1, stop, max_iters=max_iters)
    return runs
