"""One step of a method, taken through the method table as ``solve`` and ``run_baseline`` take it."""

from mvisolve.problems import Problem
from mvisolve.solver import _step
from mvisolve.spaces import euclidean


def one_step(cfg, k, u_prev, u_curr, forward, resolvent, space=None):
    """Step ``k`` of the method ``cfg`` selects (a ``SolverConfig`` or a ``BaselineConfig``), from a fresh row.

    The space defaults to the Euclidean space of ``u_curr``'s length.
    """
    space = euclidean(len(u_curr)) if space is None else space
    return _step(cfg._row(), k, u_prev, u_curr, Problem(forward, resolvent, space))
