"""Comparison splitting methods sharing the operator and trace machinery.

Five classical iterations for ``0 in A(u) + B(u)``, each a row of the
method table of :mod:`mvisolve.solver`: an anchor, a point and an update
rule, and the settings the row reads, with their defaults.
:func:`run_baseline` runs a row through the same step, driver, stopping
rules and trace schema as the inertial contraction solver, so benchmark
tables compare like with like.  One step of a method is
``run_baseline(..., max_iters=1)``.

``fb``     forward-backward: ``u_next = J(u - lam*B(u), lam)``.
``tseng``  forward-backward-forward: the forward-backward point plus the
           correction ``-lam*(B(v) - B(u))``, step from the Armijo search.
``zw``     projection-contraction: forward-backward point from ``u``, then
           the relaxed contraction update (no inertia), at the step
           schedule or the Armijo step.
``tc``     inertial viscosity scheme: adaptive inertia capped by
           ``eps_k / ||u_k - u_{k-1}||``, a contraction step with scalar
           ``(1 - mu) * ||w - v||^2 / ||phi||^2``, then averaging with a
           contraction ``f``.
``jx``     projection-type method for variational inequalities over a
           convex set (the resolvent is a metric projection); identical to
           ``zw`` with relaxation 1 and Armijo steps.

:func:`run_baseline` runs its steps under the one ``np.errstate`` of its
run loop, so an overflow ends the run with a named status and no warning.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .linesearch import LineSearchParams
from .solver import _METHODS, IterationTrace, StoppingRule, _drive, _Row, _step

__all__ = ["BaselineConfig", "run_baseline"]


#: the settings a trace labels, where its method reads them
_LABELLED = ("gamma", "lambda_mode", "mu_tc")


def _entry_of(method: str, lambda_mode: Optional[str]) -> str:
    """The row of :data:`~mvisolve.solver._METHODS` for ``method``; ``zw`` runs ``schedule`` unless told otherwise."""
    if method == "zw":
        entry = f"zw[{'schedule' if lambda_mode is None else lambda_mode}]"
        if entry not in _METHODS:
            raise ValueError("lambda_mode must be 'schedule' or 'armijo'")
        return entry
    # ifb runs through solve, and zw's two rows are reached through lambda_mode only
    if method not in _METHODS or method == "ifb" or method.startswith("zw["):
        raise ValueError(f"unknown baseline method {method!r}")
    return method


@dataclass(frozen=True)
class BaselineConfig:
    """Method selector plus the settings its step reads.

    A setting left at ``None`` takes its method's default from its row of
    :data:`~mvisolve.solver._METHODS`; giving one that the method does not
    read raises, and so do a step ``lam`` that is a constant but not
    positive and finite, and a relaxation, ``mu_tc`` or ``tc``'s inertia
    bound ``theta`` out of range (``theta`` in ``[0, 1)``, as for
    :class:`~mvisolve.solver.InertiaSchedule`).  The
    defaults follow the standard benchmark settings: ``zw`` runs the step
    schedule ``lam_k = k/(k+1)`` with relaxation 0.5 (an ``armijo`` step
    mode is available for forward maps without a global Lipschitz
    constant), ``tc`` uses search start 2, halving, ``mu = 0.5``,
    relaxation 1 and inertia bound 0.5, with the fixed ``alpha_k = 1/(k+1)``,
    ``eps_k = 100/(k+1)^2`` and contraction ``f(x) = x/2``.  Every search
    restarts at ``j = 0``, so ``armijo.warm_start`` must stay off.
    """

    method: str = "fb"
    # fb / zw (schedule mode): constant value or callable k -> lam
    lam: Union[float, Callable[[int], float], None] = None
    lambda_mode: Optional[str] = None  # zw only: "schedule" | "armijo"
    gamma: Optional[float] = None  # zw / tc relaxation
    armijo: Optional[LineSearchParams] = None
    mu_tc: Optional[float] = None
    theta: Optional[float] = None  # tc inertia bound
    label: Optional[str] = None
    #: the method's row of the method table, resolved once
    _entry: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entry = _entry_of(self.method, self.lambda_mode)
        object.__setattr__(self, "_entry", entry)
        settings = _METHODS[entry][3]
        for name in ("lam", "lambda_mode", "gamma", "armijo", "mu_tc", "theta"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, settings.get(name))
            elif name not in settings:
                raise ValueError(f"baseline {entry!r} does not read {name!r}; it reads {', '.join(settings)}")
        if self.lam is not None and not callable(self.lam):
            self.lam_at(1)  # a constant step is every step's
        if self.armijo is not None and self.armijo.warm_start:
            raise ValueError("armijo.warm_start must be False: every baseline search restarts at j = 0")
        if self.gamma is not None and not 0.0 < self.gamma < 2.0:
            raise ValueError("relaxation gamma must lie in (0, 2)")
        if self.mu_tc is not None and not 0.0 <= self.mu_tc < 1.0:
            raise ValueError("mu_tc must lie in [0, 1)")
        if self.theta is not None and not 0.0 <= self.theta < 1.0:
            raise ValueError("inertia bound theta must lie in [0, 1)")

    def lam_at(self, k: int) -> float:
        lam = self.lam(k) if callable(self.lam) else float(self.lam)
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError(f"step lam_{k} = {lam} must be positive and finite")
        return lam

    def _row(self) -> _Row:
        """This method's row of the method table with these settings, for one run."""
        # jx relaxes by 1; fb and tseng read no gamma
        gamma = 1.0 if self.gamma is None else self.gamma
        return _Row(self._entry, self.theta, self.armijo, self.lam_at, gamma, self.mu_tc)


def run_baseline(
    cfg: BaselineConfig,
    problem,
    u0: np.ndarray,
    u1: np.ndarray,
    stop: StoppingRule,
    max_iters: int = 1000,
    check_invariants: bool = False,
) -> tuple[np.ndarray, IterationTrace]:
    """Iterate a baseline method with the shared stopping/tracing semantics.

    ``u0`` is only consumed by the inertial ``tc`` method; the others start
    from ``u1``.  The trace labels those of ``gamma``, ``lambda_mode`` and
    ``mu_tc`` that the method reads.
    """
    return _drive(
        functools.partial(_step, cfg._row()),
        problem,
        u0,
        u1,
        stop,
        max_iters,
        method=cfg.label or cfg._entry,
        labels={name: getattr(cfg, name) for name in _LABELLED if name in _METHODS[cfg._entry][3]},
        check_invariants=check_invariants,
    )
