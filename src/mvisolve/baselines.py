"""Comparison splitting methods sharing the operator and trace machinery.

Five classical iterations for ``0 in A(u) + B(u)``, each exposed both as a
single-step function and through :func:`run_baseline`, which reuses the
same driver, stopping rules and trace schema as the inertial contraction
solver so benchmark tables compare like with like.

``fb``     forward-backward: ``u_next = J(u - lam*B(u), lam)``.
``tseng``  forward-backward-forward: the forward-backward point plus the
           correction ``-lam*(B(v) - B(u))``, step from the Armijo search.
``zw``     projection-contraction: forward-backward point from ``u``, then
           the relaxed contraction update (no inertia).
``tc``     inertial viscosity scheme: adaptive inertia capped by
           ``eps_k / ||u_k - u_{k-1}||``, a contraction step with scalar
           ``(1 - mu) * ||w - v||^2 / ||phi||^2``, then averaging with a
           contraction ``f``.
``jx``     projection-type method for variational inequalities over a
           convex set (the resolvent is a metric projection); identical to
           ``zw`` with relaxation 1 and Armijo steps.

Called directly, the single steps follow the caller's floating-point error
state; :func:`run_baseline` runs them under the one ``np.errstate`` of
its run loop, so an overflow ends the run with a named status and no
warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .linesearch import LineSearchOutcome, LineSearchParams, _require_finite
from .solver import (
    _PHI_ZERO_TOL,
    IterationTrace,
    StepOutcome,
    StoppingRule,
    _anchored_search,
    _contraction_step,
    _direction,
    _drive,
    _guard_iterate,
)
from .spaces import InnerProductSpace, euclidean

__all__ = [
    "BaselineConfig",
    "fb_step",
    "tseng_step",
    "zw_step",
    "tc_step",
    "jx_step",
    "run_baseline",
]

def _default_half_contraction(x):
    return 0.5 * x


def _tc_alpha(k):
    """The viscosity weight ``alpha_k = 1/(k+1)`` of ``tc``."""
    return 1.0 / (k + 1.0)


def _tc_eps(k):
    """The inertia allowance ``eps_k = 100/(k+1)^2`` of ``tc``."""
    return 100.0 / (k + 1.0) ** 2


#: The settings each step of :func:`run_baseline` reads, with their defaults;
#: ``zw`` has one entry per ``lambda_mode``.  :class:`BaselineConfig` fills
#: its defaults from here and rejects a setting its entry does not name, and
#: the benchmark spec accepts these keys (``armijo`` as the search fields).
SETTINGS = {
    "fb": {"lam": 0.01},
    "tseng": {"armijo": LineSearchParams()},
    "zw[schedule]": {"lambda_mode": "schedule", "lam": lambda k: k / (1.0 + k), "gamma": 0.5},
    "zw[armijo]": {"lambda_mode": "armijo", "armijo": LineSearchParams(), "gamma": 0.5},
    "tc": {"armijo": LineSearchParams(s=2.0, mu=0.5, sigma=0.5), "gamma": 1.0, "mu_tc": 0.5, "theta": 0.5},
    "jx": {"armijo": LineSearchParams()},
}

#: the settings a trace labels, where its method reads them
_LABELLED = ("gamma", "lambda_mode", "mu_tc")


def _entry(method: str, lambda_mode: Optional[str]) -> str:
    """The key of :data:`SETTINGS` for ``method``; ``zw`` runs ``schedule`` unless told otherwise."""
    if method == "zw":
        entry = f"zw[{'schedule' if lambda_mode is None else lambda_mode}]"
        if entry not in SETTINGS:
            raise ValueError("lambda_mode must be 'schedule' or 'armijo'")
        return entry
    if method not in SETTINGS:
        raise ValueError(f"unknown baseline method {method!r}")
    return method


@dataclass(frozen=True)
class BaselineConfig:
    """Method selector plus the settings its step reads.

    A setting left at ``None`` takes its method's default from
    :data:`SETTINGS`; giving one that the method does not read raises.  The
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

    def __post_init__(self):
        entry = _entry(self.method, self.lambda_mode)
        settings = SETTINGS[entry]
        for name in ("lam", "lambda_mode", "gamma", "armijo", "mu_tc", "theta"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, settings.get(name))
            elif name not in settings:
                raise ValueError(f"baseline {entry!r} does not read {name!r}; it reads {', '.join(settings)}")
        if self.armijo is not None and self.armijo.warm_start:
            raise ValueError("armijo.warm_start must be False: every baseline search restarts at j = 0")
        if self.gamma is not None and not 0.0 < self.gamma < 2.0:
            raise ValueError("relaxation gamma must lie in (0, 2)")
        if self.mu_tc is not None and not 0.0 <= self.mu_tc < 1.0:
            raise ValueError("mu_tc must lie in [0, 1)")

    def lam_at(self, k: int) -> float:
        lam = self.lam(k) if callable(self.lam) else float(self.lam)
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError(f"step lam_{k} = {lam} must be positive and finite")
        return lam

    def display_label(self) -> str:
        return self.label or _entry(self.method, self.lambda_mode)


# ---------------------------------------------------------------------------
# single steps


def _forward_backward(u, lam, forward, resolvent) -> tuple[np.ndarray, np.ndarray]:
    """``(B(u), J(u - lam*B(u), lam))`` at a fixed step, with the line search's finiteness checks and messages.

    A non-finite value raises :class:`NonFiniteIterate`; an overflow on the
    way follows the floating-point error state of the caller, which
    :func:`run_baseline` keeps silent.
    """
    b_u = _require_finite(forward(u), "B(w)", np.shape(u))
    return b_u, _require_finite(resolvent(u - lam * b_u, lam), "J(w - lam*B(w))", b_u.shape)


def fb_step(u, lam, forward, resolvent, space=None) -> tuple[np.ndarray, StepOutcome]:
    """Forward-backward step ``J(u - lam*B(u), lam)`` at a fixed step size."""
    if space is None:
        space = euclidean(len(u))
    b_u, u_next = _forward_backward(u, lam, forward, resolvent)
    _guard_iterate(u_next, "forward-backward iterate")
    point = LineSearchOutcome(lam, -1, u_next, b_u, None, resolvent_evals=1, forward_evals=1)
    return u_next, StepOutcome(u_next, point, space.norm(u - u_next))


def tseng_step(u, forward, resolvent, armijo: LineSearchParams, space=None) -> tuple[np.ndarray, StepOutcome]:
    """Forward-backward-forward step with Armijo-selected step size."""
    if space is None:
        space = euclidean(len(u))
    ls = _anchored_search(u, forward, resolvent, armijo, space, 0, "iterate")
    u_next = ls.v - ls.lam * (ls.b_v - ls.b_w)
    _guard_iterate(u_next, "tseng iterate")
    return u_next, StepOutcome(u_next, ls, ls.res_wv)


def _armijo_contraction_step(u, forward, resolvent, armijo: LineSearchParams, gamma: float, space):
    """The projection-contraction step from the anchor ``u`` at its Armijo point.

    This is the ``zw[armijo]`` step, and ``jx`` at ``gamma = 1``.
    """
    ls = _anchored_search(u, forward, resolvent, armijo, space, 0, "iterate")
    return _contraction_step(u, ls, gamma, space, _PHI_ZERO_TOL)


def zw_step(
    u,
    forward,
    resolvent,
    lam: float,
    gamma: float,
    space=None,
) -> tuple[np.ndarray, StepOutcome]:
    """Projection-contraction step at a given step size.

    With the step size forced equal, this is the zero-inertia special case
    of the inertial contraction iteration; both run through the one
    contraction kernel (public as :func:`mvisolve.solver.contraction_update`),
    so the iterates agree bitwise.
    """
    if space is None:
        space = euclidean(len(u))
    # the line search's finiteness checks and messages, without its test
    b_u, v = _forward_backward(u, lam, forward, resolvent)
    b_v = _require_finite(forward(v), "B(v)", b_u.shape)
    point = LineSearchOutcome(lam, -1, v, b_u, b_v, resolvent_evals=1, forward_evals=2)
    return _contraction_step(u, point, gamma, space, _PHI_ZERO_TOL)


def tc_step(
    u_prev,
    u_curr,
    k: int,
    forward,
    resolvent,
    armijo: LineSearchParams,
    gamma: Optional[float] = None,
    mu_tc: Optional[float] = None,
    alpha_k: Optional[float] = None,
    f: Callable[[np.ndarray], np.ndarray] = _default_half_contraction,
    theta: Optional[float] = None,
    eps_k: Optional[float] = None,
    space=None,
) -> tuple[np.ndarray, StepOutcome]:
    """Inertial viscosity-type projection-contraction step.

    The adaptive inertia takes ``min(eps_k / ||u_k - u_{k-1}||, theta)``
    and falls back to ``theta`` when the two iterates coincide.  The
    forward-backward point is computed from the extrapolated point ``w``
    and one direction ``phi(w, v)`` is used throughout.  When it vanishes
    the contraction step is skipped and only the averaging with ``f``
    moves the iterate.  ``gamma``, ``mu_tc`` and ``theta`` left at ``None``
    take their values from ``SETTINGS["tc"]``, ``alpha_k`` and ``eps_k``
    those of the ``tc`` schedules at ``k``.
    """
    if space is None:
        space = euclidean(len(u_curr))
    settings = SETTINGS["tc"]
    gamma = settings["gamma"] if gamma is None else gamma
    mu_tc = settings["mu_tc"] if mu_tc is None else mu_tc
    theta = settings["theta"] if theta is None else theta
    alpha_k = _tc_alpha(k) if alpha_k is None else alpha_k
    eps_k = _tc_eps(k) if eps_k is None else eps_k
    step = u_curr - u_prev
    diff = space.norm(step)
    theta_k = theta if diff == 0.0 else min(eps_k / diff, theta)
    w = u_curr + theta_k * step
    ls = _anchored_search(w, forward, resolvent, armijo, space, 0, "extrapolated point", k)
    _, phi, pp, phi_norm, res_wv, vanished = _direction(w, ls, space, _PHI_ZERO_TOL)
    z, eta = w, float("nan")
    if not vanished:
        eta = (1.0 - mu_tc) * res_wv**2 / pp
        z = w - (gamma * eta) * phi
    u_next = alpha_k * np.asarray(f(u_curr), dtype=float) + (1.0 - alpha_k) * z
    _guard_iterate(u_next, "viscosity iterate", k)
    # phizero stays False: the averaging step still moves the iterate
    return u_next, StepOutcome(u_next, ls, res_wv, theta_k, eta, phi_norm, w=w)


def jx_step(
    u,
    forward,
    projection,
    armijo: LineSearchParams,
    space=None,
) -> tuple[np.ndarray, StepOutcome]:
    """Projection-type step for variational inequalities (relaxation fixed at 1).

    ``projection`` must be a resolvent that ignores its step argument,
    i.e. a metric projection onto the constraint set.
    """
    if space is None:
        space = euclidean(len(u))
    return _armijo_contraction_step(u, forward, projection, armijo, 1.0, space)


# ---------------------------------------------------------------------------
# driver


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
    space: InnerProductSpace = problem.space
    fwd, res, armijo = problem.forward, problem.resolvent, cfg.armijo
    steps = {
        "fb": lambda k, up, u: fb_step(u, cfg.lam_at(k), fwd, res, space),
        "tseng": lambda k, up, u: tseng_step(u, fwd, res, armijo, space),
        "zw[schedule]": lambda k, up, u: zw_step(u, fwd, res, cfg.lam_at(k), cfg.gamma, space),
        # the projection-type step with a free relaxation
        "zw[armijo]": lambda k, up, u: _armijo_contraction_step(u, fwd, res, armijo, cfg.gamma, space),
        "tc": lambda k, up, u: tc_step(
            up, u, k, fwd, res, armijo, gamma=cfg.gamma, mu_tc=cfg.mu_tc, theta=cfg.theta, space=space,
        ),
        "jx": lambda k, up, u: jx_step(u, fwd, res, armijo, space),
    }
    entry = _entry(cfg.method, cfg.lambda_mode)
    return _drive(
        steps[entry],
        problem,
        u0,
        u1,
        stop,
        max_iters,
        method=cfg.display_label(),
        labels={name: getattr(cfg, name) for name in _LABELLED if name in SETTINGS[entry]},
        check_invariants=check_invariants,
    )
