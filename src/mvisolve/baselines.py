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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .linesearch import LineSearchOutcome, LineSearchParams, _require_finite, _search, backtrack
from .solver import (
    _PHI_ZERO_TOL,
    IterationTrace,
    StepOutcome,
    StoppingRule,
    _contraction_step,
    _direction,
    _drive,
    _guard_iterate,
)
from .spaces import InnerProductSpace, _require_shape, euclidean

__all__ = [
    "BaselineConfig",
    "fb_step",
    "tseng_step",
    "zw_step",
    "tc_step",
    "jx_step",
    "run_baseline",
]

METHODS = ("fb", "tseng", "zw", "tc", "jx")


def _default_half_contraction(x):
    return 0.5 * x


def _default_zw_schedule(k):
    return k / (1.0 + k)


@dataclass(frozen=True)
class BaselineConfig:
    """Method selector plus the per-method scalars.

    Only the fields relevant to ``method`` are read.  Defaults follow the
    standard benchmark settings: ``zw`` runs the step schedule
    ``lam_k = k/(k+1)`` with relaxation 0.5 (an ``armijo`` step mode is
    available for forward maps without a global Lipschitz constant),
    ``tc`` uses search start 2, halving, ``mu = 0.5``, relaxation 1,
    ``alpha_k = 1/(k+1)``, ``eps_k = 100/(k+1)^2``, inertia bound 0.5 and
    the contraction ``f(x) = x/2``.
    """

    method: str = "fb"
    # fb / zw (schedule mode): constant value or callable k -> lam
    lam: Union[float, Callable[[int], float], None] = None
    lambda_mode: str = "schedule"  # zw only: "schedule" | "armijo"
    gamma: Optional[float] = None  # zw / tc relaxation; None selects the method default
    armijo: Optional[LineSearchParams] = None  # None selects the method default
    # tc specific
    mu_tc: float = 0.5
    theta: float = 0.5
    alpha_fn: Callable[[int], float] = lambda k: 1.0 / (k + 1.0)
    eps_fn: Callable[[int], float] = lambda k: 100.0 / (k + 1.0) ** 2
    contraction_f: Callable[[np.ndarray], np.ndarray] = _default_half_contraction
    phi_zero_tol: float = _PHI_ZERO_TOL
    label: Optional[str] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown baseline method {self.method!r}")
        if self.gamma is None:
            object.__setattr__(self, "gamma", 0.5 if self.method == "zw" else 1.0)
        if self.armijo is None:
            default = (
                LineSearchParams(s=2.0, mu=0.5, sigma=0.5)
                if self.method == "tc"
                else LineSearchParams()
            )
            object.__setattr__(self, "armijo", default)
        if self.method in ("zw", "tc") and not 0.0 < self.gamma < 2.0:
            raise ValueError("relaxation gamma must lie in (0, 2)")
        if self.method == "tc" and not 0.0 <= self.mu_tc < 1.0:
            raise ValueError("mu_tc must lie in [0, 1)")
        if self.lambda_mode not in ("schedule", "armijo"):
            raise ValueError("lambda_mode must be 'schedule' or 'armijo'")
        if self.lam is None and self.method in ("fb", "zw"):
            default = 0.01 if self.method == "fb" else _default_zw_schedule
            object.__setattr__(self, "lam", default)

    def lam_at(self, k: int) -> float:
        lam = self.lam(k) if callable(self.lam) else float(self.lam)
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError(f"step lam_{k} = {lam} must be positive and finite")
        return lam

    def display_label(self) -> str:
        if self.label:
            return self.label
        if self.method == "zw":
            return f"zw[{self.lambda_mode}]"
        return self.method


# ---------------------------------------------------------------------------
# single steps


def fb_step(u, lam, forward, resolvent, space=None) -> tuple[np.ndarray, StepOutcome]:
    """Forward-backward step ``J(u - lam*B(u), lam)`` at a fixed step size."""
    if space is None:
        space = euclidean(len(u))
    b_u = _require_shape(forward(u), "B(w)", np.shape(u))
    u_next = _require_shape(resolvent(u - lam * b_u, lam), "J(w - lam*B(w))", b_u.shape)
    _guard_iterate(u_next, space, "forward-backward iterate")
    return u_next, StepOutcome(u_next, lam, -1, space.norm(u - u_next), forward_evals=1, resolvent_evals=1)


def tseng_step(u, forward, resolvent, armijo: LineSearchParams, space=None) -> tuple[np.ndarray, StepOutcome]:
    """Forward-backward-forward step with Armijo-selected step size."""
    if space is None:
        space = euclidean(len(u))
    ls = backtrack(u, forward, resolvent, armijo, space=space)
    u_next = ls.v - ls.lam * (ls.b_v - ls.b_w)
    _guard_iterate(u_next, space, "tseng iterate")
    out = StepOutcome(
        u_next, ls.lam, ls.j, ls.res_wv, forward_evals=ls.forward_evals,
        resolvent_evals=ls.resolvent_evals, certified=ls.certified, speculative=ls.speculative,
    )
    return u_next, out


def zw_step(
    u,
    forward,
    resolvent,
    lam: float,
    gamma: float,
    space=None,
    phi_zero_tol: float = _PHI_ZERO_TOL,
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
    with np.errstate(over="ignore", invalid="ignore"):
        b_u = _require_finite(forward(u), "B(w)", np.shape(u))
        v = _require_finite(resolvent(u - lam * b_u, lam), "J(w - lam*B(w))", b_u.shape)
        b_v = _require_finite(forward(v), "B(v)", b_u.shape)
    point = LineSearchOutcome(lam, -1, v, b_u, b_v, resolvent_evals=1, forward_evals=2)
    return _contraction_step(u, point, gamma, space, phi_zero_tol)


def tc_step(
    u_prev,
    u_curr,
    k: int,
    forward,
    resolvent,
    armijo: LineSearchParams,
    gamma: float = 1.0,
    mu_tc: float = 0.5,
    alpha_k: float = 0.5,
    f: Callable[[np.ndarray], np.ndarray] = _default_half_contraction,
    theta: float = 0.5,
    eps_k: float = 1.0,
    space=None,
    phi_zero_tol: float = _PHI_ZERO_TOL,
) -> tuple[np.ndarray, StepOutcome]:
    """Inertial viscosity-type projection-contraction step.

    The adaptive inertia takes ``min(eps_k / ||u_k - u_{k-1}||, theta)``
    and falls back to ``theta`` when the two iterates coincide.  The
    forward-backward point is computed from the extrapolated point ``w``
    and one direction ``phi(w, v)`` is used throughout.  When it vanishes
    the contraction step is skipped and only the averaging with ``f``
    moves the iterate.
    """
    if space is None:
        space = euclidean(len(u_curr))
    step = u_curr - u_prev
    diff = space.norm(step)
    theta_k = theta if diff == 0.0 else min(eps_k / diff, theta)
    w = u_curr + theta_k * step
    _guard_iterate(w, space, f"extrapolated point at k={k}")
    ls = _search(w, forward, resolvent, armijo, space, 0)  # the guard has proved w finite
    _, phi, pp, phi_norm, res_wv, vanished = _direction(w, ls, space, phi_zero_tol)
    z, eta = w, float("nan")
    if not vanished:
        eta = (1.0 - mu_tc) * res_wv**2 / pp
        z = w - (gamma * eta) * phi
    u_next = alpha_k * np.asarray(f(u_curr), dtype=float) + (1.0 - alpha_k) * z
    _guard_iterate(u_next, space, f"viscosity iterate at k={k}")
    # phizero stays False: the averaging step still moves the iterate
    out = StepOutcome(
        u_next, ls.lam, ls.j, res_wv,
        theta=theta_k,
        delta=eta,
        phi_norm=phi_norm,
        forward_evals=ls.forward_evals,
        resolvent_evals=ls.resolvent_evals,
        w=w,
        sigma_check=armijo.sigma,
        certified=ls.certified,
        speculative=ls.speculative,
    )
    return u_next, out


def jx_step(
    u,
    forward,
    projection,
    armijo: LineSearchParams,
    space=None,
    phi_zero_tol: float = _PHI_ZERO_TOL,
) -> tuple[np.ndarray, StepOutcome]:
    """Projection-type step for variational inequalities (relaxation fixed at 1).

    ``projection`` must be a resolvent that ignores its step argument,
    i.e. a metric projection onto the constraint set.
    """
    if space is None:
        space = euclidean(len(u))
    ls = backtrack(u, forward, projection, armijo, space=space)
    return _contraction_step(u, ls, 1.0, space, phi_zero_tol, sigma_check=armijo.sigma)


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
    from ``u1``.
    """
    space: InnerProductSpace = problem.space
    fwd, res, armijo = problem.forward, problem.resolvent, cfg.armijo
    steps = {
        "fb": lambda k, up, u: fb_step(u, cfg.lam_at(k), fwd, res, space),
        "tseng": lambda k, up, u: tseng_step(u, fwd, res, armijo, space),
        "zw[schedule]": lambda k, up, u: zw_step(
            u, fwd, res, cfg.lam_at(k), cfg.gamma, space, cfg.phi_zero_tol
        ),
        # the projection-type step with a free relaxation
        "zw[armijo]": lambda k, up, u: _contraction_step(
            u, backtrack(u, fwd, res, armijo, space=space), cfg.gamma, space,
            cfg.phi_zero_tol, sigma_check=armijo.sigma,
        ),
        "tc": lambda k, up, u: tc_step(
            up, u, k, fwd, res, armijo, gamma=cfg.gamma, mu_tc=cfg.mu_tc,
            alpha_k=cfg.alpha_fn(k), f=cfg.contraction_f, theta=cfg.theta,
            eps_k=cfg.eps_fn(k), space=space, phi_zero_tol=cfg.phi_zero_tol,
        ),
        "jx": lambda k, up, u: jx_step(u, fwd, res, armijo, space, cfg.phi_zero_tol),
    }
    m = cfg.method
    labels = {"gamma": cfg.gamma}
    if m == "zw":
        labels["lambda_mode"] = cfg.lambda_mode
    if m == "tc":
        labels["mu_tc"] = cfg.mu_tc
    return _drive(
        steps[f"zw[{cfg.lambda_mode}]" if m == "zw" else m],
        problem,
        u0,
        u1,
        stop,
        max_iters,
        method=cfg.display_label(),
        labels=labels,
        gamma=cfg.gamma,
        check_invariants=check_invariants,
    )
