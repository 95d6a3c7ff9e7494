"""Inertial forward-backward contraction solver with full iteration tracing.

One iteration, starting from the pair ``(u_prev, u_curr)``:

1. inertial extrapolation  ``w = u_curr + theta_k * (u_curr - u_prev)``;
2. Armijo backtracking for ``lam`` and the forward-backward point
   ``v = J(w - lam*B(w), lam)``;
3. contraction direction  ``phi = (w - v) - lam*(B(w) - B(v))``;
4. if ``phi`` vanishes, ``v`` already solves the inclusion; otherwise the
   relaxed update ``u_next = w - gamma * delta * phi`` with the optimal
   scalar ``delta = <w - v, phi> / ||phi||^2``.

The acceptance inequality forces, at every iteration where ``phi != 0``,

    (1-sigma)*||w-v|| <= ||phi|| <= (1+sigma)*||w-v||,
    (1-sigma)/(1+sigma)^2 <= delta <= 1/(1-sigma),

and, against any solution ``u*``,

    ||u_next - u*||^2 <= ||w - u*||^2 - gamma*(2-gamma)*<w-v, phi>^2/||phi||^2.

These are checked (and counted, never silently dropped) when
``check_invariants`` is enabled; a benchmark report is only VALID if every
counter is zero.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence, Union

import numpy as np

from .linesearch import (
    BacktrackExhausted,
    LineSearchOutcome,
    LineSearchParams,
    NonFiniteIterate,
    _search,
)
from .problems import Problem
from .spaces import InnerProductSpace, _require_finite, _vdot

__all__ = [
    "InertiaSchedule",
    "StoppingRule",
    "SolverConfig",
    "TerminalStatus",
    "IterationRecord",
    "IterationTrace",
    "StepOutcome",
    "DivergenceError",
    "InsufficientTrace",
    "contraction_margin",
    "inertia_cap",
    "analysis_constants",
    "contraction_update",
    "solve",
    "rate_estimate",
    "slope_of_min_residuals",
]

#: iterate norms beyond this abort the run long before float64 overflow
DIVERGENCE_NORM = 1e150

#: a sum of squares at most this proves every ``|u_i| < DIVERGENCE_NORM``
#: (whose square is 1e300), with a decade to spare for rounding
_GUARD_SUM_OF_SQUARES = 1e299

#: relative floating-point slack used by the runtime invariant checks
_CHECK_SLACK = 1e-12

#: a contraction direction with ``||phi|| <= tol * (1 + ||w||)`` counts as vanished
_PHI_ZERO_TOL = 1e-14


class DivergenceError(FloatingPointError):
    """An iterate left the trust region ``||u|| <= 1e150`` or went non-finite."""


class InsufficientTrace(ValueError):
    """The trace is too short for the requested estimate."""


# ---------------------------------------------------------------------------
# derived constants


def contraction_margin(gamma: float, sigma: float) -> float:
    """``E = ((2-gamma)/gamma) * ((1-sigma)/(1+sigma))**4``, the bound the inertia caps use.

    Since ``u_next - w = -gamma*delta*phi``, the decrease inequality of this
    module reads ``||u_next - u*||^2 <= ||w - u*||^2 - ((2-gamma)/gamma) *
    ||u_next - w||^2``: the exact coefficient of ``||u_next - w||^2`` is
    ``(2-gamma)/gamma``, and ``E`` is smaller by the factor
    ``((1-sigma)/(1+sigma))**4``.  :func:`inertia_cap` and the summability
    margin of :func:`analysis_constants` are built on ``E``.  The paper's
    abstract in ``PAPER.md`` does not settle which of the two coefficients
    its convergence theorem uses.
    """
    return ((2.0 - gamma) / gamma) * ((1.0 - sigma) / (1.0 + sigma)) ** 4


def inertia_cap(gamma: float, sigma: float) -> float:
    """Largest admissible inertia bound ``E / (E + max(1, E))`` for weak convergence."""
    e = contraction_margin(gamma, sigma)
    return e / (e + max(1.0, e))


def analysis_constants(
    gamma: float,
    sigma: float,
    lam_min: Optional[float] = None,
    beta: Optional[float] = None,
    theta: Optional[float] = None,
) -> dict:
    """Read-only constants derived from the configuration (and, optionally, a run).

    ``alpha``, ``zeta`` and ``margin`` depend only on ``(gamma, sigma)``.
    Supplying the inertia bound ``theta`` adds ``kappa``, the positive
    summability margin behind the step-difference series.  Supplying the
    smallest accepted step ``lam_min`` and a strong-monotonicity modulus
    ``beta`` of the set-valued operator adds the linear contraction factor
    ``tau`` and its inertia cap.
    """
    alpha = ((1.0 - sigma) / (1.0 + sigma)) ** 2
    margin = contraction_margin(gamma, sigma)
    out = {
        "alpha": alpha,
        "zeta": ((2.0 - gamma) / gamma) * alpha,
        "margin": margin,
        "inertia_cap": inertia_cap(gamma, sigma),
        "delta_lower": (1.0 - sigma) / (1.0 + sigma) ** 2,
        "delta_upper": 1.0 / (1.0 - sigma),
    }
    # kappa > 0 is what the step-difference summability argument actually
    # needs; note it requires the strictly smaller bound below, not the
    # advertised inertia_cap (the two differ by the +1 in the denominator)
    out["inertia_cap_summable"] = margin / (margin + 1.0 + max(1.0, margin))
    if theta is not None:
        out["kappa"] = margin - theta * (margin + 1.0 + max(1.0, margin))
    if lam_min is not None and beta is not None:
        q = gamma * lam_min * beta * alpha
        tau = 1.0 - 0.5 * alpha * min(gamma * (2.0 - gamma), 2.0 * gamma * lam_min * beta)
        out.update(
            {
                "strong_decrement": q,
                "tau": tau,
                "inertia_cap_strong": min(out["inertia_cap"], (1.0 - tau) / tau),
            }
        )
    return out


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class InertiaSchedule:
    """Extrapolation weights ``theta_k``, all in ``[0, theta_max]`` with ``theta_max < 1``.

    ``experiment`` uses ``theta_max * sqrt(k) / (k + 5)``, the schedule used
    by the benchmark runs.  Note it decreases after ``k = 5``, so it is not
    the non-decreasing schedule the convergence guarantee asks for; the
    ``constant`` kind is the theory-compliant alternative.  Traces record
    which kind ran.
    """

    KINDS: ClassVar[tuple] = ("constant", "experiment")

    kind: str
    theta_max: float

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown inertia schedule kind {self.kind!r}; accepted kinds: {', '.join(self.KINDS)}")
        if not 0.0 <= self.theta_max < 1.0:
            raise ValueError("theta_max must lie in [0, 1)")

    def value(self, k: int) -> float:
        if self.kind == "constant":
            return self.theta_max
        return self.theta_max * math.sqrt(k) / (k + 5.0)


@dataclass(frozen=True)
class StoppingRule:
    """When to declare a run converged.

    kinds
    -----
    ``successive_diff``        ``||u_next - u_curr|| <= tol``
    ``distance_to_reference``  ``||u_next - reference||^2 <= tol``
    ``residual``               ``||w - v|| <= tol``
    ``iter_cap_only``          run to the iteration cap

    ``reference`` defaults to the problem's; a distance stop where both
    are ``None`` raises when its run starts.
    """

    kind: str = "successive_diff"
    tol: float = 1e-6
    reference: Optional[np.ndarray] = None

    def __post_init__(self):
        kinds = ("successive_diff", "distance_to_reference", "residual", "iter_cap_only")
        if self.kind not in kinds:
            raise ValueError(f"unknown stopping rule {self.kind!r}")
        if self.kind != "iter_cap_only" and not self.tol > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class SolverConfig:
    """All scalar knobs of the inertial contraction solver.

    Defaults follow the benchmark settings: ``gamma = 1.9``, line search
    ``(s, mu, sigma) = (1, 0.5, 0.9)`` and the ``experiment`` inertia
    schedule capped at 99% of the admissible bound.  At these values the
    admissible inertia is about 4e-7, i.e. essentially zero; pass an
    explicit :class:`InertiaSchedule` to explore anything larger.
    """

    gamma: float = 1.9
    linesearch: LineSearchParams = field(default_factory=LineSearchParams)
    inertia: Optional[InertiaSchedule] = None
    stop: StoppingRule = field(default_factory=StoppingRule)
    max_iters: int = 1000
    check_invariants: bool = False
    phi_zero_tol: ClassVar[float] = _PHI_ZERO_TOL  # a constant, not a field (see _direction)

    def __post_init__(self):
        if not 0.0 < self.gamma < 2.0:
            raise ValueError("gamma must lie in (0, 2)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.inertia is None:
            cap = inertia_cap(self.gamma, self.linesearch.sigma)
            object.__setattr__(self, "inertia", InertiaSchedule("experiment", 0.99 * cap))

    def analysis(
        self,
        lam_min: Optional[float] = None,
        beta: Optional[float] = None,
        theta: Optional[float] = None,
    ) -> dict:
        if theta is None:
            theta = self.inertia.theta_max
        return analysis_constants(self.gamma, self.linesearch.sigma, lam_min, beta, theta)

    def _row(self) -> _Row:
        """The ``ifb`` row of the method table with these settings, for one run."""
        return _Row("ifb", self.inertia, self.linesearch, gamma=self.gamma)


# ---------------------------------------------------------------------------
# trace


class TerminalStatus(enum.Enum):
    CONVERGED = "converged"
    PHI_ZERO = "phi_zero"
    ITER_CAP = "iter_cap"
    DIVERGED = "diverged"
    BACKTRACK_EXHAUSTED = "backtrack_exhausted"


@dataclass(slots=True)
class IterationRecord:
    """One row of a run trace.

    ``delta`` is the contraction scalar of the method (nan where the
    method has none), ``err`` the stopping metric, ``dist2_ref`` the
    squared distance to the reference solution when one is known.
    Evaluation counts are per-iteration, not cumulative.  ``certified``
    counts the line-search trials rejected before their second matrix pass
    (see :func:`mvisolve.linesearch.backtrack`); they are included in
    ``forward_evals``.  ``speculative`` counts the block rows the search
    computed past its accepted trial; they are in neither evaluation count.
    Records are slotted, not frozen, dataclasses, as one is built every
    iteration; treat them as read-only.
    """

    k: int
    theta: float
    lam: float
    j: int
    delta: float
    res_wv: float
    phi_norm: float
    step_diff: float
    err: float
    dist2_ref: float
    elapsed_ns: int
    forward_evals: int
    resolvent_evals: int
    certified: int = 0
    speculative: int = 0


class IterationTrace:
    """Append-only per-iteration log shared by every solver in the package.

    The evaluation totals and ``total_certified`` also count a last search
    that accepted no step (status ``backtrack_exhausted``): it made no
    record, but its evaluations were spent.  It computed no row past its
    smallest step, so it adds nothing to ``total_speculative``.
    """

    def __init__(self, method: str, labels: Optional[dict] = None):
        self.method = method
        self.labels = dict(labels or {})
        self.records: list[IterationRecord] = []
        self.status: TerminalStatus = TerminalStatus.ITER_CAP
        self.violations = {"delta_bound": 0, "phi_sandwich": 0, "fejer": 0}
        self.invariants_checked = False
        # the evaluations and certified trials of a search that ended the run without a record
        self._unrecorded = (0, 0, 0)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def array(self, fieldname: str) -> np.ndarray:
        return np.array([getattr(r, fieldname) for r in self.records], dtype=float)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def min_lambda(self) -> float:
        lams = [r.lam for r in self.records if np.isfinite(r.lam)]
        return min(lams) if lams else float("nan")

    @property
    def delta_range(self) -> tuple[float, float]:
        deltas = [r.delta for r in self.records if np.isfinite(r.delta)]
        if not deltas:
            return (float("nan"), float("nan"))
        return (min(deltas), max(deltas))

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    @property
    def total_forward_evals(self) -> int:
        return sum(r.forward_evals for r in self.records) + self._unrecorded[0]

    @property
    def total_resolvent_evals(self) -> int:
        return sum(r.resolvent_evals for r in self.records) + self._unrecorded[1]

    @property
    def total_certified(self) -> int:
        return sum(r.certified for r in self.records) + self._unrecorded[2]

    @property
    def total_speculative(self) -> int:
        return sum(r.speculative for r in self.records)

    @property
    def final_err(self) -> float:
        return self.records[-1].err if self.records else float("nan")

    @property
    def final_dist2(self) -> float:
        return self.records[-1].dist2_ref if self.records else float("nan")

    def __repr__(self):
        return (
            f"IterationTrace({self.method}, {self.iterations} iterations, "
            f"status={self.status.value}, violations={self.total_violations})"
        )


# ---------------------------------------------------------------------------
# the contraction core, shared verbatim by every method that uses it


def _direction(
    w: np.ndarray,
    point: LineSearchOutcome,
    space: InnerProductSpace,
    phi_zero_tol: float,
):
    """``(w - v, phi, ||phi||^2, ||phi||, ||w - v||, vanished)`` for ``phi = (w - v) - lam*(B(w) - B(v))``.

    ``v``, ``B(w)``, ``B(v)`` and ``lam`` are those of the accepted
    ``point``.  The one place that rejects an overflowed direction and
    decides whether ``phi`` vanishes, ``||phi|| <= tol*(1 + ||w||)``.  The
    point's ``res_wv``, ``wv`` and ``b_wv`` are ``||w - v||``, ``w - v``
    and ``B(w) - B(v)`` when the line search formed them for the accepted
    trial; they are computed here when they are ``None``.

    Overflow.  Inside a run the ufuncs and inner products here overflow
    silently under :func:`_drive`'s ``np.errstate``, and outside one they
    follow the caller's error state.  Either way an overflowed ``||phi||^2``
    or ``||w - v||`` raises :class:`DivergenceError`, so a run ends
    ``diverged``.  So does a weighted ``||w||`` that overflows while
    ``phi != 0``, as ``tol*inf`` would call any finite ``phi`` vanished, a
    false exact-solution verdict; a zero ``phi`` still vanishes, as
    ``w = v`` then solves the inclusion.
    """
    wv = w - point.v if point.wv is None else point.wv
    b_wv = point.b_w - point.b_v if point.b_wv is None else point.b_wv
    phi = wv - point.lam * b_wv
    pp = space.inner(phi, phi)
    res_wv = space.norm(wv) if point.res_wv is None else point.res_wv
    if not (math.isfinite(pp) and math.isfinite(res_wv)):
        # an overflowed ||phi||^2 would silently zero the contraction scalar
        raise DivergenceError("contraction direction overflowed")
    phi_norm = math.sqrt(pp)
    w_norm = space.norm(w)
    if not math.isfinite(w_norm) and phi_norm > 0.0:
        raise DivergenceError("norm of w overflowed")
    return wv, phi, pp, phi_norm, res_wv, phi_norm <= phi_zero_tol * (1.0 + w_norm)


@dataclass(slots=True)
class StepOutcome:
    """Everything one iteration produced, for tracing and invariant checks (read-only by convention).

    Every step is an anchor ``w``, an accepted ``point`` and an update
    ``u_next``.  The record holds the point itself, a
    :class:`~mvisolve.linesearch.LineSearchOutcome`, so its step ``lam``,
    exponent ``j``, evaluation counts and acceptance ratio ``sigma`` are
    read from ``point``.  ``decrement`` is
    ``gamma*(2-gamma)*<w - v, phi>**2/||phi||**2``, the guaranteed decrease
    of the squared distance to any solution.  The contraction kernel sets
    it for a point with ``sigma`` set whose ``phi`` did not vanish, and only
    a finite one has the scalar and decrease bounds checked; it is NaN
    otherwise, and ``tc``'s viscosity step, whose point has ``sigma`` set,
    leaves it NaN too.  The defaults describe a step without a contraction
    direction: no inertia, no scalar and no decrement.
    """

    u_next: np.ndarray
    point: LineSearchOutcome
    res_wv: float
    theta: float = 0.0
    delta: float = float("nan")
    phi_norm: float = float("nan")
    phizero: bool = False
    w: Optional[np.ndarray] = None
    decrement: float = float("nan")


def _guard_iterate(u: np.ndarray, what: str, k: Optional[int] = None) -> None:
    # one BLAS pass admits almost every iterate.  The sum is sufficient, not
    # necessary: twenty entries of 1e149 pass the guard with a sum of squares
    # above 1e299, and 1e200 is finite with an overflowing square.  Those go
    # to the exact sup-norm test, whose maximum carries nan through, so it
    # also names a non-finite entry.  The pass is spaces._require_finite's.
    # The message names ``what`` at iteration ``k``, and is built only to
    # raise.
    if _vdot(u, u) <= _GUARD_SUM_OF_SQUARES:
        return
    peak = np.abs(u).max()
    if peak <= DIVERGENCE_NORM:
        return
    what = what if k is None else f"{what} at k={k}"
    if not math.isfinite(peak):
        raise DivergenceError(f"{what} is non-finite")
    raise DivergenceError(f"{what} exceeded the divergence guard {DIVERGENCE_NORM:g}")


def _contraction_step(
    w: np.ndarray,
    point: LineSearchOutcome,
    gamma: float,
    space: InnerProductSpace,
    phi_zero_tol: float,
    theta: float = 0.0,
) -> tuple[np.ndarray, StepOutcome]:
    """The step every projection-contraction method shares.

    Relaxed contraction update ``u_next = w - gamma*delta*phi`` with
    ``delta = <w - v, phi> / ||phi||^2`` from the anchor ``w`` and its
    forward-backward ``point`` (from the line search, or at a fixed step
    with ``j = -1``); where ``phi`` vanishes, ``v`` itself is returned with
    ``phizero`` set.  The record holds ``point``, and its ``decrement`` is
    set when ``point.sigma`` is, i.e. for every point that passed the
    Armijo test, so that every such step gets the scalar and decrease
    checks.
    """
    wv, phi, pp, phi_norm, res_wv, phizero = _direction(w, point, space, phi_zero_tol)
    if phizero:
        u_next, delta, decrement = point.v, float("nan"), float("nan")
    else:
        wv_phi = space.inner(wv, phi)
        delta = wv_phi / pp
        u_next = w - (gamma * delta) * phi
        _guard_iterate(u_next, "contraction iterate")
        # wv_phi is a Python float, whose ** raises OverflowError where * gives inf
        decrement = float("nan") if point.sigma is None else gamma * (2.0 - gamma) * (wv_phi * wv_phi) / pp
    return u_next, StepOutcome(u_next, point, res_wv, theta, delta, phi_norm, phizero, w, decrement)


def contraction_update(
    w: np.ndarray,
    v: np.ndarray,
    b_w: np.ndarray,
    b_v: np.ndarray,
    lam: float,
    gamma: float,
    space: InnerProductSpace,
    phi_zero_tol: float,
) -> StepOutcome:
    """The step record of the relaxed contraction update from ``w`` and its point ``v``.

    The public form of :func:`_contraction_step`, the one implementation
    every contraction method runs, so that methods which are algebraically
    identical (e.g. zero inertia versus the plain projection-contraction
    iteration) produce bitwise identical iterates; ``u_next`` is the
    record's first field.  It forms ``w - v``, ``B(w) - B(v)`` and
    ``||w - v||`` itself, as its point carries none of them.  It follows
    the caller's floating-point error state, so under numpy's default an
    overflow warns; an overflowed direction, or an update beyond the
    divergence guard, raises :class:`DivergenceError` either way.  The
    record counts no evaluations.
    """
    point = LineSearchOutcome(lam, -1, v, b_w, b_v, 0, 0)
    return _contraction_step(w, point, gamma, space, phi_zero_tol)[1]


# ---------------------------------------------------------------------------
# the method table: every method is an anchor, a point and an update over one step

#: Each method's anchor, point and update rule, as :func:`_step` runs them.
#:
#: anchor  ``iterate``      ``w = u_k``;
#:         ``inertia``      ``w = u_k + theta_k*(u_k - u_{k-1})``, ``theta_k`` from an
#:                          :class:`InertiaSchedule`;
#:         ``summable``     the same with ``theta_k = min(eps_k/||u_k - u_{k-1}||, theta)``,
#:                          ``eps_k = 100/(k+1)^2``, and ``theta`` where the iterates coincide.
#: point   ``armijo``       the Armijo search from ``w`` (see ``linesearch.backtrack``),
#:                          from ``j = 0`` or, warm-started, from ``max(0, j_{k-1} - 1)``;
#:         ``fixed``        ``v = J(w - lam_k*B(w), lam_k)`` at the step ``lam_k``, with
#:                          ``B(v)`` unless the update is ``v``.
#: update  ``contraction``  ``w - gamma*delta*phi`` (see :func:`_contraction_step`);
#:         ``tseng``        ``v - lam*(B(v) - B(w))``;
#:         ``v``            ``v`` itself;
#:         ``viscosity``    ``z = w - gamma*eta*phi``, ``eta = (1 - mu_tc)*||w - v||^2/||phi||^2``
#:                          (``z = w`` where ``phi`` vanishes), then the average
#:                          ``alpha_k*u_k/2 + (1 - alpha_k)*z``, ``alpha_k = 1/(k+1)``.
_METHODS = {
    "ifb": ("inertia", "armijo", "contraction"),
    "fb": ("iterate", "fixed", "v"),
    "tseng": ("iterate", "armijo", "tseng"),
    "zw[schedule]": ("iterate", "fixed", "contraction"),
    "zw[armijo]": ("iterate", "armijo", "contraction"),
    "tc": ("summable", "armijo", "viscosity"),
    "jx": ("iterate", "armijo", "contraction"),
}


@dataclass(slots=True)
class _Row:
    """One method of :data:`_METHODS` with the settings its rules read, built once per run.

    ``theta`` is the anchor's :class:`InertiaSchedule` (``inertia``) or
    bound (``summable``), ``search`` the Armijo point's
    :class:`~mvisolve.linesearch.LineSearchParams` and ``lam`` the fixed
    point's ``k -> lam_k``; ``gamma`` and ``mu_tc`` are the update's.
    ``j_start`` is the exponent the next search starts from: 0, or one below
    the last accepted one when ``search.warm_start`` is set.
    """

    method: str
    theta: Union[InertiaSchedule, float, None] = None
    search: Optional[LineSearchParams] = None
    lam: Optional[Callable[[int], float]] = None
    gamma: float = 1.0
    mu_tc: Optional[float] = None
    j_start: int = 0


def _step(row: _Row, k: int, u_prev: np.ndarray, u_curr: np.ndarray, problem) -> tuple[np.ndarray, StepOutcome]:
    """One iteration of the method ``row``: its anchor ``w``, its point at ``w``, then its update.

    Returns the next iterate and the step record.  An Armijo point's anchor
    passes :func:`_guard_iterate` first (as ``iterate``, or as
    ``extrapolated point`` at ``k``), which proves it finite, so the search
    need not scan it again; a fixed point takes the line search's
    finiteness checks and messages without its test.  When a contraction
    direction vanishes (relative to ``1 + ||w||``), the forward-backward
    point ``v`` is itself a solution and is returned with ``phizero`` set;
    the viscosity update skips its contraction there, and its average still
    moves the iterate.  Called outside :func:`_drive`, it follows the
    caller's floating-point error state.
    """
    anchor, point_rule, update = _METHODS[row.method]
    space, forward = problem.space, problem.forward
    theta = 0.0
    if anchor == "iterate":
        w, what, at = u_curr, "iterate", None
    else:
        step = u_curr - u_prev
        if anchor == "inertia":
            theta = row.theta.value(k)
        else:
            diff = space.norm(step)
            theta = row.theta if diff == 0.0 else min(100.0 / (k + 1.0) ** 2 / diff, row.theta)
        w, what, at = u_curr + theta * step, "extrapolated point", k

    if point_rule == "armijo":
        _guard_iterate(w, what, at)
        point = _search(w, forward, problem.resolvent, row.search, space, row.j_start)
        if row.search.warm_start:
            row.j_start = max(0, point.j - 1)
    else:
        lam = row.lam(k)
        b_w = _require_finite(forward(w), "B(w)", np.shape(w))
        v = _require_finite(problem.resolvent(w - lam * b_w, lam), "J(w - lam*B(w))", b_w.shape)
        if update == "v":
            point = LineSearchOutcome(lam, -1, v, b_w, None, 1, 1)
        else:
            point = LineSearchOutcome(lam, -1, v, b_w, _require_finite(forward(v), "B(v)", b_w.shape), 1, 2)

    if update == "contraction":
        return _contraction_step(w, point, row.gamma, space, _PHI_ZERO_TOL, theta)
    if update == "tseng":
        u_next = point.v - point.lam * (point.b_v - point.b_w)
        _guard_iterate(u_next, "tseng iterate")
        return u_next, StepOutcome(u_next, point, point.res_wv)
    if update == "v":
        _guard_iterate(point.v, "forward-backward iterate")
        return point.v, StepOutcome(point.v, point, space.norm(w - point.v), w=w)
    # viscosity: the one direction phi(w, v) scaled by eta, then the average
    _, phi, pp, phi_norm, res_wv, vanished = _direction(w, point, space, _PHI_ZERO_TOL)
    z, eta = w, float("nan")
    if not vanished:
        eta = (1.0 - row.mu_tc) * res_wv**2 / pp
        z = w - (row.gamma * eta) * phi
    alpha = 1.0 / (k + 1.0)
    u_next = alpha * (0.5 * u_curr) + (1.0 - alpha) * z  # the average with the contraction f(x) = x/2
    _guard_iterate(u_next, "viscosity iterate", k)
    # phizero stays False: the average still moves the iterate
    return u_next, StepOutcome(u_next, point, res_wv, theta, eta, phi_norm, w=w)


def _check_invariants(
    trace: IterationTrace,
    out: StepOutcome,
    space: InnerProductSpace,
    solution: Optional[np.ndarray],
    solution_norm2: float,
    dist2_solution: Optional[float] = None,
) -> None:
    """Count the violated bounds of one step into ``trace.violations``.

    The direction bound is checked for every point that passed an Armijo
    test (``out.point.sigma`` set), and the scalar and decrease bounds for
    every step with a finite ``decrement``.  The decrease check reads the
    decrement from the step record.  Its rounding allowance is relative,
    ``1e-12 * (||w - solution||^2 + ||solution||^2)``: the terms it compares
    are squared norms of differences of vectors no larger than those two,
    so an absolute allowance would pass any step once both are small, as
    with the zero solutions of the integral problems.  ``solution_norm2`` is
    ``||solution||^2`` and ``dist2_solution``, when given, is
    ``||out.u_next - solution||^2`` already computed by the caller.
    """
    trace.invariants_checked = True
    sigma = out.point.sigma
    if out.phizero or sigma is None:
        return
    res, phi_norm = out.res_wv, out.phi_norm
    if math.isfinite(phi_norm):
        slack = _CHECK_SLACK * (1.0 + res)
        if not ((1.0 - sigma) * res - slack <= phi_norm <= (1.0 + sigma) * res + slack):
            trace.violations["phi_sandwich"] += 1
    if not math.isfinite(out.decrement):
        return
    lo = (1.0 - sigma) / (1.0 + sigma) ** 2
    hi = 1.0 / (1.0 - sigma)
    dslack = _CHECK_SLACK * hi
    if not (lo - dslack <= out.delta <= hi + dslack):
        trace.violations["delta_bound"] += 1
    # the decrease inequality holds against exact solutions only, so it is
    # checked against a known solution, never the error-metric reference
    if solution is not None:
        lhs = space.norm2(out.u_next - solution) if dist2_solution is None else dist2_solution
        w_dist2 = space.norm2(out.w - solution)
        if lhs > w_dist2 - out.decrement + _CHECK_SLACK * (w_dist2 + solution_norm2):
            trace.violations["fejer"] += 1


def _drive(
    step: Callable[[int, np.ndarray, np.ndarray, Problem], tuple[np.ndarray, StepOutcome]],
    problem: Problem,
    u0: np.ndarray,
    u1: np.ndarray,
    stop: StoppingRule,
    max_iters: int,
    *,
    method: str,
    labels: Optional[dict] = None,
    check_invariants: bool = False,
) -> tuple[np.ndarray, IterationTrace]:
    """Shared iteration loop: tracing, stopping, divergence and invariant counting.

    ``step(k, u_prev, u_curr, problem)`` makes one iteration; :func:`solve`
    and :func:`~mvisolve.baselines.run_baseline` pass :func:`_step` bound
    to their method's row.

    The squared-distance column and a distance stop measure against the
    stopping rule's reference, or else ``problem.reference``; a distance
    stop with neither raises :class:`ValueError` before the first step.
    When ``problem.reference_is_solution`` is set, ``problem.reference``
    is an exact solution and ``check_invariants`` adds the per-iteration
    decrease check against it.

    The loop runs under ``np.errstate(over="ignore", invalid="ignore")``,
    entered once per run, so an overflow stays silent and the run ends
    with a named status: ``diverged`` once a finiteness check raises
    :class:`NonFiniteIterate` or :class:`DivergenceError`, or
    ``backtrack_exhausted`` when overflowed norms fail every acceptance
    test.  Any other exception a step raises, e.g. from the forward map or
    the resolvent, propagates unchanged.
    """
    reference = problem.reference if stop.reference is None else stop.reference
    if stop.kind == "distance_to_reference" and reference is None:
        raise ValueError("distance_to_reference needs a reference point; the stopping rule and the problem have none")
    solution = problem.reference if problem.reference_is_solution else None
    space = problem.space
    u_prev = space.check_member(u0, "u0")
    u_curr = space.check_member(u1, "u1")
    ref = None if reference is None else space.check_member(reference, "reference")
    sol = None if solution is None else space.check_member(solution, "solution")
    # the squared distances the trace already computes are reused, not recomputed
    dist2_is_fejer = sol is not None and solution is reference
    sol_norm2 = space.norm2(sol) if check_invariants and sol is not None else float("nan")
    trace = IterationTrace(method, labels)
    final = u_curr
    # the per-iteration lookups, bound once per run
    clock, norm, norm2, kind, tol = time.perf_counter_ns, space.norm, space.norm2, stop.kind, stop.tol

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iters + 1):
            t0 = clock()
            try:
                u_next, out = step(k, u_prev, u_curr, problem)
            except BacktrackExhausted as exc:
                trace.status = TerminalStatus.BACKTRACK_EXHAUSTED
                trace._unrecorded = (exc.forward_evals, exc.resolvent_evals, exc.certified)
                break
            except (NonFiniteIterate, DivergenceError):
                trace.status = TerminalStatus.DIVERGED
                break
            elapsed = clock() - t0

            # a step from the iterate itself to its point v has ||u_next - u_curr|| = ||w - v|| already
            step_diff = out.res_wv if u_next is out.point.v and out.w is u_curr else norm(u_next - u_curr)
            dist2 = norm2(u_next - ref) if ref is not None else math.nan
            if kind == "distance_to_reference":  # dist2 measures against its reference
                err = dist2
            elif kind == "residual":
                err = out.res_wv
            else:  # successive_diff, and the reported metric of iter_cap_only
                err = step_diff

            if check_invariants:
                _check_invariants(trace, out, space, sol, sol_norm2, dist2 if dist2_is_fejer else None)

            point = out.point
            trace.append(  # positional, in IterationRecord's field order
                IterationRecord(
                    k, out.theta, point.lam, point.j, out.delta, out.res_wv, out.phi_norm, step_diff, err, dist2,
                    elapsed, point.forward_evals, point.resolvent_evals, point.certified, point.speculative,
                )
            )
            final = u_next
            if out.phizero:
                trace.status = TerminalStatus.PHI_ZERO
                break
            if kind != "iter_cap_only" and err <= tol:
                trace.status = TerminalStatus.CONVERGED
                break
            u_prev, u_curr = u_curr, u_next
    return final, trace


def solve(
    problem: Problem,
    u0: np.ndarray,
    u1: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, IterationTrace]:
    """Run the inertial contraction solver on an inclusion problem.

    Parameters
    ----------
    problem : Problem
        A hand-built :class:`~mvisolve.problems.Problem` or a generated
        benchmark one.  Its ``reference`` is the default point of the
        trace's squared-distance column (e.g. the true signal of a
        recovery problem); when ``reference_is_solution`` marks it as an
        exact solution, ``cfg.check_invariants`` adds the per-iteration
        decrease check.
    u0, u1 : ndarray
        The two starting points; ``u0 == u1`` is allowed (and is the
        benchmark default), in which case the first extrapolation vanishes.
    cfg : SolverConfig
        A reference of ``cfg.stop`` replaces the problem's for the
        squared-distance column and the distance stop.

    Returns
    -------
    (u_final, trace)
        ``trace.status`` distinguishes convergence, a vanishing
        contraction direction (the exact-solution case), the iteration
        cap, divergence, and an exhausted line search.
    """
    labels = {
        "inertia": cfg.inertia.kind,
        "theta_max": cfg.inertia.theta_max,
        "gamma": cfg.gamma,
        "sigma": cfg.linesearch.sigma,
        "warm_start": cfg.linesearch.warm_start,
    }
    return _drive(
        functools.partial(_step, cfg._row()),
        problem,
        u0,
        u1,
        cfg.stop,
        cfg.max_iters,
        method="ifb",
        labels=labels,
        check_invariants=cfg.check_invariants,
    )


# ---------------------------------------------------------------------------
# rate estimation


def slope_of_min_residuals(residuals: Sequence[float], min_iterations: int = 50) -> float:
    """Least-squares slope of ``log(min_{j<=k} r_j)`` against ``log k``, trailing half.

    The running minimum makes the fit insensitive to non-monotone
    residual sequences; a decay like ``k**(-1/2)`` yields a slope of
    ``-1/2`` up to floating-point error.
    """
    r = np.asarray(residuals, dtype=float)
    r = r[np.isfinite(r)]
    if len(r) < min_iterations:
        raise InsufficientTrace(
            f"need at least {min_iterations} recorded residuals, got {len(r)}"
        )
    running_min = np.minimum.accumulate(r)
    # exact zeros would break the log; clamp far below any meaningful scale
    running_min = np.maximum(running_min, 1e-300)
    k = np.arange(1, len(r) + 1, dtype=float)
    tail = slice(len(r) // 2, None)
    slope = np.polyfit(np.log(k[tail]), np.log(running_min[tail]), 1)[0]
    return float(slope)


def rate_estimate(trace: IterationTrace) -> float:
    """Decay-rate exponent of a run, from its ``||w - v||`` residual history.

    For a plain residual sequence use :func:`slope_of_min_residuals`.
    """
    return slope_of_min_residuals(trace.array("res_wv"))
