"""Armijo-type geometric backtracking for the step size.

Each candidate ``lam = s * mu**j`` is accepted once the variation of the
forward map between the trial point and its forward-backward image is
dominated, after scaling by ``lam``, by the displacement itself:

    lam * ||B(w) - B(v_lam)|| <= sigma * ||w - v_lam||,
    v_lam = J(w - lam*B(w), lam).

No Lipschitz or cocoercivity constant enters; continuity of ``B`` alone
guarantees the search terminates, and the accepted ``lam`` stays bounded
away from zero along any convergent run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spaces import InnerProductSpace, NonFiniteIterate, _require_finite, _require_shape, _rounding_gamma, euclidean

__all__ = [
    "LineSearchParams",
    "LineSearchOutcome",
    "BacktrackExhausted",
    "NonFiniteIterate",
    "backtrack",
]


class BacktrackExhausted(RuntimeError):
    """The acceptance inequality failed for every trial step down to ``s * 2**-60``.

    On valid inputs the search is guaranteed finite, so exhaustion signals
    a discontinuous forward map.  When some trial's test overflowed (far
    from the origin ``||B(w) - B(v)||`` can), the message says so instead:
    the step the test needs lies below the smallest trial step.  The search
    also ends here, with its own message, at a trial whose ``lam*B(w)``
    falls below the rounding of ``w``: ``w - lam*B(w)`` then equals ``w``
    while ``B(w) != 0``, so the test compares nothing about ``B``, and
    every smaller step does the same.
    """


#: the search stops at the first step ``s*mu**j <= s * _SMALLEST_STEP``
_SMALLEST_STEP = 2.0**-60
#: a ``mu`` whose steps need more backtracks than this to reach the smallest step is rejected
_MAX_BACKTRACKS = 2**16


@dataclass(frozen=True)
class LineSearchParams:
    """Backtracking parameters.

    ``s`` is the initial trial step, ``mu`` the geometric reduction factor
    and ``sigma`` the acceptance ratio.  The trial steps ``s * mu**j`` run
    from ``j = 0`` to the first one at or below ``s * 2**-60``, which turns
    the theoretically finite loop into a diagnosable failure: at the
    default ``mu = 0.5`` that is ``j = 60`` exactly, at ``mu = 0.9`` it is
    ``j = 395``.  A ``mu`` so close to 1 that more than ``2**16``
    backtracks would be needed (above about ``0.99937``) is rejected.

    ``warm_start`` lets a driver seed the search one exponent below the
    previously accepted one instead of restarting from ``s`` each
    iteration.  It is off by default because the restarting rule is the
    documented behaviour; traces label runs that enable it.
    """

    s: float = 1.0
    mu: float = 0.5
    sigma: float = 0.9
    warm_start: bool = False

    def __post_init__(self):
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError(f"initial step s must be positive and finite, got {self.s!r}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("backtrack factor mu must lie in (0, 1)")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("acceptance ratio sigma must lie in (0, 1)")
        # fl(s*x) is monotone in x, so the table below ends by j = _MAX_BACKTRACKS
        if self.mu**_MAX_BACKTRACKS > _SMALLEST_STEP:
            top = _SMALLEST_STEP ** (1 / _MAX_BACKTRACKS)
            raise ValueError(f"mu={self.mu} needs over {_MAX_BACKTRACKS} backtracks to reach s*2**-60 (mu <= {top:.5f})")

    @functools.cached_property
    def _steps(self) -> list:
        """The step table: ``s * mu**j`` from ``j = 0`` to the first step ``<= s * 2**-60``, computed once."""
        steps = [self.s]
        while steps[-1] > self.s * _SMALLEST_STEP:
            steps.append(self.s * self.mu ** len(steps))
        return steps


@dataclass(slots=True)
class LineSearchOutcome:
    """An accepted forward-backward point, with everything the caller needs to avoid re-evaluations.

    ``lam == s * mu**j`` exactly, ``v`` is the accepted forward-backward
    point ``J(w - lam*B(w), lam)``, and ``b_w``, ``b_v`` cache ``B(w)`` and
    ``B(v)``.  ``wv``, ``b_wv`` and ``res_wv`` are ``w - v``,
    ``B(w) - B(v)`` and ``||w - v||`` as the acceptance test formed them,
    or ``None`` for a point built outside :func:`backtrack`; the
    contraction kernel reuses them, and forms those left at ``None``.
    ``certified`` counts the rejected trials whose ``B(v)`` was never
    finished (see :func:`backtrack`); ``forward_evals`` counts them too.
    ``speculative`` counts the block rows computed past the accepted
    trial, which neither ``forward_evals`` nor ``resolvent_evals`` counts.
    ``sigma`` is the acceptance ratio the point passed, and ``None`` for a
    point taken at a fixed step (``j = -1``), as the ``fixed`` point rule
    of ``fb`` and ``zw[schedule]`` (see ``mvisolve.solver._METHODS``) and
    ``contraction_update`` build them; ``fb``'s has ``b_v = None``.  The step record of every method holds its point (see
    :class:`mvisolve.solver.StepOutcome`).  The record is a slotted, not
    frozen, dataclass, as it is built every iteration; treat it as
    read-only.
    """

    lam: float
    j: int
    v: np.ndarray
    b_w: np.ndarray
    b_v: np.ndarray | None
    resolvent_evals: int
    forward_evals: int
    res_wv: float | None = None
    wv: np.ndarray | None = None
    b_wv: np.ndarray | None = None
    certified: int = 0
    speculative: int = 0
    sigma: float | None = None


#: a certified rejection needs ``sigma*||w - v|| >= max(s, 1) * _CERTIFY_FLOOR`` (see backtrack)
_CERTIFY_FLOOR = 2.0**-450

#: trials per block: the first block of a search, then each later one (see backtrack)
_FIRST_BLOCK, _NEXT_BLOCK = 16, 8


def _block_rejections(w, b_w, st_w, lams, sigma, split, block, floor, c_block):
    """Trial points for the steps ``lams`` at once, their ``||w - v||`` and the rows the block rejects.

    The verdicts are a list ending in an extra ``False``, so ``rejected.index(False, i)`` always succeeds."""
    V = _require_shape(block(w - lams[:, None] * b_w, lams), "J(w - lam*B(w)) block", (len(lams), len(w)))
    # rows the search may never reach must not warn: a non-finite row is
    # never certified, and the exact path raises at it if the search gets there
    with np.errstate(over="ignore", invalid="ignore"):
        wv = w - V
        res_wv = np.sqrt(np.einsum("ij,ij->i", wv, wv))
        lower = lams * split.block_pairing(w, st_w, b_w, V, res_wv)
        rhs = sigma * res_wv
        rejected = ((rhs >= floor) & (lower > rhs * res_wv * c_block)).tolist()
    rejected.append(False)
    return V, res_wv, rejected


def backtrack(
    w: np.ndarray,
    forward,
    resolvent,
    params: LineSearchParams,
    space: InnerProductSpace | None = None,
    j_start: int = 0,
) -> LineSearchOutcome:
    """Find the smallest ``j >= j_start`` whose step passes the acceptance test.

    Parameters
    ----------
    w : ndarray
        Trial point (finite).
    forward, resolvent : callables
        The single-valued map ``B`` and the resolvent ``J(x, lam)``.
    params : LineSearchParams
    space : InnerProductSpace, optional
        Norms are taken in this space; defaults to Euclidean.
    j_start : int
        First exponent to try.  0 restarts from ``s`` (the default rule);
        warm-started drivers pass ``max(0, previous_j - 1)``.

    Returns
    -------
    LineSearchOutcome

    Raises
    ------
    BacktrackExhausted
        If no step down to ``s * 2**-60`` is accepted, or a trial's
        ``lam*B(w)`` falls below the rounding of ``w`` (see the class).
    NonFiniteIterate
        If any operator evaluation is non-finite.

    Notes
    -----
    ``B(w)`` does not depend on ``lam`` and is evaluated once.  Each trial
    then costs one resolvent evaluation and one forward evaluation, of which
    a certified rejection (below) makes only the first matrix pass, and a
    block-certified one no matrix pass at all, only its row of a block.  The
    same ``lam`` is used both inside the resolvent argument and as the
    scaling of the left-hand side.  The comparison is an exact
    floating-point ``<=``: both sides are same-scale norms, and any slack
    would silently change the accepted exponent.

    Floating-point state.  Inside :func:`~mvisolve.solver.solve` and
    :func:`~mvisolve.baselines.run_baseline` the search runs under the
    run's ``np.errstate``, so an overflow stays silent until a
    finiteness check raises :class:`NonFiniteIterate`.  Called directly it
    follows the caller's error state: under numpy's default an overflowing
    trial warns before it raises.  Only a block (below) enters its own
    ``np.errstate``, as the search may never reach its later rows.

    Certified rejection.  It applies only when ``forward`` has a ``split``
    (:class:`~mvisolve.operators.ForwardSplit`) and ``space.weights`` are
    all ones; every other search runs the plain loop.  A trial then makes
    the first pass ``st_v = first(v)`` and takes the split's certified lower
    bound ``L`` on ``<B(w) - B(v), w - v>``.  With ``N = ||w - v||`` and
    ``S = sigma*N`` as the test computes them, a trial with ::

        fl(lam*L) > fl(fl(S*N) * c),  c = 1 + 2*g_{n+8},  S >= max(s, 1) * 2**-450

    is rejected without ``finish``, because the test itself would reject it.
    Here ``u = 2**-53`` and ``g_k = k*u/(1 - k*u)`` bounds the rounding of a
    ``k``-term sum of squares.  By Cauchy-Schwarz,
    ``lam*||B(w) - B(v)|| >= lam*L/||w - v||``.  The computed ``N`` is at
    least ``(1-u)^2 (1-g_n)^(1/2) ||w - v||``, and the computed left-hand
    side at least ``(1-u)^3 (1-g_n)^(1/2)`` times its exact value.  So the
    left-hand side exceeds ``S * c * (1-u)^7 (1-g_n) / (1+u) > S``.  The
    floor on ``S`` keeps ``N``, ``S*N`` and ``lam*||B(w) - B(v)||`` above
    ``2**-902`` and ``||B(w) - B(v)||`` above ``2**-451`` (as ``lam <= s``),
    so underflow cannot void these factors.  The split returns ``-inf``
    whenever ``B(v)`` could be non-finite, so a certified trial never hides
    a :class:`NonFiniteIterate`.  Certified trials count in
    ``forward_evals`` and in ``certified``.

    Block certification.  The trial points of one search depend only on
    ``w`` and ``B(w)``, so when the split also has ``block_pairing``,
    ``resolvent`` has a row-wise ``block`` form (as
    :func:`~mvisolve.operators.l1_resolvent` does) and ``params.warm_start``
    is off, the search takes its trials in blocks: 16 rows, then 8 at a
    time, never past the smallest step.  A block stacks ``w - lam_j*B(w)``,
    calls ``block`` once, and tests every row against the certificate above
    with one ``block_pairing`` bound ``L_b`` per row (no matrix pass over the
    rows; one GEMV against ``B(w)`` for the quartic map) and ``N_b``, the
    norm of the same float ``w - v`` summed in another order.  A row with
    ``fl(lam*L_b) > fl(fl(S_b*N_b) * c_b)``, ``c_b = 1 + 4*g_{n+8}``, is
    rejected without further work: ``N_b`` and the test's ``N`` each lie
    within ``(1 +- g_n)^(1/2) (1 +- u)`` of the exact norm, so the argument
    above goes through once ``c_b`` exceeds
    ``(1+u)^4 (1+g_n)^(1/2) / ((1-u)^10 (1-g_n)^(3/2))``, about
    ``1 + 2*g_n + 14u``.  ``c_b`` clears that by about ``2*g_n + 18u``,
    more than ``c`` clears its own requirement ``1 + g_n + 8u``; ``c``
    would clear this one by only ``2u``.  The search passes a run of
    certified rows in one step and runs the per-trial code above on a copy
    of the first row the block cannot certify (its own first pass,
    ``pairing``, ``finish`` and the float test), whose ``v`` is finite if
    its ``N_b`` is, as ``w`` is; only a non-finite ``N_b`` runs the check.
    A non-finite row is never certified, so the search raises at the same
    trial as the per-trial loop, and not at all if it accepts an earlier
    one.  The accepted ``j``, ``v``, ``B(v)`` and ``res_wv`` are bitwise
    those of the per-trial loop, and so are the counters: ``forward_evals``
    and ``resolvent_evals`` count the trials the search reaches,
    ``certified`` the block's rejections too, and ``speculative`` the rows
    computed past the accepted trial.  Warm-started searches keep the
    per-trial loop: they accept after about two trials, and a block would
    mostly compute rows they never reach.
    """
    if space is None:
        space = euclidean(len(w))
    w = np.asarray(w)
    _require_finite(w, "line-search input", w.shape)
    return _search(w, forward, resolvent, params, space, j_start)


def _search(w: np.ndarray, forward, resolvent, params: LineSearchParams, space, j_start: int) -> LineSearchOutcome:
    """:func:`backtrack` for an array ``w`` its caller has already proved finite, as the steps' own guards do.

    ``ForwardOperator.fn`` and ``ResolventOperator.apply`` are bound once
    per search; any other callable is called as it is.
    """
    shape = w.shape
    fn = getattr(forward, "fn", forward)
    apply = getattr(resolvent, "apply", resolvent)
    steps = params._steps
    split = getattr(forward, "split", None)
    plain = getattr(space, "_plain", None)  # an InnerProductSpace decides it once; else read the weights
    if split is not None and not (np.all(getattr(space, "weights", None) == 1.0) if plain is None else plain):
        split = None
    block = None
    if split is None:
        b_w = _require_finite(fn(w), "B(w)", shape)
    else:
        st_w = split.first(w)
        b_w = _require_finite(split.finish(w, st_w), "B(w)", shape)
        floor = max(params.s, 1.0) * _CERTIFY_FLOOR
        c = 1.0 + 2.0 * _rounding_gamma(len(w) + 8)
        if split.block_pairing is not None and not params.warm_start:
            block = getattr(resolvent, "block", None)
            c_block = 1.0 + 4.0 * _rounding_gamma(len(w) + 8)

    certified = overflowed = 0
    j = start = int(j_start)
    if j < 0:
        raise ValueError("j_start must be nonnegative")
    V = None
    while j < len(steps):
        if block is not None:
            if V is None or j == j0 + len(V):
                rows = min(_NEXT_BLOCK if V is not None else _FIRST_BLOCK, len(steps) - j)
                j0 = j
                V, norms, rejected = _block_rejections(
                    w, b_w, st_w, np.array(steps[j : j + rows]), params.sigma, split, block, floor, c_block
                )
            i = j - j0
            if rejected[i]:
                skip = rejected.index(False, i) - i  # a run of certified rows
                certified += skip
                j += skip
                continue
        lam = steps[j]
        if block is None:
            v = _require_finite(apply(w - lam * b_w, lam), "J(w - lam*B(w))", shape)
        else:
            v = V[i].copy()
            # w is finite, so a finite norm of the row's w - v proves v finite
            if not math.isfinite(norms[i]):
                v = _require_finite(v, "J(w - lam*B(w))", shape)
        wv = None
        if split is None:
            b_v = _require_finite(fn(v), "B(v)", shape)
        else:
            st_v = split.first(v)
            lower = lam * split.pairing(w, st_w, v, st_v)
            if lower > 0.0:
                wv = w - v
                res_wv = space.norm(wv)
                rhs = params.sigma * res_wv
                if rhs >= floor and lower > rhs * res_wv * c:
                    certified += 1
                    j += 1
                    continue
            b_v = _require_finite(split.finish(v, st_v), "B(v)", shape)
        if wv is None:
            wv = w - v
            res_wv = space.norm(wv)
        b_wv = b_w - b_v
        lhs = lam * space.norm(b_wv)
        if lhs <= params.sigma * res_wv:
            # a zero ||w - v|| passes every step, and shows nothing once lam*B(w)
            # vanishes in w - lam*B(w): every smaller step rounds to w as well
            if res_wv == 0.0 and b_w.any() and np.array_equal(w - lam * b_w, w):
                raise BacktrackExhausted(
                    f"no step accepted: at lam = {lam:.3e} (j = {j}) lam*B(w) fell below the rounding of w, "
                    f"so w - lam*B(w) == w while B(w) != 0, as at every smaller step"
                )
            # one trial per exponent the search reached
            return LineSearchOutcome(
                lam, j, v, b_w, b_v, j - start + 1, j - start + 2, res_wv, wv, b_wv,
                certified, 0 if V is None else j0 + len(V) - 1 - j, params.sigma,
            )
        # a rejected test overflowed on its left side only, as an infinite ||w - v|| accepts
        overflowed += lhs == math.inf
        j += 1
    if overflowed:
        raise BacktrackExhausted(
            f"no step accepted down to {steps[-1]:.3e} ({len(steps) - 1} backtracks); "
            f"the acceptance test's norms overflowed in {overflowed} of the {len(steps) - start - certified} trials "
            f"it read, and the step it needs lies below the smallest trial step"
        )
    raise BacktrackExhausted(
        f"no step accepted down to {steps[-1]:.3e} ({len(steps) - 1} backtracks); the forward map may be discontinuous"
    )
