"""Operator values and contraction directions that go non-finite.

Two groups of tests:

* operator values a step takes outside the line search (fixed-step ``zw``)
  pass the search's finiteness checks and name the failing evaluation, and
  ``tc`` names a non-finite forward value at its extrapolated point;
* a direction that overflows raises ``DivergenceError`` on every path into
  the contraction kernel; called directly, the kernel follows the caller's
  error state, so these calls run under ``np.errstate`` as a run does, and
  no ``RuntimeWarning`` may escape it.
"""

import warnings

import numpy as np
import pytest

from _table import one_step
from mvisolve.baselines import BaselineConfig
from mvisolve.linesearch import LineSearchOutcome, LineSearchParams, NonFiniteIterate, backtrack
from mvisolve.operators import identity_resolvent
from mvisolve.solver import DivergenceError, SolverConfig, _direction, contraction_update
from mvisolve.spaces import euclidean

OVERFLOWED = "^contraction direction overflowed$"


# ---------------------------------------------------------------------------
# operator values outside the line search


def _nan_where(pred):
    """``B(x) = x``, except NaN wherever ``pred(x)`` holds."""

    def forward(x):
        return np.full_like(x, np.nan) if pred(x) else x.copy()

    return forward


def test_tc_names_a_non_finite_forward_value_at_w():
    # u_k = (1, 1) and u_{k-1} = 0 extrapolate to w = (1.5, 1.5), where the
    # search starts
    forward = _nan_where(lambda x: x[0] > 1.25)
    with pytest.raises(NonFiniteIterate, match=r"^B\(w\) is non-finite$"):
        cfg = BaselineConfig("tc", armijo=LineSearchParams(s=2.0, mu=0.5, sigma=0.5), theta=0.5)
        one_step(cfg, 1, np.zeros(2), np.ones(2), forward, identity_resolvent(), euclidean(2))


@pytest.mark.parametrize(
    "where, message",
    [("u", r"^B\(w\) is non-finite$"), ("J", r"^J\(w - lam\*B\(w\)\) is non-finite$"), ("v", r"^B\(v\) is non-finite$")],
)
def test_fixed_step_zw_names_the_non_finite_evaluation(where, message):
    # u = (1, 1), lam = 0.5 and the identity resolvent give v = (0.5, 0.5)
    forward, resolvent = (lambda x: x.copy()), identity_resolvent()
    if where == "u":
        forward = _nan_where(lambda x: x[0] > 0.75)
    elif where == "v":
        forward = _nan_where(lambda x: x[0] < 0.75)
    else:
        resolvent = lambda x, lam: np.full_like(x, np.nan)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIterate, match=message):
            one_step(
                BaselineConfig("zw", lam=0.5, gamma=0.5), 1, np.ones(2), np.ones(2), forward, resolvent, euclidean(2)
            )


# ---------------------------------------------------------------------------
# overflowing directions


def test_fixed_step_zw_direction_overflow_raises_without_a_warning():
    # B(x) = -x and J(x) = x - 1e308 from u = 0: v = -1e308 and B(v) = 1e308
    # are finite, and phi = (u - v) - 1*(B(u) - B(v)) = 2e308 overflows
    shift = np.array([1e308])
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=OVERFLOWED):
            cfg = BaselineConfig("zw", lam=1.0, gamma=0.5)
            one_step(cfg, 1, np.zeros(1), np.zeros(1), lambda x: -x, lambda x, lam: x - shift, euclidean(1))


def test_direction_with_point_supplied_overflowing_terms_raises_without_a_warning():
    wv, b_wv = np.array([1e308, 0.0]), np.array([-1e308, 0.0])
    w, v = np.zeros(2), -wv
    point = LineSearchOutcome(1.0, 0, v, np.zeros(2), -b_wv, 1, 2, 1e308, wv, b_wv)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=OVERFLOWED):
            _direction(w, point, euclidean(2), 1e-14)


def test_contraction_update_beyond_the_divergence_guard_raises():
    # B = 0 makes phi = w - v and delta = 1, so u_next = gamma*v = (1.5e150, 0)
    v = np.array([1e150, 0.0])
    with pytest.raises(DivergenceError, match=r"^contraction iterate exceeded the divergence guard 1e\+150$"):
        contraction_update(np.zeros(2), v, np.zeros(2), np.zeros(2), 1.0, 1.5, euclidean(2), 1e-14)


@pytest.mark.parametrize("res_wv", [1e308, 1.0, 0.0])
def test_direction_with_an_unproven_bound_raises_without_a_warning(res_wv):
    # a finite ||w - v|| carried by the point proves no bound on ||phi||:
    # whatever value it carries, the overflowed ||phi||^2 raises
    wv, b_wv = np.array([1e308, 0.0]), np.array([-1e308, 0.0])
    point = LineSearchOutcome(1.0, 0, -wv, np.zeros(2), -b_wv, 1, 2, res_wv, wv, b_wv)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=OVERFLOWED):
            _direction(np.zeros(2), point, euclidean(2), 1e-14)


def aligned_search_problem(scale):
    """An accepted search point with ``||phi|| = scale * 2**512``, the direction bound.

    ``2**512`` bounds the norms whose square is finite.  With
    ``B(x) = -x/2`` and ``J(x) = x - d`` from ``w = 0``, the first trial
    ``lam = 1`` gives ``w - v = d`` and ``B(w) - B(v) = -d/2``, accepted as
    ``1/2 <= sigma = 0.9``.  So ``phi = 1.5*d``, and ``||phi||^2`` overflows
    once ``1.5*d`` exceeds ``2**512``.
    """
    d = np.array([scale * 2.0**512 / 1.5])
    return (lambda x: -0.5 * x), (lambda x, lam: x - d)


def test_accepted_point_just_above_the_direction_bound_raises_without_a_warning():
    forward, resolvent = aligned_search_problem(1.001)
    ls = backtrack(np.zeros(1), forward, resolvent, LineSearchParams(), euclidean(1))
    assert ls.j == 0
    phi = -ls.v[0] - ls.lam * (ls.b_w[0] - ls.b_v[0])  # w = 0
    assert 2.0**512 < abs(phi) < 1.002 * 2.0**512
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=OVERFLOWED):
            one_step(SolverConfig(), 1, np.zeros(1), np.zeros(1), forward, resolvent, euclidean(1))
