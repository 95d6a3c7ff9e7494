import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from _cases import cases, mu_with_cap
from mvisolve.linesearch import (
    BacktrackExhausted,
    LineSearchOutcome,
    LineSearchParams,
    NonFiniteIterate,
    backtrack,
)
from mvisolve.operators import (
    identity_forward,
    identity_resolvent,
    l1_resolvent,
    quartic_forward,
    zero_forward,
)
from _table import one_step
from mvisolve.baselines import BaselineConfig
from mvisolve.problems import Problem, assemble, gen_cs
from mvisolve.solver import SolverConfig, StoppingRule, TerminalStatus, solve
from mvisolve.spaces import euclidean


def test_param_validation():
    with pytest.raises(ValueError):
        LineSearchParams(s=0.0)
    with pytest.raises(ValueError):
        LineSearchParams(mu=1.0)
    with pytest.raises(ValueError):
        LineSearchParams(sigma=0.0)


@pytest.mark.parametrize("value", [float("inf"), float("nan"), -float("inf")])
def test_param_validation_names_the_field(value):
    # a non-finite s used to end solve() "diverged" at k = 0
    with pytest.raises(ValueError, match=r"^initial step s must be positive and finite"):
        LineSearchParams(s=value)


def test_large_finite_s_is_accepted():
    assert LineSearchParams(s=1e300).s == 1e300


@pytest.mark.parametrize("s", [1.0, 2.0, 0.3])
def test_step_table_ends_at_the_smallest_step(s):
    # s*0.5**60 == s*2**-60, so the default factor keeps its 60 backtracks
    assert LineSearchParams(s=s)._steps == [s * 0.5**j for j in range(61)]
    steps = LineSearchParams(s=s, mu=0.9)._steps
    assert steps == [s * 0.9**j for j in range(396)]
    assert steps[-2] > s * 2.0**-60 >= steps[-1]


def test_mu_past_the_bound_raises_without_building_a_table():
    # the largest admissible mu is 2**(-60/2**16); its search needs 2**16 backtracks
    top = 2.0 ** (-60 / 2**16)
    assert len(LineSearchParams(mu=top * (1 - 1e-12))._steps) <= 2**16 + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^mu=0\.99936\d* needs over 65536 backtracks to reach s\*2\*\*-60 "):
            LineSearchParams(mu=top * (1 + 1e-12))
        # a table of 2**16 floats would take megabytes
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_identity_map_closed_form():
    # A = 0, B = identity: v = (1-lam)w, acceptance iff lam <= sigma.
    # With s=1, mu=0.5, sigma=0.9 the first accepted exponent is j=1.
    p = LineSearchParams(s=1.0, mu=0.5, sigma=0.9)
    w = np.array([2.0, -1.0])
    out = backtrack(w, identity_forward(), identity_resolvent(), p)
    assert out.j == 1
    assert out.lam == 0.5
    np.testing.assert_allclose(out.v, 0.5 * w)
    np.testing.assert_array_equal(out.b_w, w)
    np.testing.assert_allclose(out.b_v, 0.5 * w)


def test_zero_forward_accepts_immediately():
    p = LineSearchParams(s=0.7, mu=0.5, sigma=0.3)
    w = np.array([1.0, 2.0, 3.0])
    out = backtrack(w, zero_forward(), l1_resolvent(0.1), p)
    assert out.j == 0
    assert out.lam == 0.7
    assert out.forward_evals == 2  # B(w) plus the single trial's B(v)
    assert out.resolvent_evals == 1


def test_an_accepted_point_carries_its_ratio_and_a_fixed_step_point_none():
    p = LineSearchParams(s=0.7, mu=0.5, sigma=0.3)
    w = np.array([1.0, 2.0, 3.0])
    assert backtrack(w, zero_forward(), l1_resolvent(0.1), p).sigma == 0.3
    _, fixed = one_step(BaselineConfig("zw", lam=0.7, gamma=1.0), 1, w, w, zero_forward(), l1_resolvent(0.1))
    _, fb = one_step(BaselineConfig("fb", lam=0.7), 1, w, w, zero_forward(), l1_resolvent(0.1))
    assert (fixed.point.j, fixed.point.sigma) == (fb.point.j, fb.point.sigma) == (-1, None)
    assert fb.point.b_v is None and fb.point.v is fb.u_next
    # a fixed-step point gets no scalar or decrease check
    assert math.isnan(fixed.decrement) and math.isnan(fb.decrement)


def test_fixed_point_accepts_with_equal_zeros():
    # w is a fixed point of the forward-backward map: both sides are 0.
    p = LineSearchParams(s=1.0, mu=0.5, sigma=0.5)
    w = np.zeros(3)
    out = backtrack(w, identity_forward(), identity_resolvent(), p)
    assert out.j == 0
    np.testing.assert_array_equal(out.v, w)


def test_a_step_that_rounds_away_in_w_is_not_accepted():
    # at lam = 2**-54, fl(1 - lam*1) = 1: v = w reads 0 <= 0 although B(w) = 1,
    # and the search used to accept it, ending phi_zero at u = 1 (the solution is 0)
    p = LineSearchParams(sigma=1e-20)
    w = np.array([1.0])
    with pytest.raises(BacktrackExhausted, match=r"^no step accepted: at lam = 5\.551e-17 \(j = 54\) lam\*B\(w\) fell below the rounding of w"):
        backtrack(w, identity_forward(), identity_resolvent(), p)
    u, trace = solve(Problem(identity_forward(), identity_resolvent(), euclidean(1)), w, w, SolverConfig(linesearch=p))
    assert trace.status is TerminalStatus.BACKTRACK_EXHAUSTED
    assert trace.iterations == 0 and u.tobytes() == w.tobytes()


def test_a_zero_residual_whose_step_shows_in_w_is_accepted():
    # B(0) = 1/2 lies in the l1 dead zone: w - lam*B(w) != w, and J maps it back to w = 0
    p = LineSearchParams(sigma=0.5)
    w = np.zeros(2)
    out = backtrack(w, lambda u: np.full_like(u, 0.5), l1_resolvent(1.0), p)
    assert (out.j, out.res_wv) == (0, 0.0)
    assert out.v.tobytes() == w.tobytes()


def test_step_is_exactly_geometric():
    p = LineSearchParams(s=1.3, mu=0.7, sigma=0.9)
    w = np.array([5.0])
    out = backtrack(w, identity_forward(), identity_resolvent(), p)
    assert out.lam == p.s * p.mu**out.j


def test_minimality_of_accepted_exponent():
    # re-evaluate the inequality at j-1: it must fail there
    rng = np.random.default_rng(11)
    space = euclidean(4)
    for trial in range(25):
        M = rng.standard_normal((4, 4))
        M = M.T @ M + np.eye(4)  # symmetric positive definite -> monotone
        fwd = lambda u, M=M: M @ u
        res = l1_resolvent(0.2)
        p = LineSearchParams(s=2.0, mu=0.6, sigma=0.4)
        w = rng.standard_normal(4) * 3
        out = backtrack(w, fwd, res, p, space)
        lhs = out.lam * space.norm(out.b_w - out.b_v)
        rhs = p.sigma * space.norm(w - out.v)
        assert lhs <= rhs
        if out.j > 0:
            lam_prev = p.s * p.mu ** (out.j - 1)
            v_prev = res(w - lam_prev * out.b_w, lam_prev)
            lhs_prev = lam_prev * space.norm(out.b_w - np.asarray(fwd(v_prev)))
            rhs_prev = p.sigma * space.norm(w - v_prev)
            assert lhs_prev > rhs_prev


def test_determinism():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 5))
    M = M.T @ M
    fwd = lambda u: M @ u
    res = l1_resolvent(0.5)
    p = LineSearchParams(s=1.0, mu=0.5, sigma=0.8)
    w = rng.standard_normal(5)
    a = backtrack(w, fwd, res, p)
    b = backtrack(w, fwd, res, p)
    assert a.lam == b.lam and a.j == b.j
    np.testing.assert_array_equal(a.v, b.v)


def test_exhaustion_raises():
    # the identity map accepts lam <= sigma only, and the smallest step lies above s*2**-64 = 2**-14
    p = LineSearchParams(s=2.0**50, mu=mu_with_cap(10), sigma=1e-12)
    with pytest.raises(BacktrackExhausted, match=r"\(10 backtracks\); the forward map may be discontinuous$"):
        backtrack(np.array([1.0]), identity_forward(), identity_resolvent(), p)


def test_discontinuous_forward_exhausts():
    # jump at the starting point: the variation never decays with lam
    def fwd(u):
        return np.where(u > 0, 1.0, -1.0)

    p = LineSearchParams(s=1.0, mu=mu_with_cap(40), sigma=0.9)
    with pytest.raises(BacktrackExhausted, match=r"\(40 backtracks\); the forward map may be discontinuous$"):
        backtrack(np.array([0.0]), fwd, identity_resolvent(), p)


def test_slow_mu_searches_down_to_the_smallest_step_on_cs512():
    # cs-512 accepts steps below 0.9**60 ~ 1.8e-3, so a search that stopped
    # after 60 backtracks would fail at k = 1; at mu=0.9 it runs to 0.9**395
    prob = assemble(gen_cs(512, 256, 10, snr_db=40.0, seed=1))
    cfg = SolverConfig(
        linesearch=LineSearchParams(mu=0.9),
        stop=StoppingRule("distance_to_reference", 1e-2, reference=prob.reference),
        max_iters=300,
        check_invariants=True,
    )
    _, tr = solve(prob, prob.u0, prob.u1, cfg)
    assert tr.status is TerminalStatus.CONVERGED
    assert tr.iterations == 235
    assert tr.total_violations == 0
    assert tr.array("lam").min() < 0.9**60


@pytest.mark.parametrize("split", [True, False], ids=["split", "plain"])
def test_exhaustion_by_overflowed_norms_names_the_overflow(split):
    # from 1e20*d on cs-512 seed 1, ||B(w) - B(v)|| overflows in the first
    # 52 trials, and the last 9 read finite norms and still reject (at
    # j = 60, lam*||B(w) - B(v)|| is about 5.8e128 against
    # sigma*||w - v|| of 8.4e46): the map is continuous, only steep there
    prob = assemble(gen_cs(512, 256, 10, snr_db=40.0, seed=1))
    d = np.random.default_rng(0).standard_normal(512)
    w = 1e20 * d / np.linalg.norm(d)
    forward = prob.forward if split else prob.forward.fn
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BacktrackExhausted) as info:
        backtrack(w, forward, prob.resolvent, LineSearchParams(), prob.space)
    assert str(info.value) == (
        "no step accepted down to 8.674e-19 (60 backtracks); the acceptance test's norms "
        "overflowed in 52 of the 61 trials it read, and the step it needs lies below "
        "the smallest trial step"
    )


def test_nonfinite_evaluation_raises():
    def fwd(u):
        return np.full_like(u, np.inf)

    with pytest.raises(NonFiniteIterate):
        backtrack(np.array([1.0]), fwd, identity_resolvent(), LineSearchParams())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_before_any_forward_call(bad):
    calls = []
    fwd = quartic_forward(np.eye(2), np.zeros(2))
    split = fwd.split

    def first(u):
        calls.append("first")
        return split.first(u)

    def forward(u):
        calls.append("forward")
        return fwd(u)

    counted = dataclasses.replace(fwd, fn=forward, split=dataclasses.replace(split, first=first))
    for f in (forward, counted):
        with pytest.raises(NonFiniteIterate, match=r"^line-search input is non-finite$"):
            backtrack(np.array([1.0, bad]), f, l1_resolvent(0.1), LineSearchParams())
    assert calls == []


def test_warm_start_exponent_relation():
    # starting at j_start skips the larger steps entirely
    p = LineSearchParams(s=1.0, mu=0.5, sigma=0.9)
    w = np.array([2.0])
    cold = backtrack(w, identity_forward(), identity_resolvent(), p)
    warm = backtrack(w, identity_forward(), identity_resolvent(), p, j_start=3)
    assert cold.j == 1
    assert warm.j == 3  # accepted immediately at the warm exponent
    assert warm.lam == p.s * p.mu**3


def test_accepted_step_satisfies_inequality():
    space = euclidean(3)
    w = np.random.default_rng(0).standard_normal(3) * 2
    M = np.array([[2.0, 0.3, 0.0], [-0.3, 1.0, 0.2], [0.0, -0.2, 0.5]])  # monotone part SPD
    fwd = lambda u: M @ u
    res = l1_resolvent(0.3)
    # mu in [0.1, 0.9], sigma in [0.05, 0.95], s in [0.2, 3]: every corner, then 40 draws
    for mu, sigma, s in cases(43, 40, (0.1, 0.9), (0.05, 0.95), (0.2, 3.0)):
        p = LineSearchParams(s=s, mu=mu, sigma=sigma)
        out = backtrack(w, fwd, res, p, space)
        assert out.lam * space.norm(out.b_w - out.b_v) <= p.sigma * space.norm(w - out.v), (mu, sigma, s)
        assert isinstance(out, LineSearchOutcome)
