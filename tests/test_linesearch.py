import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from mvisolve.baselines import fb_step, zw_step
from mvisolve.problems import assemble, gen_cs
from mvisolve.solver import SolverConfig, ifb_step
from mvisolve.spaces import euclidean


def test_param_validation():
    with pytest.raises(ValueError):
        LineSearchParams(s=0.0)
    with pytest.raises(ValueError):
        LineSearchParams(mu=1.0)
    with pytest.raises(ValueError):
        LineSearchParams(sigma=0.0)
    with pytest.raises(ValueError):
        LineSearchParams(max_backtracks=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("s", float("inf")),
        ("s", float("nan")),
        ("s", -float("inf")),
        ("max_backtracks", 2.5),
        ("max_backtracks", True),
        ("max_backtracks", 60.0),
    ],
)
def test_param_validation_names_the_field(field, value):
    # a non-finite s used to end solve() "diverged" at k = 0
    named = {"s": r"^initial step s must be positive and finite", "max_backtracks": r"^max_backtracks must be"}
    with pytest.raises(ValueError, match=named[field]):
        LineSearchParams(**{field: value})


def test_integral_max_backtracks_types_are_accepted():
    assert LineSearchParams(max_backtracks=np.int64(7)).max_backtracks == 7
    assert LineSearchParams(s=1e300).s == 1e300


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
    _, fixed = zw_step(w, zero_forward(), l1_resolvent(0.1), 0.7, 1.0)
    _, fb = fb_step(w, 0.7, zero_forward(), l1_resolvent(0.1))
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
    # sigma so small that the identity map can never be accepted within the cap
    p = LineSearchParams(s=1.0, mu=0.5, sigma=1e-12, max_backtracks=10)
    with pytest.raises(BacktrackExhausted):
        backtrack(np.array([1.0]), identity_forward(), identity_resolvent(), p)


def test_discontinuous_forward_exhausts():
    # jump at the starting point: the variation never decays with lam
    def fwd(u):
        return np.where(u > 0, 1.0, -1.0)

    p = LineSearchParams(s=1.0, mu=0.5, sigma=0.9, max_backtracks=40)
    with pytest.raises(BacktrackExhausted):
        backtrack(np.array([0.0]), fwd, identity_resolvent(), p)


def test_exhaustion_names_max_backtracks_and_mu():
    # at mu=0.9 the default 60 exponents stop at 0.9**60 ~ 1.8e-3, above every
    # step cs-512 accepts, so the first search fails on a continuous map
    prob = assemble(gen_cs(512, 256, 10, snr_db=40.0, seed=1))
    cfg = SolverConfig(linesearch=LineSearchParams(mu=0.9))
    with pytest.raises(BacktrackExhausted) as info:
        ifb_step(prob.u0, prob.u1, 1, prob.forward, prob.resolvent, cfg, prob.space)
    assert str(info.value) == (
        "no step accepted down to 1.797e-03 (60 backtracks); the forward map may be "
        "discontinuous, or max_backtracks=60 is too few for mu=0.9: a slow mu (close "
        "to 1) needs a larger max_backtracks"
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


@settings(deadline=None, max_examples=40)
@given(st.floats(0.1, 0.9), st.floats(0.05, 0.95), st.floats(0.2, 3.0))
def test_accepted_step_satisfies_inequality(mu, sigma, s):
    space = euclidean(3)
    rng = np.random.default_rng(0)
    M = np.array([[2.0, 0.3, 0.0], [-0.3, 1.0, 0.2], [0.0, -0.2, 0.5]])  # monotone part SPD
    fwd = lambda u: M @ u
    res = l1_resolvent(0.3)
    p = LineSearchParams(s=s, mu=mu, sigma=sigma)
    w = rng.standard_normal(3) * 2
    out = backtrack(w, fwd, res, p, space)
    assert out.lam * space.norm(out.b_w - out.b_v) <= p.sigma * space.norm(w - out.v)
    assert isinstance(out, LineSearchOutcome)
