import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvisolve.operators import (
    box_resolvent,
    identity_resolvent,
    l1_resolvent,
    log_operator,
    lpa_gradient,
    quartic_fidelity_gradient,
    shifted_l1_resolvent,
    soft_threshold,
)

from _oracles import (
    central_diff_gradient,
    grid_projection_2d,
    lpa_objective,
    prox_1d_grid,
    quartic_objective,
)


class TestSoftThreshold:
    def test_piecewise_values(self):
        out = soft_threshold(np.array([2.0, -0.3, 0.0]), 0.5)
        np.testing.assert_array_equal(out, [1.5, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        u = np.array([1.2, -3.4, 0.0, 5.0])
        np.testing.assert_array_equal(soft_threshold(u, 0.0), u)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -0.1)

    def test_matches_grid_prox(self):
        # the scalar prox of tau*|.| on a 1e-3 grid, 1000 random inputs
        rng = np.random.default_rng(7)
        tau = 0.7
        us = rng.uniform(-3, 3, size=1000)
        exact = soft_threshold(us, tau)
        for u, x in zip(us[:60], exact[:60]):  # exhaustive grid is slow; spot 60
            brute = prox_1d_grid(u, lambda y: tau * abs(y))
            assert abs(x - brute) <= 1.01e-3  # grid resolution
        # and the closed-form identity on all 1000
        np.testing.assert_allclose(exact, np.sign(us) * np.maximum(np.abs(us) - tau, 0))

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 10))
    def test_nonexpansive(self, a, b, tau):
        fa = soft_threshold(np.array([a]), tau)[0]
        fb = soft_threshold(np.array([b]), tau)[0]
        assert abs(fa - fb) <= abs(a - b) + 1e-12


class TestQuarticGradient:
    def test_identity_matrix_case(self):
        C = np.eye(2)
        u = np.array([1.0, 0.0])
        out = quartic_fidelity_gradient(C, np.zeros(2), u)
        np.testing.assert_allclose(out, u)  # ||u||^2 * u with ||u|| = 1

    def test_zero_residual(self):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((3, 4))
        u = rng.standard_normal(4)
        out = quartic_fidelity_gradient(C, C @ u, u)
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        C = rng.standard_normal((3, 4))
        v = rng.standard_normal(3)
        f = quartic_objective(C, v)
        for _ in range(20):
            u = rng.standard_normal(4)
            g = quartic_fidelity_gradient(C, v, u)
            fd = central_diff_gradient(f, u)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quartic_fidelity_gradient(np.ones((2, 3)), np.ones(2), np.ones(4))


class TestLpaGradient:
    def test_vanishes_at_origin_with_zero_data(self):
        Q = np.zeros((2, 2))
        out = lpa_gradient(Q, np.zeros(2), 1.0, 1.5, np.zeros(2))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_penalty_term_only(self):
        out = lpa_gradient(np.zeros((1, 1)), np.zeros(1), 1.0, 1.5, np.array([4.0]))
        assert out[0] == pytest.approx(3.0)  # 1.5 * sqrt(4)

    def test_matches_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(3)
        Q = rng.standard_normal((3, 5))
        q = rng.standard_normal(3)
        mu, alpha = 0.3, 1.5
        f = lpa_objective(Q, q, mu, alpha)
        for _ in range(20):
            u = rng.uniform(0.1, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
            g = lpa_gradient(Q, q, mu, alpha, u)
            fd = central_diff_gradient(f, u)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            lpa_gradient(np.eye(2), np.zeros(2), 1.0, 2.0, np.ones(2))
        with pytest.raises(ValueError):
            lpa_gradient(np.eye(2), np.zeros(2), 1.0, 1.0, np.ones(2))


class TestLogOperator:
    def test_zero(self):
        np.testing.assert_array_equal(log_operator(np.zeros(3)), np.zeros(3))

    def test_log_value(self):
        x = np.e - 1.0
        assert log_operator(np.array([x]))[0] == pytest.approx(x)

    def test_sampled_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            x, y = rng.uniform(-10, 10, size=2)
            gap = (log_operator(np.array([x])) - log_operator(np.array([y])))[0] * (x - y)
            assert gap >= 0.0


class TestBoxProjection:
    def test_clamp(self):
        out = box_resolvent(np.zeros(2), np.ones(2))(np.array([3.0, -2.0]), 1.0)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_identity_inside(self):
        u = np.array([0.25, 0.75])
        np.testing.assert_array_equal(box_resolvent(np.zeros(2), np.ones(2))(u, 1.0), u)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            box_resolvent(np.ones(2), np.zeros(2))(np.zeros(2), 1.0)

    def test_matches_grid_argmin(self):
        lo, hi = np.array([-1.0, 0.0]), np.array([0.5, 2.0])
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.uniform(-3, 3, size=2)
            brute = grid_projection_2d(u, lo, hi, step=1e-3)
            exact = box_resolvent(lo, hi)(u, 1.0)
            assert np.linalg.norm(exact - brute) <= 1.5e-3


def _firmly_nonexpansive_sampled(resolvent, dim, lam, n_pairs=1000, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_pairs):
        x = rng.uniform(-5, 5, size=dim)
        y = rng.uniform(-5, 5, size=dim)
        jx, jy = resolvent(x, lam), resolvent(y, lam)
        d = jx - jy
        lhs = float(d @ d)
        rhs = float(d @ (x - y))
        if lhs > rhs + 1e-10:
            return False
    return True


@pytest.mark.parametrize(
    "resolvent,lam",
    [
        (identity_resolvent(), 0.7),
        (l1_resolvent(0.8), 0.5),
        (l1_resolvent(0.8), 2.0),
        (box_resolvent(np.array([-1.0, -1.0, 0.0]), np.array([1.0, 2.0, 0.5])), 1.3),
        (shifted_l1_resolvent(0.4, 0.2), 0.9),
    ],
)
def test_resolvents_firmly_nonexpansive(resolvent, lam):
    assert _firmly_nonexpansive_sampled(resolvent, 3, lam)


def test_shifted_resolvent_matches_grid_prox():
    # 1-D prox of lam*(rho*|y| + beta*y^2/2)
    rho, beta, lam = 0.3, 0.25, 1.7
    res = shifted_l1_resolvent(rho, beta)
    rng = np.random.default_rng(6)
    for x in rng.uniform(-4, 4, size=12):
        brute = prox_1d_grid(x, lambda y: lam * (rho * abs(y) + 0.5 * beta * y * y), step=1e-4)
        exact = res(np.array([x]), lam)[0]
        assert abs(exact - brute) <= 5e-4


def test_fixed_point_implies_stationarity():
    # Construct an exact fixed point of the forward-backward map for the
    # quartic fidelity with an identity sensing matrix, then confirm the
    # subgradient condition coordinatewise.
    rho = 1.0
    a, t = 1.5, (4.0 * rho / 5.0) ** (1.0 / 3.0)
    s = 0.5 * t
    u_star = np.array([a, 0.0])
    v = np.array([a + t, s])
    C = np.eye(2)
    grad = quartic_fidelity_gradient(C, v, u_star)
    for lam in (1e-3, 0.1, 0.5):
        res = u_star - soft_threshold(u_star - lam * grad, lam * rho)
        assert np.linalg.norm(res) <= 1e-10
    # support coordinate: grad + rho*sign(u) == 0; off support: |grad| <= rho
    assert abs(grad[0] + rho * np.sign(u_star[0])) <= 1e-8
    assert abs(grad[1]) <= rho + 1e-8


def test_forward_operators_sampled_monotonicity():
    # <B(x) - B(y), x - y> >= -eps on random pairs, eps = 1e-10 * scale
    rng = np.random.default_rng(12)
    C = rng.standard_normal((5, 8))
    v = rng.standard_normal(5)
    Q = rng.standard_normal((4, 6))
    q = rng.standard_normal(4)
    cases = [
        (lambda u: quartic_fidelity_gradient(C, v, u), 8),
        (lambda u: lpa_gradient(Q, q, 0.3, 1.5, u), 6),
        (lambda u: u**3, 4),
        (log_operator, 4),
    ]
    for fwd, dim in cases:
        for _ in range(200):
            x = rng.uniform(-3, 3, size=dim)
            y = rng.uniform(-3, 3, size=dim)
            gap = float((fwd(x) - fwd(y)) @ (x - y))
            scale = 1.0 + np.linalg.norm(x - y) * (
                np.linalg.norm(fwd(x)) + np.linalg.norm(fwd(y))
            )
            assert gap >= -1e-10 * scale


def test_gradients_match_fd_at_100_points():
    rng = np.random.default_rng(8)
    C = rng.standard_normal((4, 6))
    v = rng.standard_normal(4)
    Q = rng.standard_normal((3, 5))
    q = rng.standard_normal(3)
    fq = quartic_objective(C, v)
    fl = lpa_objective(Q, q, 0.2, 1.5)
    for _ in range(100):
        u = rng.standard_normal(6)
        h = 1e-5 * (1.0 + np.linalg.norm(u))
        g = quartic_fidelity_gradient(C, v, u)
        fd = central_diff_gradient(fq, u, h)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))
    for _ in range(100):
        u = rng.uniform(0.1, 1.5, size=5) * rng.choice([-1.0, 1.0], size=5)
        h = 1e-5 * (1.0 + np.linalg.norm(u))
        g = lpa_gradient(Q, q, 0.2, 1.5, u)
        fd = central_diff_gradient(fl, u, h)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: soft_threshold(np.ones(2), np.nan), r"^threshold tau must be nonnegative, got nan$"),
        (lambda: l1_resolvent(np.nan), r"^rho must be nonnegative, got nan$"),
        (lambda: shifted_l1_resolvent(np.nan, 1.0), r"rho=nan and beta=1\.0$"),
        (lambda: shifted_l1_resolvent(1.0, np.nan), r"rho=1\.0 and beta=nan$"),
        (lambda: box_resolvent(np.array([0.0, np.nan]), np.ones(2)), r"^box bound lo contains NaN$"),
        (lambda: box_resolvent(np.zeros(2), np.array([np.nan, 1.0])), r"^box bound hi contains NaN$"),
    ],
    ids=["soft-tau", "l1-rho", "shifted-rho", "shifted-beta", "box-lo", "box-hi"],
)
def test_nan_parameters_fail_at_construction(build, named):
    # each used to be accepted and to return NaN
    with pytest.raises(ValueError, match=named):
        build()


def test_infinite_rho_and_box_bounds_stay_legal():
    x = np.array([3.0, -2.0])
    np.testing.assert_array_equal(l1_resolvent(np.inf)(x, 0.5), [0.0, 0.0])
    np.testing.assert_array_equal(box_resolvent(np.full(2, -np.inf), np.full(2, np.inf))(x, 1.0), x)


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("m, n", [(256, 512), (512, 1024)])
def test_dot_forms_are_the_matmul_forms_bitwise(m, n, strided):
    # the gradients call ndarray.dot for its cheaper dispatch; it must stay
    # the same GEMV as ``@``
    rng = np.random.default_rng(m)
    C, y = rng.standard_normal((m, n)), rng.standard_normal(m)
    base = rng.standard_normal(2 * n)
    u = base[::2] if strided else base[:n].copy()
    assert u.flags.c_contiguous != strided
    r = C @ u - y
    assert quartic_fidelity_gradient(C, y, u).tobytes() == (float(r @ r) * (C.T @ r)).tobytes()
    mu, alpha = 0.05, 1.5
    expected = C.T @ r + mu * alpha * np.sign(u) * np.abs(u) ** (alpha - 1.0)
    assert lpa_gradient(C, y, mu, alpha, u).tobytes() == expected.tobytes()
