import dataclasses
import re
import warnings

import numpy as np
import pytest

from _table import SMALL_PROBLEMS, every_method, one_step
from mvisolve.baselines import SETTINGS, BaselineConfig, run_baseline
from mvisolve.linesearch import LineSearchParams, backtrack
from mvisolve.operators import (
    ForwardOperator,
    box_resolvent,
    identity_forward,
    identity_resolvent,
    l1_resolvent,
    linear_forward,
    zero_forward,
)
from mvisolve.problems import Problem, gen_cs
from mvisolve.solver import (
    _METHODS,
    _PHI_ZERO_TOL,
    InertiaSchedule,
    IterationRecord,
    SolverConfig,
    StoppingRule,
    TerminalStatus,
    _step,
    contraction_update,
    solve,
)
from mvisolve.spaces import euclidean


def _random_monotone_linear(rng, d):
    """M = S^T S + W with W skew: <Mx, x> >= 0, generally non-symmetric."""
    S = rng.standard_normal((d, d))
    W = rng.standard_normal((d, d))
    W = 0.5 * (W - W.T)
    return S.T @ S + W


class TestFB:
    def test_pure_backward_step(self):
        u = np.array([3.0, -1.0])
        res = l1_resolvent(1.0)
        u_next, out = one_step(BaselineConfig("fb", lam=0.5), 1, u, u, zero_forward(), res, euclidean(2))
        np.testing.assert_array_equal(u_next, res(u, 0.5))

    def test_pure_forward_step(self):
        u = np.array([2.0, 4.0])
        u_next, _ = one_step(
            BaselineConfig("fb", lam=0.25), 1, u, u, identity_forward(), identity_resolvent(), euclidean(2)
        )
        np.testing.assert_allclose(u_next, 0.75 * u)

    def test_translation_prox_case(self):
        # B = gradient of 0.5*||u - a||^2, lam = 1: input to the prox is a
        a = np.array([2.0])
        B = ForwardOperator(lambda u: u - a)
        for u0 in ([5.0], [-3.0], [0.0]):
            u_next, _ = one_step(
                BaselineConfig("fb", lam=1.0), 1, np.array(u0), np.array(u0), B, l1_resolvent(1.0), euclidean(1)
            )
            np.testing.assert_allclose(u_next, [1.0])  # soft(2, 1)

    def test_an_overflowing_fixed_step_ends_diverged_under_any_warning_filter(self):
        # the quartic map's local Lipschitz constant grows like ||r||^2: from
        # 3*d a fixed step of 1e-4 overflows B within a few iterations, which
        # must end the run as diverged rather than leak an overflow warning
        problem = gen_cs(512, 256, seed=1)
        d = np.random.default_rng(0).standard_normal(512)
        u = 3.0 * d / np.linalg.norm(d)
        stop = StoppingRule("distance_to_reference", 1e-2, reference=problem.reference)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = run_baseline(BaselineConfig("fb", lam=1e-4), problem, u, u, stop, 3000)
        assert trace.status is TerminalStatus.DIVERGED
        assert trace.iterations == 4


class TestTseng:
    def test_b_zero_reduces_to_resolvent(self):
        u = np.array([3.0])
        p = LineSearchParams(1.0, 0.5, 0.9)
        u_next, out = one_step(
            BaselineConfig("tseng", armijo=p), 1, u, u, zero_forward(), l1_resolvent(1.0), euclidean(1)
        )
        np.testing.assert_array_equal(u_next, [2.0])
        assert out.point.j == 0

    def test_linear_closed_form(self):
        # lam accepted at 0.5: v = 0.5u, u_next = v - lam*(Bv - Bu) = 0.75u
        u = np.array([1.0])
        p = LineSearchParams(1.0, 0.5, 0.9)
        u_next, out = one_step(
            BaselineConfig("tseng", armijo=p), 1, u, u, identity_forward(), identity_resolvent(), euclidean(1)
        )
        assert out.point.lam == 0.5
        np.testing.assert_allclose(u_next, [0.75])

    def test_fixed_point_is_stationary(self):
        u = np.zeros(2)
        p = LineSearchParams(1.0, 0.5, 0.9)
        u_next, _ = one_step(
            BaselineConfig("tseng", armijo=p), 1, u, u, identity_forward(), identity_resolvent(), euclidean(2)
        )
        np.testing.assert_array_equal(u_next, u)


class TestZW:
    def test_b_zero_step(self):
        # phi = u - v, delta = 1, gamma = 1: u_next = v
        u = np.array([4.0])
        u_next, out = one_step(
            BaselineConfig("zw", lam=1.0, gamma=1.0), 1, u, u, zero_forward(), l1_resolvent(1.0), euclidean(1)
        )
        np.testing.assert_array_equal(u_next, [3.0])
        assert out.delta == 1.0

    def test_linear_case_matches_contraction_solver(self):
        u = np.array([1.0])
        u_next, out = one_step(
            BaselineConfig("zw", lam=0.5, gamma=1.0), 1, u, u, identity_forward(), identity_resolvent(), euclidean(1)
        )
        np.testing.assert_allclose(u_next, [0.5])
        assert out.delta == pytest.approx(2.0)

    def test_bitwise_equality_with_zero_inertia_contraction(self):
        # forced common step, zero inertia: the two methods share the exact
        # arithmetic path and must agree to the last bit
        rng = np.random.default_rng(42)
        for trial in range(100):
            d = int(rng.integers(1, 9))
            M = _random_monotone_linear(rng, d)
            lam = 0.9 * 0.9 / np.linalg.norm(M, 2)  # accepted at j=0
            fwd = linear_forward(M)
            res = l1_resolvent(float(rng.uniform(0.05, 1.0)))
            gamma = float(rng.uniform(0.1, 1.9))
            u = rng.standard_normal(d) * 3
            space = euclidean(d)

            cfg = SolverConfig(
                gamma=gamma,
                linesearch=LineSearchParams(s=lam, mu=0.5, sigma=0.9),
                inertia=InertiaSchedule("constant", 0.0),
                stop=StoppingRule("iter_cap_only"),
                max_iters=5,
            )
            u_ifb, out_ifb = one_step(cfg, 1, u, u, fwd, res, space)
            assert out_ifb.point.j == 0 and out_ifb.point.lam == lam
            u_zw, out_zw = one_step(BaselineConfig("zw", lam=lam, gamma=gamma), 1, u, u, fwd, res, space)
            np.testing.assert_array_equal(u_ifb, u_zw)
            assert out_ifb.delta == out_zw.delta
            assert out_ifb.phi_norm == out_zw.phi_norm


class TestTC:
    def test_hand_computed_scalar_step(self):
        # A=0, B=identity, u_prev=u_curr=1, theta=0, gamma=1, mu_tc=0.5,
        # alpha_1=0.5, f(x)=0.5x, armijo (1, 0.5, 0.5):
        # lam=0.5, v=0.5, phi=0.25, eta=2, z=0.5, u_next=0.25+0.25=0.5
        u = np.array([1.0])
        p = LineSearchParams(1.0, 0.5, 0.5)
        cfg = BaselineConfig("tc", armijo=p, gamma=1.0, mu_tc=0.5, theta=0.0)
        u_next, out = one_step(cfg, 1, u, u, identity_forward(), identity_resolvent(), euclidean(1))
        assert out.point.lam == 0.5
        assert out.delta == pytest.approx(2.0)  # eta
        np.testing.assert_allclose(u_next, [0.5])

    def test_equal_iterates_take_constant_inertia_branch(self):
        u = np.array([1.0])
        cfg = BaselineConfig("tc", armijo=LineSearchParams(1.0, 0.5, 0.5), theta=0.37)
        u_next, out = one_step(cfg, 1, u, u, identity_forward(), identity_resolvent(), euclidean(1))
        assert out.theta == 0.37

    def test_omitted_settings_follow_the_table_and_the_schedules(self, monkeypatch):
        # gamma, mu_tc and theta come from SETTINGS["tc"] as it reads when the
        # configuration is made, alpha_k = 1/(k+1) and eps_k = 100/(k+1)^2 at k
        monkeypatch.setitem(SETTINGS, "tc", {**SETTINGS["tc"], "gamma": 1.5, "mu_tc": 0.25, "theta": 0.125})
        rng = np.random.default_rng(3)
        u_prev, u_curr = rng.standard_normal(3), rng.standard_normal(3)
        fwd, res = linear_forward(_random_monotone_linear(rng, 3)), l1_resolvent(0.2)
        p, space = LineSearchParams(2.0, 0.5, 0.5), euclidean(3)
        u_default, out_default = one_step(BaselineConfig("tc", armijo=p), 3, u_prev, u_curr, fwd, res, space)
        stated = BaselineConfig("tc", armijo=p, gamma=1.5, mu_tc=0.25, theta=0.125)
        u_stated, out_stated = one_step(stated, 3, u_prev, u_curr, fwd, res, space)
        assert u_default.tobytes() == u_stated.tobytes()
        assert out_default.theta == out_stated.theta == 0.125
        old = BaselineConfig("tc", armijo=p, gamma=1.0, mu_tc=0.5, theta=0.5)
        u_old, _ = one_step(old, 3, u_prev, u_curr, fwd, res, space)
        assert u_old.tobytes() != u_default.tobytes()
        # iterates 500 apart: theta_k = eps_k/500 < theta, and with B = 0,
        # J = I the direction vanishes, so u_next = alpha_k*u/2 + (1 - alpha_k)*w
        u_prev, u_curr = np.zeros(2), np.array([300.0, 400.0])
        for k in (1, 3, 10):
            cfg = BaselineConfig("tc", armijo=p)
            u_next, out = one_step(cfg, k, u_prev, u_curr, zero_forward(), identity_resolvent(), euclidean(2))
            assert out.theta == 100.0 / (k + 1.0) ** 2 / 500.0 < 0.125
            a = 1.0 / (k + 1.0)
            assert u_next.tobytes() == (a * (0.5 * u_curr) + (1.0 - a) * out.w).tobytes()

    def test_viscosity_step_averages_half_u_with_the_contraction_step(self):
        # theta = 0, mu_tc = 0: u_next = a*f(u) + (1 - a)*(w - gamma*eta*phi)
        # with a = alpha_1 = 1/2, f(x) = x/2, w = u and
        # eta = ||w-v||^2/||phi||^2, checked term by term
        rng = np.random.default_rng(5)
        u = rng.standard_normal(3)
        p = LineSearchParams(1.0, 0.5, 0.5)
        space = euclidean(3)
        M = _random_monotone_linear(rng, 3)
        fwd = linear_forward(M)
        res = l1_resolvent(0.3)
        cfg = BaselineConfig("tc", armijo=p, gamma=1.3, mu_tc=0.0, theta=0.0)
        u_next, out = one_step(cfg, 1, u, u, fwd, res, space)
        lam = out.point.lam
        v = res(u - lam * fwd(u), lam)
        phi = (u - v) - lam * (fwd(u) - fwd(v))
        eta = float((u - v) @ (u - v)) / float(phi @ phi)
        a = 1.0 / (1 + 1.0)  # alpha_1
        assert a == 0.5
        np.testing.assert_allclose(u_next, a * u / 2 + (1 - a) * (u - 1.3 * eta * phi), rtol=1e-14)

    def test_hand_computed_consistent_step(self):
        # scalar case, A=0, B=identity, u_prev=0, u_curr=1, theta=0.5,
        # eps_1=25, gamma=1, mu_tc=0.5, alpha_1=0.5, f(x)=x/2, armijo (1,.5,.5):
        #   inertia: theta_1 = min(25/1, 0.5) = 0.5, w = 1.5
        #   search from w=1.5: lam=.5, v=.75; phi=.375; eta=2;
        #   z = .75; u_next = .25 + .375 = 0.625
        p = LineSearchParams(1.0, 0.5, 0.5)
        cfg = BaselineConfig("tc", armijo=p, gamma=1.0, mu_tc=0.5, theta=0.5)
        u_prev, u_curr = np.array([0.0]), np.array([1.0])
        u_con, out_con = one_step(cfg, 1, u_prev, u_curr, identity_forward(), identity_resolvent(), euclidean(1))
        np.testing.assert_allclose(u_con, [0.625])
        assert out_con.theta == 0.5
        assert out_con.delta == pytest.approx(2.0)

    def test_phi_zero_tol_is_honoured(self):
        # u = 1, B = 0, J = identity: v = w = 1 and phi = 0, so the direction
        # vanishes and the contraction is skipped: u_next = 0.5*f(1) + 0.5*w
        # = 0.75 with alpha_1 = 1/2, and eta is nan
        prob = Problem(zero_forward(), identity_resolvent(), euclidean(1))
        u = np.array([1.0])
        uf, tr = run_baseline(
            BaselineConfig("tc"), prob, u, u,
            StoppingRule("iter_cap_only"), max_iters=1,
        )
        np.testing.assert_array_equal(uf, [0.75])
        assert np.isnan(tr.records[0].delta)


class TestJX:
    def test_unconstrained_reduces_to_zw_with_unit_relaxation(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(4)
        p = LineSearchParams(1.0, 0.5, 0.9)
        space = euclidean(4)
        fwd = linear_forward(_random_monotone_linear(rng, 4))
        res = identity_resolvent()  # K is the whole space
        u_jx, out_jx = one_step(BaselineConfig("jx", armijo=p), 1, u, u, fwd, res, space)
        u_zw, out_zw = one_step(BaselineConfig("zw", lam=out_jx.point.lam, gamma=1.0), 1, u, u, fwd, res, space)
        np.testing.assert_array_equal(u_jx, u_zw)

    def test_stationary_point_in_set(self):
        # u in K with B(u) = 0: v = u, phi = 0
        proj = box_resolvent(np.zeros(2), np.ones(2))
        u = np.array([0.5, 0.25])
        u_next, out = one_step(
            BaselineConfig("jx", armijo=LineSearchParams()), 1, u, u, zero_forward(), proj, euclidean(2)
        )
        assert out.phizero
        np.testing.assert_array_equal(u_next, u)

    def test_hand_computed_box_case(self):
        # K=[0,1], B=identity, u=2: lam=0.5, v=1, phi=0.5, alpha=2, u_next=1
        proj = box_resolvent(np.array([0.0]), np.array([1.0]))
        u = np.array([2.0])
        p = LineSearchParams(1.0, 0.5, 0.9)
        u_next, out = one_step(BaselineConfig("jx", armijo=p), 1, u, u, identity_forward(), proj, euclidean(1))
        assert out.point.lam == 0.5
        assert out.delta == pytest.approx(2.0)
        np.testing.assert_allclose(u_next, [1.0])

    def test_box_reduction_matches_contraction_solver_iterate_for_iterate(self):
        # normal-cone problem: the zero-inertia contraction solver with
        # gamma=1 and the projection-type method walk the same path
        rng = np.random.default_rng(3)
        d = 4
        lo, hi = -np.ones(d), np.ones(d)
        proj = box_resolvent(lo, hi)
        fwd = linear_forward(_random_monotone_linear(rng, d))
        space = euclidean(d)
        p = LineSearchParams(1.0, 0.5, 0.9)
        cfg = SolverConfig(
            gamma=1.0,
            linesearch=p,
            inertia=InertiaSchedule("constant", 0.0),
            stop=StoppingRule("iter_cap_only"),
            max_iters=1,
        )
        u_ifb = u_jx = rng.standard_normal(d) * 2
        for k in range(1, 9):
            u_ifb, out_ifb = one_step(cfg, k, u_ifb, u_ifb, fwd, proj, space)
            u_jx, out_jx = one_step(BaselineConfig("jx", armijo=p), 1, u_jx, u_jx, fwd, proj, space)
            np.testing.assert_array_equal(u_ifb, u_jx)
            if out_ifb.phizero:
                break


class TestRunBaseline:
    def _problem(self):
        return Problem(
            forward=ForwardOperator(lambda u: u**3),
            resolvent=l1_resolvent(1.0),
            space=euclidean(2),
        )

    def test_trace_schema_is_shared(self):
        prob = self._problem()
        u = np.array([1.5, -1.0])
        stop = StoppingRule("successive_diff", 1e-9)
        for cfg in (
            BaselineConfig("fb", lam=0.05),
            BaselineConfig("tseng"),
            BaselineConfig("zw", lambda_mode="armijo", gamma=0.5),
            BaselineConfig("tc"),
        ):
            uf, tr = run_baseline(cfg, prob, u, u, stop, max_iters=400)
            assert tr.iterations >= 1
            rec = tr.records[0]
            for fieldname in ("k", "theta", "lam", "delta", "res_wv", "err", "elapsed_ns"):
                assert hasattr(rec, fieldname)
            assert tr.total_forward_evals > 0
            assert tr.total_resolvent_evals > 0

    def test_eval_counters_exact_for_fb(self):
        prob = self._problem()
        u = np.array([0.5, -0.5])
        uf, tr = run_baseline(
            BaselineConfig("fb", lam=0.1), prob, u, u,
            StoppingRule("iter_cap_only"), max_iters=7,
        )
        assert tr.total_forward_evals == 7
        assert tr.total_resolvent_evals == 7

    def test_eval_counters_exact_per_backtrack(self):
        # every search trial costs one resolvent and one forward evaluation,
        # plus one forward evaluation for the anchor point (for tc, the
        # extrapolated point the search starts from)
        prob = self._problem()
        u = np.array([1.5, -1.0])
        stop = StoppingRule("iter_cap_only")
        for cfg in (BaselineConfig("tseng"), BaselineConfig("zw", lambda_mode="armijo"), BaselineConfig("tc")):
            uf, tr = run_baseline(cfg, prob, u, u, stop, max_iters=10)
            for rec in tr.records:
                assert rec.forward_evals == rec.j + 2
                assert rec.resolvent_evals == rec.j + 1
        # fixed-step projection-contraction: two forwards, one resolvent
        uf, tr = run_baseline(BaselineConfig("zw", lam=0.01), prob, u, u, stop, max_iters=5)
        for rec in tr.records:
            assert rec.forward_evals == 2
            assert rec.resolvent_evals == 1

    def test_lambda_schedules(self):
        # callable schedules are honored exactly
        prob = self._problem()
        u = np.array([0.5, -0.5])
        uf, tr = run_baseline(
            BaselineConfig("fb", lam=lambda k: 0.1 / k), prob, u, u,
            StoppingRule("iter_cap_only"), max_iters=4,
        )
        np.testing.assert_allclose(tr.array("lam"), [0.1, 0.05, 0.1 / 3, 0.025])
        # the default projection-contraction schedule is k/(1+k)
        cfg = BaselineConfig("zw")
        assert [cfg.lam_at(k) for k in (1, 3)] == [0.5, 0.75]
        assert cfg.gamma == 0.5

    def test_armijo_zw_respects_delta_bounds(self):
        prob = self._problem()
        u = np.array([2.0, -2.0])
        cfg = BaselineConfig("zw", lambda_mode="armijo", gamma=1.0,
                             armijo=LineSearchParams(1.0, 0.5, 0.9))
        uf, tr = run_baseline(cfg, prob, u, u, StoppingRule("iter_cap_only"),
                              max_iters=100, check_invariants=True)
        assert tr.violations["delta_bound"] == 0
        assert tr.violations["phi_sandwich"] == 0

    def test_tseng_has_no_direction_checks(self):
        # the forward-backward-forward step carries no contraction direction,
        # so invariant counting must not flag its nan placeholder
        prob = self._problem()
        u = np.array([1.5, -1.0])
        uf, tr = run_baseline(
            BaselineConfig("tseng"), prob, u, u,
            StoppingRule("successive_diff", 1e-9),
            max_iters=100, check_invariants=True,
        )
        assert tr.total_violations == 0

    def test_zw_schedule_diverges_on_cubic(self):
        # lam_k = k/(k+1) is far too large for a cubic forward map
        prob = self._problem()
        u = np.array([3.0, -3.0])
        cfg = BaselineConfig("zw", lambda_mode="schedule", gamma=0.5)
        uf, tr = run_baseline(cfg, prob, u, u, StoppingRule("successive_diff", 1e-9),
                              max_iters=200)
        assert tr.status in (TerminalStatus.DIVERGED, TerminalStatus.ITER_CAP)

    def test_tseng_converges_on_non_lipschitz_problem(self):
        # the forward-backward-forward scheme shares the backtracking, so
        # the cubic map poses no step-size problem
        prob = self._problem()
        u = np.array([2.0, -2.0])
        uf, tr = run_baseline(
            BaselineConfig("tseng"), prob, u, u,
            StoppingRule("successive_diff", 1e-10), max_iters=800,
        )
        assert tr.status is TerminalStatus.CONVERGED
        assert np.linalg.norm(uf) <= 1e-6

    def test_jx_solves_box_variational_inequality(self):
        # B(u) = u - a with a outside the box: the solution is the
        # projection of a onto the box
        a = np.array([2.0, -3.0, 0.25])
        lo, hi = np.zeros(3), np.ones(3)
        prob = Problem(
            forward=ForwardOperator(lambda u: u - a),
            resolvent=box_resolvent(lo, hi),
            space=euclidean(3),
        )
        u0 = np.array([0.5, 0.5, 0.5])
        uf, tr = run_baseline(
            BaselineConfig("jx"), prob, u0, u0,
            StoppingRule("successive_diff", 1e-12), max_iters=300,
        )
        expected = np.clip(a, lo, hi)
        np.testing.assert_allclose(uf, expected, atol=1e-8)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            BaselineConfig("nope")

    @pytest.mark.parametrize(
        "options, name",
        [
            ({"method": "jx", "gamma": 5.0}, "gamma"),
            ({"method": "tseng", "lam": 5.0}, "lam"),
            ({"method": "fb", "armijo": LineSearchParams()}, "armijo"),
            ({"method": "tc", "lambda_mode": "armijo"}, "lambda_mode"),
            ({"method": "tseng", "armijo": LineSearchParams(warm_start=True)}, "warm_start"),
        ],
        ids=["jx-gamma", "tseng-lam", "fb-armijo", "tc-lambda_mode", "warm_start"],
    )
    def test_settings_the_method_does_not_read_are_rejected(self, options, name):
        with pytest.raises(ValueError, match=name):
            BaselineConfig(**options)

    def test_defaults_and_labels_are_the_settings_read(self):
        prob = self._problem()
        u = np.array([0.5, -0.5])
        stop = StoppingRule("iter_cap_only")
        expected = {
            "fb": {},
            "tseng": {},
            "jx": {},
            "zw": {"gamma": 0.5, "lambda_mode": "schedule"},
            "tc": {"gamma": 1.0, "mu_tc": 0.5},
        }
        for method, labels in expected.items():
            cfg = BaselineConfig(method)
            assert (cfg.gamma is None) == (method in ("fb", "tseng", "jx"))
            _, tr = run_baseline(cfg, prob, u, u, stop, max_iters=1)
            assert tr.labels == labels

    @pytest.mark.parametrize("lam", [float("inf"), float("nan"), lambda k: float("inf"), 0.0])
    def test_step_must_be_positive_and_finite(self, lam):
        # an infinite fb step used to run on and end diverged
        with pytest.raises(ValueError, match=r"^step lam_1 = .* must be positive and finite$"):
            BaselineConfig(method="fb", lam=lam).lam_at(1)


class TestDispatchWiring:
    """``run_baseline`` and ``solve`` must be nothing but the method table's step iterated.

    Each method runs 5 iterations through the shared loop and by hand; every
    trace record and every iterate must agree to the last bit.
    """

    ITERS = 5

    def _problem(self):
        rng = np.random.default_rng(11)
        d = 6
        M = _random_monotone_linear(rng, d)
        M /= np.linalg.norm(M, 2)
        prob = Problem(
            forward=linear_forward(M), resolvent=l1_resolvent(0.1), space=euclidean(d)
        )
        return prob, rng.standard_normal(d), rng.standard_normal(d)

    @staticmethod
    def _by_hand(step, u0, u1, space):
        """Iterate ``step(k, u_prev, u_curr) -> (u_next, outcome)`` and build the expected rows."""
        iterates, rows = [], []
        u_prev, u_curr = u0, u1
        for k in range(1, TestDispatchWiring.ITERS + 1):
            u_next, out = step(k, u_prev, u_curr)
            rows.append(
                (out.theta, out.point.lam, out.point.j, out.delta, out.res_wv, out.phi_norm,
                 space.norm(u_next - u_curr), out.point.forward_evals, out.point.resolvent_evals)
            )
            iterates.append(u_next)
            u_prev, u_curr = u_curr, u_next
        return iterates, rows

    def _assert_loop_matches(self, drive, step, prob, u0, u1):
        iterates, rows = self._by_hand(step, u0, u1, prob.space)
        for n in range(1, self.ITERS + 1):
            u_final, trace = drive(n)
            assert trace.iterations == n
            assert u_final.tobytes() == iterates[n - 1].tobytes()
        got = [
            (r.theta, r.lam, r.j, r.delta, r.res_wv, r.phi_norm, r.step_diff,
             r.forward_evals, r.resolvent_evals)
            for r in trace.records
        ]
        # compare through the bytes so that nan placeholders compare equal
        assert np.array(got).tobytes() == np.array(rows).tobytes()

    def _baseline_run(self, cfg, prob, u0, u1):
        stop = StoppingRule("iter_cap_only")
        return lambda n: run_baseline(cfg, prob, u0, u1, stop, max_iters=n)

    @staticmethod
    def _table_step(cfg, prob):
        """The table's step of ``cfg`` by hand, from a fresh row each iteration."""
        return lambda k, up, uc: one_step(cfg, k, up, uc, prob.forward, prob.resolvent, prob.space)

    def test_fb(self):
        prob, u0, u1 = self._problem()
        cfg = BaselineConfig("fb", lam=lambda k: 0.3 / k)
        step = self._table_step(cfg, prob)
        self._assert_loop_matches(self._baseline_run(cfg, prob, u0, u1), step, prob, u0, u1)

    def test_tseng(self):
        prob, u0, u1 = self._problem()
        cfg = BaselineConfig("tseng")
        step = self._table_step(cfg, prob)
        self._assert_loop_matches(self._baseline_run(cfg, prob, u0, u1), step, prob, u0, u1)

    def test_zw_schedule(self):
        prob, u0, u1 = self._problem()
        cfg = BaselineConfig("zw")
        step = self._table_step(cfg, prob)
        self._assert_loop_matches(self._baseline_run(cfg, prob, u0, u1), step, prob, u0, u1)

    def test_zw_armijo(self):
        prob, u0, u1 = self._problem()
        jx = self._table_step(BaselineConfig("jx"), prob)
        for gamma in (1.0, 0.7):
            cfg = BaselineConfig("zw", lambda_mode="armijo", gamma=gamma)

            def step(k, up, uc):
                ls = backtrack(uc, prob.forward, prob.resolvent, cfg.armijo, space=prob.space)
                core = contraction_update(
                    uc, ls.v, ls.b_w, ls.b_v, ls.lam, cfg.gamma, prob.space, _PHI_ZERO_TOL
                )
                if gamma == 1.0:  # at relaxation 1 this is the projection-type step
                    u_jx, _ = jx(k, up, uc)
                    assert u_jx.tobytes() == core.u_next.tobytes()
                return core.u_next, dataclasses.replace(core, point=ls)

            self._assert_loop_matches(
                self._baseline_run(cfg, prob, u0, u1), step, prob, u0, u1
            )

    def test_jx(self):
        prob, u0, u1 = self._problem()
        cfg = BaselineConfig("jx")
        step = self._table_step(cfg, prob)
        self._assert_loop_matches(self._baseline_run(cfg, prob, u0, u1), step, prob, u0, u1)

    def test_tc(self):
        prob, u0, u1 = self._problem()
        cfg = BaselineConfig("tc")
        step = self._table_step(cfg, prob)
        self._assert_loop_matches(self._baseline_run(cfg, prob, u0, u1), step, prob, u0, u1)

    def test_solve(self):
        prob, u0, u1 = self._problem()
        for warm in (False, True):
            base = SolverConfig(
                linesearch=LineSearchParams(warm_start=warm),
                inertia=InertiaSchedule("constant", 0.3),
                stop=StoppingRule("iter_cap_only"),
            )
            row = base._row()  # one row for the run: it carries the warm search's start
            last_j = [0]

            def step(k, up, uc):
                assert row.j_start == (max(0, last_j[0] - 1) if warm else 0)
                u_next, out = _step(row, k, up, uc, prob)
                last_j[0] = out.point.j
                return u_next, out

            drive = lambda n: solve(prob, u0, u1, dataclasses.replace(base, max_iters=n))
            self._assert_loop_matches(drive, step, prob, u0, u1)


def test_the_method_table_has_one_row_per_method_and_the_readme_shows_it():
    from pathlib import Path

    assert list(_METHODS) == ["ifb", *SETTINGS]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = re.findall(r"`([^`]+)`", line)
        if line.startswith("| `") and len(cells) == 4 and cells[0] in _METHODS:
            rows[cells[0]] = tuple(cells[1:])
    assert rows == _METHODS


@pytest.mark.parametrize("family", list(SMALL_PROBLEMS))
def test_traces_hand_out_python_scalars(family):
    # perfbench json-dumps record fields and trace totals, and
    # json.dumps(np.int64(3)) raises: every value must be a Python int or float
    runs = every_method(SMALL_PROBLEMS[family](), 12)
    fields = [(f.name, {"int": int, "float": float}[f.type]) for f in dataclasses.fields(IterationRecord)]
    totals = (
        "iterations", "total_forward_evals", "total_resolvent_evals", "total_violations",
        "total_certified", "total_speculative",
    )
    for name, run in runs.items():
        _, tr = run()
        assert tr.records, name
        for record in tr.records:
            for field, kind in fields:
                assert type(getattr(record, field)) is kind, (name, record.k, field)
        for total in totals:
            assert type(getattr(tr, total)) is int, (name, total)
        assert type(tr.min_lambda) is float, name


def test_the_decrease_check_reaches_every_contraction_method_through_the_problem():
    # B(u) = M(u - u*) with M PSD plus skew and A = 0: u* != 0 is the one
    # solution, and the problem itself says so
    rng = np.random.default_rng(23)
    d = 4
    M = _random_monotone_linear(rng, d)
    M /= np.linalg.norm(M, 2)  # zw's schedule steps k/(k+1) < 1 then contract
    u_star = rng.uniform(1.0, 2.0, d) * rng.choice([-1.0, 1.0], d)
    prob = Problem(
        ForwardOperator(lambda u: M @ (u - u_star)), identity_resolvent(), euclidean(d),
        reference=u_star, reference_is_solution=True,
    )
    u = rng.standard_normal(d)
    stop = StoppingRule("iter_cap_only")
    runs = {
        "ifb": lambda p: solve(p, u, u, SolverConfig(stop=stop, max_iters=30, check_invariants=True)),
        **{
            name: lambda p, cfg=cfg: run_baseline(cfg, p, u, u, stop, max_iters=30, check_invariants=True)
            for name, cfg in {
                "zw[armijo]": BaselineConfig("zw", lambda_mode="armijo"),
                "jx": BaselineConfig("jx"),
                "zw[schedule]": BaselineConfig("zw"),
            }.items()
        },
    }
    for name, run in runs.items():
        _, trace = run(prob)
        assert trace.invariants_checked, name
        assert trace.iterations == 30 and trace.total_violations == 0, (name, trace.violations)
    # a reference that is not the solution, marked as one, breaks the decrease
    # of the baselines whose Armijo points carry a decrement; zw's fixed steps carry none
    off = dataclasses.replace(prob, reference=u_star + 1.0)
    fejer = {name: run(off)[1].violations["fejer"] for name, run in runs.items() if name != "ifb"}
    assert fejer["zw[armijo]"] > 0 and fejer["jx"] > 0 and fejer["zw[schedule]"] == 0, fejer
