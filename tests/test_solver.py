import dataclasses

import numpy as np
import pytest

from _cases import cases, mu_with_cap
from _table import one_step
from mvisolve.baselines import BaselineConfig, run_baseline

from mvisolve.linesearch import LineSearchParams
from mvisolve.operators import (
    cubic_forward,
    identity_forward,
    identity_resolvent,
    l1_resolvent,
    zero_forward,
)
from mvisolve.problems import Problem, cubic_problem, strongly_monotone_problem
from mvisolve.solver import (
    DivergenceError,
    InertiaSchedule,
    InsufficientTrace,
    IterationTrace,
    SolverConfig,
    StoppingRule,
    TerminalStatus,
    analysis_constants,
    rate_estimate,
    slope_of_min_residuals,
    solve,
)
from mvisolve.spaces import euclidean


def _cfg(**kw):
    defaults = dict(
        gamma=1.0,
        linesearch=LineSearchParams(1.0, 0.5, 0.9),
        inertia=InertiaSchedule("constant", 0.0),
        stop=StoppingRule("iter_cap_only"),
        max_iters=50,
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


class TestConfig:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            _cfg(gamma=2.0)
        with pytest.raises(ValueError):
            _cfg(gamma=0.0)

    def test_inertia_bounds(self):
        with pytest.raises(ValueError):
            InertiaSchedule("constant", 1.0)

    def test_experiment_schedule_shape(self):
        sched = InertiaSchedule("experiment", 0.12)
        vals = [sched.value(k) for k in range(1, 30)]
        assert vals[4] == pytest.approx(0.12 * np.sqrt(5) / 10)
        assert max(vals) <= 0.12
        assert vals[10] > vals[25]  # decreasing after k = 5

    def test_stopping_rule_validation(self):
        with pytest.raises(ValueError):
            StoppingRule("successive_diff", 0.0)
        StoppingRule("iter_cap_only")
        # a distance stop takes its reference from the problem, so it is
        # checked when a run starts, against the problem it runs on
        stop = StoppingRule("distance_to_reference", 1e-3)
        prob = Problem(identity_forward(), identity_resolvent(), euclidean(2))
        u = np.ones(2)
        with pytest.raises(ValueError, match="distance_to_reference needs a reference point"):
            solve(prob, u, u, SolverConfig(stop=stop))
        with pytest.raises(ValueError, match="distance_to_reference needs a reference point"):
            run_baseline(BaselineConfig("fb"), prob, u, u, stop)
        _, trace = solve(dataclasses.replace(prob, reference=np.zeros(2)), u, u, SolverConfig(stop=stop))
        assert trace.status is TerminalStatus.CONVERGED
        assert trace.final_err == trace.final_dist2 <= 1e-3

    def test_theoretical_cap_at_benchmark_settings(self):
        # direct evaluation at gamma=1.9, sigma=0.9: the cap is tiny
        consts = analysis_constants(1.9, 0.9)
        e = consts["margin"]
        assert e == pytest.approx(((2 - 1.9) / 1.9) * ((1 - 0.9) / (1 + 0.9)) ** 4)
        assert e == pytest.approx(4.04e-7, rel=2e-3)
        cap = consts["inertia_cap"]
        assert cap == pytest.approx(e / (e + 1.0))
        assert cap == pytest.approx(4.04e-7, rel=2e-3)

    def test_default_inertia_is_99pct_of_cap(self):
        cfg = SolverConfig()
        assert cfg.inertia.kind == "experiment"
        # the default and analysis() read one derivation, so they agree exactly
        assert cfg.inertia.theta_max == 0.99 * cfg.analysis()["inertia_cap"]
        assert cfg.inertia.theta_max == 3.998223011994669e-07

    def test_analysis_constants_with_strong_monotonicity(self):
        c = analysis_constants(1.0, 0.5, lam_min=1.0, beta=0.2)
        alpha = ((1 - 0.5) / (1 + 0.5)) ** 2
        assert c["alpha"] == pytest.approx(alpha)
        assert c["zeta"] == pytest.approx(1.0 * alpha)
        assert c["tau"] == pytest.approx(1.0 - 0.5 * alpha * min(1.0, 0.4))
        assert 0 < c["inertia_cap_strong"] <= c["inertia_cap"]


class TestIfbStep:
    def test_prox_only_step(self):
        # A = l1 subdifferential (rho=1), B = 0: one step is the prox
        u = np.array([3.0])
        u_next, out = one_step(_cfg(), 1, u, u, zero_forward(), l1_resolvent(1.0))
        assert out.point.lam == 1.0 and out.point.j == 0
        assert out.delta == 1.0
        np.testing.assert_array_equal(u_next, [2.0])

    def test_fixed_point_returns_phizero(self):
        u = np.zeros(2)
        u_next, out = one_step(_cfg(), 1, u, u, identity_forward(), identity_resolvent())
        assert out.phizero
        np.testing.assert_array_equal(u_next, u)

    def test_linear_closed_form(self):
        # A=0, B=identity, s=1, mu=0.5, sigma=0.9: lam=0.5, v=0.5,
        # phi=0.25, delta=2, u_next=0.5; delta inside [0.0277, 10].
        u = np.array([1.0])
        u_next, out = one_step(_cfg(), 1, u, u, identity_forward(), identity_resolvent())
        assert out.point.lam == 0.5
        assert out.delta == pytest.approx(2.0)
        np.testing.assert_allclose(u_next, [0.5])
        lo = (1 - 0.9) / (1 + 0.9) ** 2
        hi = 1 / (1 - 0.9)
        assert lo <= out.delta <= hi

    def test_prox_reduction_is_exact(self):
        # theta=0, B=0, gamma=1 must reproduce the backward step exactly;
        # values are chosen inside the exactly-representable regime
        rng = np.random.default_rng(0)
        u = 1.0 + rng.random(6)  # in [1, 2)
        res = l1_resolvent(1.0)
        cfg = _cfg(linesearch=LineSearchParams(0.25, 0.5, 0.9))
        u_next, out = one_step(cfg, 3, u, u, zero_forward(), res)
        np.testing.assert_array_equal(u_next, res(u, 0.25))

    def test_divergence_guard(self):
        big = np.full(2, 1e160)
        with pytest.raises(DivergenceError):
            one_step(_cfg(), 1, big, big, zero_forward(), identity_resolvent())


class TestSolve:
    def test_everything_solves_trivial_problem(self):
        # B=0 and A=0: every point solves the inclusion; phi-zero at k=1
        prob = Problem(zero_forward(), identity_resolvent(), euclidean(2))
        u1 = np.array([0.3, -0.7])
        uf, tr = solve(prob, u1, u1, _cfg())
        assert tr.status is TerminalStatus.PHI_ZERO
        assert tr.iterations == 1
        np.testing.assert_array_equal(uf, u1)

    def test_cubic_forward_converges_to_zero(self):
        prob = cubic_problem((2.0, -2.0))
        cfg = SolverConfig(
            stop=StoppingRule("iter_cap_only"), max_iters=500, check_invariants=True
        )
        uf, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert np.linalg.norm(uf) <= 1e-6
        assert tr.iterations <= 500
        assert tr.total_violations == 0

    def test_min_lambda_positive_on_completed_run(self):
        prob = cubic_problem((1.5, -0.5))
        uf, tr = solve(prob, prob.u0, prob.u1, SolverConfig(max_iters=200))
        assert tr.min_lambda > 0.0

    def test_trace_determinism_bitwise(self):
        prob = strongly_monotone_problem(np.array([2.0, -1.0, 0.5]))
        cfg = SolverConfig(stop=StoppingRule("successive_diff", 1e-10), max_iters=300)
        u_a, tr_a = solve(prob, prob.u0, prob.u1, cfg)
        u_b, tr_b = solve(prob, prob.u0, prob.u1, cfg)
        np.testing.assert_array_equal(u_a, u_b)
        assert tr_a.iterations == tr_b.iterations
        for ra, rb in zip(tr_a.records, tr_b.records):
            assert ra.lam == rb.lam
            assert ra.delta == rb.delta
            assert ra.res_wv == rb.res_wv
            assert ra.err == rb.err

    def test_invariants_hold_each_iteration(self):
        prob = cubic_problem((2.0, -2.0))
        cfg = SolverConfig(
            gamma=1.2,
            linesearch=LineSearchParams(1.0, 0.5, 0.6),
            stop=StoppingRule("iter_cap_only"),
            max_iters=200,
            check_invariants=True,
        )
        uf, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert tr.invariants_checked
        assert tr.violations == {"delta_bound": 0, "phi_sandwich": 0, "fejer": 0}
        sigma = 0.6
        for rec in tr.records:
            if np.isfinite(rec.delta):
                assert (1 - sigma) / (1 + sigma) ** 2 - 1e-12 <= rec.delta <= 1 / (1 - sigma) + 1e-12
                assert (1 - sigma) * rec.res_wv - 1e-12 <= rec.phi_norm
                assert rec.phi_norm <= (1 + sigma) * rec.res_wv + 1e-12

    def test_fejer_decrease_against_known_solution(self):
        prob = strongly_monotone_problem(np.array([1.0, -2.0]))
        cfg = SolverConfig(
            stop=StoppingRule("iter_cap_only"), max_iters=150, check_invariants=True
        )
        uf, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert tr.violations["fejer"] == 0
        # distances to the solution shrink after the initial transient
        d = tr.array("dist2_ref")
        assert d[-1] < d[0]

    def test_divergence_status(self):
        # the expanding, non-monotone map B(u) = -u with no resolvent damping:
        # every accepted step moves the iterate outward until the guard stops it
        expanding = Problem(forward=lambda u: -u, resolvent=identity_resolvent(), space=euclidean(1))
        cfg = SolverConfig(
            gamma=1.99,
            linesearch=LineSearchParams(s=1e3, mu=0.99, sigma=0.99),
            stop=StoppingRule("iter_cap_only"),
            max_iters=500,
        )
        uf, tr = solve(expanding, np.array([10.0]), np.array([10.0]), cfg)
        assert tr.status is TerminalStatus.DIVERGED

    def test_backtrack_exhaustion_status(self):
        jumpy = Problem(
            forward=lambda u: np.where(u > 0, 1.0, -1.0),
            resolvent=identity_resolvent(),
            space=euclidean(1),
        )
        cfg = SolverConfig(
            linesearch=LineSearchParams(mu=mu_with_cap(20)),
            stop=StoppingRule("iter_cap_only"),
            max_iters=10,
        )
        uf, tr = solve(jumpy, np.array([0.0]), np.array([0.0]), cfg)
        assert tr.status is TerminalStatus.BACKTRACK_EXHAUSTED

    def test_residual_stopping_rule(self):
        prob = cubic_problem((2.0, -2.0))
        cfg = SolverConfig(stop=StoppingRule("residual", 1e-4), max_iters=500)
        uf, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert tr.status is TerminalStatus.CONVERGED
        assert tr.records[-1].res_wv <= 1e-4

    def test_analysis_kappa_and_the_two_inertia_caps(self):
        # kappa > 0 needs theta < margin/(margin + 1 + max(1, margin)), a
        # strictly smaller bound than the advertised cap; both are exposed
        # and the discrepancy is pinned here
        cfg = SolverConfig()
        consts = cfg.analysis()
        assert consts["inertia_cap_summable"] < consts["inertia_cap"]
        below = analysis_constants(
            cfg.gamma, cfg.linesearch.sigma, theta=0.99 * consts["inertia_cap_summable"]
        )
        assert below["kappa"] > 0.0
        at_advertised_cap = analysis_constants(
            cfg.gamma, cfg.linesearch.sigma, theta=consts["inertia_cap"]
        )
        assert at_advertised_cap["kappa"] < 0.0

    def test_warm_start_labelled_and_runs(self):
        prob = cubic_problem((2.0, -2.0))
        cfg = SolverConfig(
            linesearch=LineSearchParams(warm_start=True),
            stop=StoppingRule("successive_diff", 1e-8),
            max_iters=400,
        )
        uf, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert tr.labels["warm_start"] is True
        assert tr.status is TerminalStatus.CONVERGED

    def test_warm_start_saves_search_work(self):
        prob = cubic_problem((3.0, -3.0))
        stop = StoppingRule("successive_diff", 1e-9)
        cold = SolverConfig(stop=stop, max_iters=500)
        warm = SolverConfig(
            linesearch=LineSearchParams(warm_start=True), stop=stop, max_iters=500
        )
        _, tr_cold = solve(prob, prob.u0, prob.u1, cold)
        _, tr_warm = solve(prob, prob.u0, prob.u1, warm)
        assert tr_warm.total_resolvent_evals < tr_cold.total_resolvent_evals

    def test_known_solution_on_the_problem_enables_decrease_check(self):
        u_star = np.zeros(2)
        prob = Problem(cubic_forward(), l1_resolvent(1.0), euclidean(2), reference=u_star, reference_is_solution=True)
        cfg = SolverConfig(
            stop=StoppingRule("iter_cap_only"), max_iters=100, check_invariants=True
        )
        u = np.array([2.0, -2.0])
        uf, tr = solve(prob, u, u, cfg)
        assert tr.invariants_checked
        assert tr.violations["fejer"] == 0


def test_contraction_scalar_and_direction_bounds_hold():
    # property form of the runtime invariants: for any admissible config and
    # any monotone linear forward map, every accepted iteration satisfies the
    # direction sandwich and the scalar bounds
    from mvisolve.operators import l1_resolvent, linear_forward
    from mvisolve.spaces import euclidean

    # gamma in [0.05, 1.95], sigma in [0.1, 0.9], the start's scale in
    # [0.1, 5] and the problem's seed in 0..10000: every corner, then 60 draws
    for case in cases(61, 60, (0.05, 1.95), (0.1, 0.9), (0.1, 5.0), (0, 10_000)):
        gamma, sigma, scale, seed = case
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        S = rng.standard_normal((d, d))
        W = rng.standard_normal((d, d))
        M = S.T @ S + 0.5 * (W - W.T)
        prob = Problem(linear_forward(M), l1_resolvent(0.3), euclidean(d))
        cfg = SolverConfig(
            gamma=gamma,
            linesearch=LineSearchParams(1.0, 0.5, sigma),
            inertia=InertiaSchedule("constant", 0.0),
            stop=StoppingRule("iter_cap_only"),
            max_iters=8,
            check_invariants=True,
        )
        u = rng.standard_normal(d) * scale
        _, tr = solve(prob, u, u, cfg)
        assert tr.violations["delta_bound"] == 0, case
        assert tr.violations["phi_sandwich"] == 0, case


class TestSolutionCertificate:
    def test_final_iterate_satisfies_first_order_optimality(self):
        # end-to-end pipeline check: drive the sparse-recovery problem to a
        # tight fixed-point residual, then certify the subgradient condition
        # of the underlying objective coordinate by coordinate
        from mvisolve.problems import gen_cs

        prob = gen_cs(64, 32, 4, snr_db=40.0, seed=6)
        rho = prob.metadata["rho"]
        cfg = SolverConfig(stop=StoppingRule("residual", 1e-12), max_iters=3000)
        uf, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert tr.status is TerminalStatus.CONVERGED
        g = prob.forward(uf)
        on_support = np.abs(uf) > 1e-12
        assert np.all(np.abs(g[on_support] + rho * np.sign(uf[on_support])) <= 1e-6)
        assert np.all(np.abs(g[~on_support]) <= rho + 1e-6)


class TestRateEstimate:
    def test_constant_residuals_zero_slope(self):
        slope = slope_of_min_residuals(np.full(100, 0.25))
        assert abs(slope) <= 1e-12

    def test_exact_power_law(self):
        k = np.arange(1, 201, dtype=float)
        slope = slope_of_min_residuals(k**-0.5)
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_insufficient_trace(self):
        with pytest.raises(InsufficientTrace):
            slope_of_min_residuals(np.ones(10))

    def test_accepts_trace_object(self):
        prob = cubic_problem((2.0, -2.0))
        cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=120)
        uf, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert isinstance(tr, IterationTrace)
        slope = rate_estimate(tr)
        assert slope < 0.0


def test_public_steps_return_the_exported_step_record():
    import mvisolve as mv

    assert "StepOutcome" in mv.solver.__all__ and mv.StepOutcome is mv.solver.StepOutcome
    w, v = np.array([1.0, -1.0]), np.array([0.5, -0.25])
    record = mv.contraction_update(w, v, w, v, 0.5, 1.0, euclidean(2), 1e-14)
    assert type(record) is mv.StepOutcome
    prob = cubic_problem((2.0, -2.0))
    _, out = one_step(_cfg(), 1, prob.u0, prob.u1, prob.forward, prob.resolvent, prob.space)
    assert type(out) is mv.StepOutcome
    _, out = one_step(BaselineConfig("fb", lam=0.1), 1, prob.u1, prob.u1, prob.forward, prob.resolvent, prob.space)
    assert type(out) is mv.StepOutcome
    # the single steps are rows of the private method table; one step of a
    # method is solve(..., max_iters=1) or run_baseline(..., max_iters=1)
    for name in ("ifb_step", "fb_step", "tseng_step", "zw_step", "tc_step", "jx_step"):
        assert not hasattr(mv, name) and name not in mv.solver.__all__ + mv.baselines.__all__
