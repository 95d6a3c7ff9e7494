"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import dataclasses
import time

import numpy as np

from _table import one_step
from mvisolve.baselines import BaselineConfig, run_baseline
from mvisolve.bench import RunSpec, run
from mvisolve.linesearch import LineSearchParams
from mvisolve.operators import (
    box_resolvent,
    identity_forward,
    identity_resolvent,
    l1_resolvent,
    linear_forward,
    lpa_gradient,
    quartic_fidelity_gradient,
    soft_threshold,
    zero_forward,
)
from mvisolve.problems import (
    _spike_measurements,
    cubic_problem,
    gen_cs,
    gen_l2,
    strongly_monotone_problem,
)
from mvisolve.solver import (
    InertiaSchedule,
    SolverConfig,
    StoppingRule,
    TerminalStatus,
    rate_estimate,
    solve,
)
from mvisolve.spaces import euclidean

from _oracles import (
    central_diff_gradient,
    contraction_crossing,
    loglinear_fit,
    lpa_objective,
    prox_1d_grid,
    prox_l1_grid,
    quartic_objective,
)


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_invariant_suite():
    """Zero delta-bound and phi-sandwich violations across the benchmark grid, < 60 s."""
    t0 = time.time()
    raw = {
        "output_dir": "/tmp/mvisolve_acceptance_c1",
        "repetitions": 1,
        "max_iters": 250,
        "check_invariants": True,
        "stop": {"kind": "successive_diff", "tol": 1e-7},
        "problems": [
            {"family": "cs", "d": 128, "m": 64, "l": 5, "seeds": [1, 2, 3]},
            {"family": "cs", "d": 512, "m": 256, "l": 10, "seeds": [1, 2, 3]},
            {"family": "lpa", "d": 128, "m": 64, "l": 5, "seeds": [1, 2, 3]},
            {"family": "l2", "n": 1001, "cases": [1, 2, 3]},
        ],
        "solvers": [{"method": "ifb"}],
    }
    report = run(RunSpec.from_dict(raw))
    elapsed = time.time() - t0
    violations = sum(c.violations for c in report.cells)
    ok = report.valid and violations == 0 and elapsed < 60.0
    _verdict(1, ok, f"{len(report.cells)} cells, {violations} violations, {elapsed:.1f} s")
    assert violations == 0
    assert report.valid
    assert elapsed < 60.0


def test_criterion_2_fejer_decrease():
    """Per-iteration decrease vs the known solution on the integral-space and cubic problems."""
    failures = 0
    runs = 0
    for prob, tol, iters in (
        (gen_l2(1, 1001), 1e-12, 400),
        (gen_l2(4, 1001), 1e-12, 400),
        (cubic_problem((2.0, -2.0)), None, 400),
    ):
        stop = (
            StoppingRule("successive_diff", tol)
            if tol
            else StoppingRule("iter_cap_only")
        )
        cfg = SolverConfig(stop=stop, max_iters=iters, check_invariants=True)
        _, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert tr.iterations > 10
        failures += tr.violations["fejer"]
        runs += tr.iterations
    ok = failures == 0
    _verdict(2, ok, f"{runs} iterations checked, {failures} decrease failures")
    assert failures == 0


def test_criterion_3_sublinear_rate():
    """Residual decay slope at most -0.35 on the 128-dim recovery problem."""
    prob = gen_cs(128, 64, 5, snr_db=40.0, seed=1)
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=220)
    _, tr = solve(prob, prob.u0, prob.u1, cfg)
    assert tr.iterations >= 200
    slope = rate_estimate(tr)
    ok = slope <= -0.35
    _verdict(3, ok, f"slope {slope:.3f} over {tr.iterations} iterations")
    assert slope <= -0.35


def test_criterion_4_linear_rate_strongly_monotone():
    """Geometric error fit with R^2 >= 0.95 on the strongly monotone problem."""
    rho, beta = 0.1, 0.1
    prob = strongly_monotone_problem(np.array([1.0, -0.7, 0.4, 2.0]), rho=rho, beta=beta)

    # resolvent verified against the brute-force scalar prox
    lam = 1.3
    for x in (-2.0, -0.3, 0.05, 1.7):
        brute = prox_1d_grid(x, lambda y: lam * (rho * abs(y) + 0.5 * beta * y * y), step=1e-4)
        got = prob.resolvent(np.array([x]), lam)[0]
        assert abs(got - brute) <= 1e-3

    cfg = SolverConfig(
        stop=StoppingRule("distance_to_reference", 1e-22, reference=prob.reference),
        max_iters=2000,
        check_invariants=True,
    )
    _, tr = solve(prob, prob.u0, prob.u1, cfg)
    dist = np.sqrt(tr.array("dist2_ref"))
    below = np.nonzero(dist <= 1e-10)[0]
    assert below.size > 0, "run never reached 1e-10"
    idx = int(below[0])
    assert idx >= 30, "fewer than 30 iterations before reaching 1e-10"
    ks = np.arange(idx - 30, idx)
    theta, r2 = loglinear_fit(ks, dist[idx - 30 : idx])
    ok = theta < 1.0 and r2 >= 0.95
    _verdict(4, ok, f"theta {theta:.4f}, R^2 {r2:.5f}, window [{idx-30}, {idx})")
    assert theta < 1.0
    assert r2 >= 0.95
    assert tr.total_violations == 0


def _identity_shift_problem(beta):
    """``A = beta*I`` and the log map, from criterion 4's start; zero solves it.

    ``strongly_monotone_problem`` at ``rho = 0`` has the resolvent ``x/(1 + lam*beta)``.
    """
    start = np.array([1.0, -0.7, 0.4, 2.0])
    if beta > 0:
        return strongly_monotone_problem(start, rho=0.0, beta=beta)
    # its resolvent needs beta > 0; A = 0 has the identity resolvent
    return dataclasses.replace(strongly_monotone_problem(start, rho=0.0), resolvent=l1_resolvent(0.0))


def test_criterion_4_companion_rate_needs_strong_monotonicity():
    """The linear rate needs ``beta > 0``: the tail ratio is within ``tau(lam_min, beta)``, and ``A = 0`` is not linear.

    Criterion 4 cannot fail for want of strong monotonicity: inside the l1
    dead zone ``v = u* = 0`` exactly, and its fitted ratio is
    ``gamma - 1`` whatever ``beta`` is.  With ``A = beta*I`` the set-valued
    part is strongly monotone exactly when ``beta > 0``.  Measured at
    ``beta`` = 1, 0.1 and 0.01: 10, 121 and 1,114 iterations to dist^2
    1e-22, tail distance ratios 0.05, 0.83 and 0.98, against ``tau``
    0.99974, 0.99974 and 0.99997; at ``beta = 0``, distance 3.4e-4 at the
    3,000 cap.
    """
    for beta in (1.0, 0.1, 0.01, 0.0):
        prob = _identity_shift_problem(beta)
        cfg = SolverConfig(
            stop=StoppingRule("distance_to_reference", 1e-22, reference=prob.reference),
            max_iters=3000,
            check_invariants=True,
        )
        _, tr = solve(prob, prob.u0, prob.u1, cfg)
        assert tr.total_violations == 0, beta
        dist = np.sqrt(tr.array("dist2_ref"))
        if beta == 0.0:
            _verdict("4c", tr.status is TerminalStatus.ITER_CAP, f"beta 0: distance {dist[-1]:.2g} at the cap")
            assert tr.status is TerminalStatus.ITER_CAP
            assert dist[-1] > 1e-4
            continue
        lam_min = float(tr.array("lam").min())
        tau = cfg.analysis(lam_min, beta)["tau"]
        ratio = (dist[-1] / dist[-6]) ** 0.2  # geometric mean over the last five iterations
        ok = tr.status is TerminalStatus.CONVERGED and ratio <= tau
        _verdict("4c", ok, f"beta {beta:g}: {tr.iterations} iterations, ratio {ratio:.4f}, tau {tau:.5f}")
        assert tr.status is TerminalStatus.CONVERGED, beta
        assert lam_min == 0.5
        assert ratio <= tau, (beta, ratio, tau)


def test_criterion_5_ordering_against_baselines():
    """512-dim recovery, 10 seeds: the error target is reached within the
    budget, at the iteration an independent transcription of the method
    predicts, and in strictly fewer iterations than the
    projection-contraction and viscosity baselines on the same instances.
    """
    budget = 300
    ifb_counts = []
    oracle_counts = []
    ordering_ok = 0
    for seed in range(1, 11):
        prob = gen_cs(512, 256, 10, snr_db=40.0, seed=seed)
        stop = StoppingRule("distance_to_reference", 1e-2, reference=prob.reference)
        cfg = SolverConfig(stop=stop, max_iters=budget)
        _, tr_ifb = solve(prob, prob.u0, prob.u1, cfg)
        converged = tr_ifb.status is TerminalStatus.CONVERGED
        n_ifb = tr_ifb.iterations if converged else None
        ifb_counts.append(n_ifb)
        # the oracle's inputs are the arrays the generator drew, not read back from the problem
        C, u_true, _, v_obs = _spike_measurements(512, 256, 10, 40.0, seed)
        oracle_counts.append(
            contraction_crossing(C, v_obs, prob.metadata["rho"], u_true, tol=1e-2, max_iters=budget)
        )

        # a seed counts only if the contraction solver reaches the target;
        # capped at its count, a baseline that reaches the target at all
        # does so in at most as many iterations, so strict ordering holds
        # iff neither baseline converges
        if converged:
            _, tr_zw = run_baseline(BaselineConfig("zw"), prob, prob.u0, prob.u1, stop, max_iters=n_ifb)
            _, tr_tc = run_baseline(BaselineConfig("tc"), prob, prob.u0, prob.u1, stop, max_iters=n_ifb)
            if TerminalStatus.CONVERGED not in (tr_zw.status, tr_tc.status):
                ordering_ok += 1

    all_converged = None not in ifb_counts
    oracle_agrees = ifb_counts == oracle_counts
    ok = all_converged and oracle_agrees and ordering_ok >= 9
    _verdict(
        5,
        ok,
        f"ifb iteration counts {ifb_counts}; oracle {oracle_counts}; "
        f"ordering held {ordering_ok}/10",
    )
    # At the pinned settings (s=1, mu=0.5, sigma=0.9, gamma=1.9, default
    # inertia ~4e-7, zero start) the squared error crosses 1e-2 at iteration
    # 136-231; no documented bound asks for fewer.  Only inertia far beyond
    # the admissible bound brings the crossing under 100 iterations: see the
    # README section "Criterion 5: iteration count at the pinned settings".
    assert all_converged, f"target not reached within {budget} iterations: {ifb_counts}"
    assert oracle_agrees, f"crossing iterations {ifb_counts} differ from the oracle's {oracle_counts}"
    assert ordering_ok >= 9


def test_criterion_6_bitwise_equivalence_zero_inertia():
    """Projection-contraction step equals the zero-inertia contraction step bitwise."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        S = rng.standard_normal((d, d))
        W = rng.standard_normal((d, d))
        M = S.T @ S + 0.5 * (W - W.T)
        lam = 0.9 * 0.9 / np.linalg.norm(M, 2)
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
            max_iters=1,
        )
        u_ifb, out_ifb = one_step(cfg, 1, u, u, fwd, res, space)
        assert out_ifb.point.j == 0
        u_zw, out_zw = one_step(BaselineConfig("zw", lam=lam, gamma=gamma), 1, u, u, fwd, res, space)
        assert np.array_equal(u_ifb, u_zw)
        assert out_ifb.delta == out_zw.delta or (
            np.isnan(out_ifb.delta) and np.isnan(out_zw.delta)
        )
        checked += 1
    _verdict(6, checked == 100, f"{checked}/100 instances bitwise equal")
    assert checked == 100


def test_criterion_7_prox_and_gradient_oracles():
    """Shrinkage matches the grid prox on 1000 scalars; both gradients match
    central finite differences to 1e-5 relative error at 100 points."""
    rng = np.random.default_rng(77)
    tau = 0.7
    us = rng.uniform(-3, 3, size=1000)
    worst = 0.0
    for u in us:
        worst = max(worst, abs(soft_threshold(np.array([u]), tau)[0] - prox_l1_grid(u, tau)))
    assert worst <= 1.01e-3

    C = rng.standard_normal((4, 6))
    v = rng.standard_normal(4)
    Q = rng.standard_normal((3, 5))
    q = rng.standard_normal(3)
    fq = quartic_objective(C, v)
    fl = lpa_objective(Q, q, 0.2, 1.5)
    worst_q = worst_l = 0.0
    for _ in range(100):
        u = rng.standard_normal(6)
        g = quartic_fidelity_gradient(C, v, u)
        fd = central_diff_gradient(fq, u, 1e-5 * (1 + np.linalg.norm(u)))
        worst_q = max(worst_q, np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)))
    for _ in range(100):
        u = rng.uniform(0.1, 1.5, size=5) * rng.choice([-1.0, 1.0], size=5)
        g = lpa_gradient(Q, q, 0.2, 1.5, u)
        fd = central_diff_gradient(fl, u, 1e-5 * (1 + np.linalg.norm(u)))
        worst_l = max(worst_l, np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)))
    ok = worst <= 1.01e-3 and worst_q <= 1e-5 and worst_l <= 1e-5
    _verdict(
        7, ok, f"prox gap {worst:.2e}, fd rel err quartic {worst_q:.2e} / power {worst_l:.2e}"
    )
    assert worst_q <= 1e-5
    assert worst_l <= 1e-5


def test_criterion_8_reduction_tests():
    """Zero inertia with unit relaxation reduces to the classical special cases."""
    # backward step: B = 0, gamma = 1 reproduces the prox exactly
    rng = np.random.default_rng(8)
    u = 1.0 + rng.random(6)
    res = l1_resolvent(1.0)
    cfg = SolverConfig(
        gamma=1.0,
        linesearch=LineSearchParams(0.25, 0.5, 0.9),
        inertia=InertiaSchedule("constant", 0.0),
        stop=StoppingRule("iter_cap_only"),
        max_iters=1,
    )
    u_next, _ = one_step(cfg, 1, u, u, zero_forward(), res)
    prox_exact = np.array_equal(u_next, res(u, 0.25))

    # explicit step: A = 0 in the forward-backward iteration
    w = rng.standard_normal(4)
    fwd = identity_forward()
    u_fb, _ = one_step(BaselineConfig("fb", lam=0.3), 1, w, w, fwd, identity_resolvent(), euclidean(4))
    explicit_exact = np.array_equal(u_fb, w - 0.3 * fwd(w))

    # normal-cone reduction: box projection, gamma=1, zero inertia matches
    # the projection-type method iterate for iterate
    d = 4
    lo, hi = -np.ones(d), np.ones(d)
    proj = box_resolvent(lo, hi)
    S = rng.standard_normal((d, d))
    M = S.T @ S + np.eye(d)
    fwd2 = linear_forward(M)
    p = LineSearchParams(1.0, 0.5, 0.9)
    cfg2 = SolverConfig(
        gamma=1.0,
        linesearch=p,
        inertia=InertiaSchedule("constant", 0.0),
        stop=StoppingRule("iter_cap_only"),
        max_iters=1,
    )
    u_a = u_b = rng.standard_normal(d) * 2
    box_matches = True
    for k in range(1, 11):
        u_a, out_a = one_step(cfg2, k, u_a, u_a, fwd2, proj, euclidean(d))
        u_b, out_b = one_step(BaselineConfig("jx", armijo=p), 1, u_b, u_b, fwd2, proj, euclidean(d))
        if not np.array_equal(u_a, u_b):
            box_matches = False
            break
        if out_a.phizero:
            break

    ok = prox_exact and explicit_exact and box_matches
    _verdict(
        8,
        ok,
        f"prox reduction {prox_exact}, explicit reduction {explicit_exact}, "
        f"normal-cone reduction {box_matches}",
    )
    assert prox_exact
    assert explicit_exact
    assert box_matches
