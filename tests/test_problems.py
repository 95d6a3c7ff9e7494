import numpy as np
import pytest

from mvisolve.problems import (
    LpaInstance,
    assemble,
    cubic_problem,
    gen_cs,
    gen_l2,
    strongly_monotone_problem,
    table_initials,
)
from mvisolve.solver import SolverConfig, StoppingRule, solve

from _oracles import prox_1d_grid


class TestGenCS:
    def test_shapes_match_benchmark_columns(self):
        a = gen_cs(512, 256, 10, 40.0, seed=3)
        assert a.C.shape == (256, 512)
        assert a.v_obs.shape == (256,)
        assert a.l == 10
        b = gen_cs(1024, 512, 20, 40.0, seed=3)
        assert b.C.shape == (512, 1024)
        assert b.l == 20

    def test_spikes_in_range(self):
        inst = gen_cs(128, 64, 7, seed=5)
        nz = inst.u_true[inst.u_true != 0]
        assert len(nz) == 7
        assert np.all(np.abs(nz) <= 2.0)

    def test_achieved_snr_exact(self):
        for seed in (0, 1, 2):
            inst = gen_cs(128, 64, 5, snr_db=40.0, seed=seed)
            assert abs(inst.achieved_snr_db - 40.0) <= 0.5
            assert inst.achieved_snr_db == pytest.approx(40.0, abs=1e-9)

    def test_achieved_snr_forms_the_clean_signal_once_and_keeps_its_value(self):
        inst = gen_cs(512, 256, 10, snr_db=40.0, seed=1)
        clean = inst.C @ inst.u_true
        noise = inst.v_obs - clean
        # the value the three-GEMV expression gave, bit for bit
        expected = 10.0 * np.log10(float(clean @ clean) / float(noise @ noise))
        products = []

        class CountingMatrix(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.asarray(self) @ other

        object.__setattr__(inst, "C", inst.C.view(CountingMatrix))  # the instance is frozen
        assert inst.achieved_snr_db == expected
        assert products == [(512,)]

    def test_noiseless_flag(self):
        inst = gen_cs(64, 32, 4, snr_db=np.inf, seed=1)
        np.testing.assert_array_equal(inst.v_obs, inst.C @ inst.u_true)
        assert inst.achieved_snr_db == np.inf

    def test_determinism(self):
        a = gen_cs(64, 32, 4, seed=11)
        b = gen_cs(64, 32, 4, seed=11)
        np.testing.assert_array_equal(a.C, b.C)
        np.testing.assert_array_equal(a.u_true, b.u_true)
        np.testing.assert_array_equal(a.v_obs, b.v_obs)
        c = gen_cs(64, 32, 4, seed=12)
        assert not np.array_equal(a.C, c.C)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            gen_cs(16, 32, 4)
        with pytest.raises(ValueError):
            gen_cs(16, 8, 17)

    def test_default_rho_rule(self):
        inst = gen_cs(64, 32, 4, seed=2)
        assert inst.rho == pytest.approx(0.005 * np.max(np.abs(inst.C.T @ inst.v_obs)))


class TestTableInitials:
    def test_case1_values_at_zero(self):
        u0, u1 = table_initials(1, 101)
        assert u0[0] == pytest.approx(0.25)
        assert u1[0] == pytest.approx(0.12)

    def test_case2_u1_equals_case1_u0(self):
        u0_c1, _ = table_initials(1, 257)
        _, u1_c2 = table_initials(2, 257)
        np.testing.assert_array_equal(u1_c2, u0_c1)

    def test_all_cases_finite(self):
        for case in (1, 2, 3, 4):
            u0, u1 = table_initials(case, 333)
            assert len(u0) == len(u1) == 333
            assert np.all(np.isfinite(u0)) and np.all(np.isfinite(u1))

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            table_initials(5, 11)


class TestAssemble:
    def test_cs_assembly(self):
        prob = assemble(gen_cs(64, 32, 4, seed=0))
        assert prob.family == "cs"
        assert prob.space.dimension == 64
        assert prob.reference is not None and not prob.reference_is_solution
        np.testing.assert_array_equal(prob.u0, prob.u1)

    def test_noiseless_truth_is_fixed_point_when_unregularized(self):
        inst = gen_cs(64, 32, 4, snr_db=np.inf, rho=0.0, seed=4)
        prob = assemble(inst)
        u = inst.u_true
        for lam in (1e-4, 1e-2):
            v = prob.resolvent(u - lam * prob.forward(u), lam)
            assert np.linalg.norm(u - v) <= 1e-8

    def test_l2_zero_is_exact_fixed_point(self):
        prob = assemble(gen_l2(1, 101))
        z = np.zeros(101)
        v = prob.resolvent(z - 0.7 * prob.forward(z), 0.7)
        assert np.linalg.norm(z - v) <= 1e-14
        assert prob.reference_is_solution

    def test_l2_pointwise_prox_equals_weighted_prox(self):
        # the resolvent in the weighted space solves, per coordinate,
        #   argmin_y  0.5*w_i*(y - x_i)^2 + lam*w_i*|y|
        # (both the squared norm and the integral of |u| carry the same
        # quadrature weight), so the weight cancels and the plain pointwise
        # shrinkage is exact; assert against the weighted brute-force oracle
        prob = assemble(gen_l2(2, 1001))
        w = prob.space.weights
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1001)
        lam = 0.37
        pointwise = prob.resolvent(x, lam)
        for i in (0, 1, 500, 999, 1000):  # boundary weights are halved
            wi = w[i]
            grid = np.arange(-abs(x[i]) - 1.0, abs(x[i]) + 1.0, 1e-4)
            vals = 0.5 * wi * (grid - x[i]) ** 2 + lam * wi * np.abs(grid)
            brute = grid[int(np.argmin(vals))]
            assert abs(pointwise[i] - brute) <= 1e-3

    def test_lpa_reduces_to_shrinkage_dynamics(self):
        # Q = 0 and mu small: the forward map nearly vanishes, one solver
        # step is essentially the prox
        inst = LpaInstance(
            Q=np.zeros((3, 3)), q=np.zeros(3), mu=1e-12, alpha=1.5, rho=1.0,
            seed=0,
        )
        prob = assemble(inst)
        cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=1, gamma=1.0)
        u = np.array([3.0, -2.0, 0.5])
        uf, tr = solve(prob, u, u, cfg)
        np.testing.assert_allclose(uf, [2.0, -1.0, 0.0], atol=1e-10)

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            assemble(object())


class TestConstructedProblems:
    def test_cubic_reference_is_solution(self):
        prob = cubic_problem((2.0, -2.0))
        # 0 in B(0) + rho*[-1, 1]
        z = np.zeros(2)
        v = prob.resolvent(z - 0.3 * prob.forward(z), 0.3)
        np.testing.assert_array_equal(v, z)
        assert prob.reference_is_solution

    def test_strongly_monotone_resolvent_against_grid(self):
        prob = strongly_monotone_problem(np.ones(1), rho=0.1, beta=0.1)
        lam = 1.3
        rng = np.random.default_rng(1)
        for x in rng.uniform(-3, 3, size=8):
            brute = prox_1d_grid(
                x, lambda y: lam * (0.1 * abs(y) + 0.05 * y * y), step=1e-4
            )
            got = prob.resolvent(np.array([x]), lam)[0]
            assert abs(got - brute) <= 1e-3
