import numpy as np
import pytest

from mvisolve import problems
from mvisolve.operators import (
    cubic_forward,
    l1_resolvent,
    log_forward,
    lpa_forward,
    lpa_gradient,
    quartic_fidelity_gradient,
    shifted_l1_resolvent,
)
from mvisolve.problems import (
    GENERATORS,
    Problem,
    _spike_measurements,
    assemble,
    cubic_problem,
    gen_cs,
    gen_l2,
    gen_lpa,
    strongly_monotone_problem,
    table_initials,
)
from mvisolve.solver import SolverConfig, StoppingRule, solve
from mvisolve.spaces import euclidean

from _oracles import prox_1d_grid


def _drawn(seed, d, m, l, snr_db):
    """The module docstring's recipe: children 0, 1, 2 of ``SeedSequence(seed).spawn(3)`` fed to PCG64."""
    matrix, spikes, noise = (np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(3))
    C = matrix.standard_normal((m, d))
    u_true = np.zeros(d)
    support = spikes.choice(d, size=l, replace=False)  # the support first, then the values
    u_true[support] = spikes.uniform(-2.0, 2.0, size=l)
    clean = C @ u_true
    e = np.zeros(m)
    if not np.isinf(snr_db):
        e = noise.standard_normal(m)
        e *= np.sqrt(float(clean @ clean) / 10.0 ** (snr_db / 10.0)) / np.linalg.norm(e)
    v_obs = clean + e
    return C, u_true, v_obs, 0.005 * float(np.max(np.abs(C.T @ v_obs)))


def _points(d, seed=0):
    """Points at which two forward maps are compared bitwise."""
    rng = np.random.default_rng(seed)
    return [np.zeros(d), rng.standard_normal(d), 3.0 * rng.standard_normal(d)]


@pytest.mark.parametrize("seed", [0, 1, 7, 20261020])
@pytest.mark.parametrize("snr_db", [40.0, np.inf])
def test_cs_and_lpa_draw_the_documented_child_streams(seed, snr_db):
    C, u_true, v_obs, rho = _drawn(seed, 64, 32, 4, snr_db)
    got_C, got_u_true, _, got_v_obs = _spike_measurements(64, 32, 4, snr_db, seed)
    for got, want in ((got_C, C), (got_u_true, u_true), (got_v_obs, v_obs)):
        assert got.tobytes() == want.tobytes()
    # each generator builds its problem from exactly those arrays
    cs = gen_cs(64, 32, 4, snr_db=snr_db, seed=seed)
    assert cs.reference.tobytes() == u_true.tobytes()
    assert cs.metadata["rho"] == rho
    lpa = gen_lpa(64, 32, 4, snr_db=snr_db, seed=seed)
    assert lpa.metadata["rho"] == 0.01
    for x in _points(64, seed):
        assert cs.forward(x).tobytes() == quartic_fidelity_gradient(C, v_obs, x).tobytes()
        assert lpa.forward(x).tobytes() == lpa_gradient(C, v_obs, 0.01, 1.5, x).tobytes()


# per family: a small problem, and a call its generator must reject
GENERATED = {
    "cs": (lambda: GENERATORS["cs"](16, 8, 2, seed=1), lambda: gen_cs(16, 32, 4)),
    "lpa": (lambda: GENERATORS["lpa"](16, 8, 2, seed=1), lambda: gen_lpa(16, 8, 2, alpha=2.0)),
    "l2": (lambda: GENERATORS["l2"](1, 11), lambda: gen_l2(1, 2)),
    "cubic": (cubic_problem, lambda: cubic_problem(rho=-1.0)),
    "strong": (lambda: strongly_monotone_problem(np.ones(2)), lambda: strongly_monotone_problem(np.ones(2), beta=0.0)),
}


@pytest.mark.parametrize("family", [*GENERATORS, "cubic", "strong"])
def test_each_generator_returns_its_problem_and_rejects_bad_values(family):
    make, invalid = GENERATED[family]
    problem = make()
    assert isinstance(problem, Problem) and problem.family == family
    # assemble is the identity on a problem and rejects anything else
    assert assemble(problem) is problem
    with pytest.raises(TypeError, match="^cannot assemble object$"):
        assemble(object())
    # the checks the instance classes made are made at generation
    with pytest.raises(ValueError):
        invalid()


class TestGenCS:
    def test_shapes_match_benchmark_columns(self):
        for d, m, l in ((512, 256, 10), (1024, 512, 20)):
            C, u_true, clean, v_obs = _spike_measurements(d, m, l, 40.0, 3)
            assert C.shape == (m, d) and v_obs.shape == clean.shape == (m,)
            assert np.count_nonzero(u_true) == l
            problem = gen_cs(d, m, l, 40.0, seed=3)
            assert problem.space.dimension == d
            assert (problem.metadata["d"], problem.metadata["m"], problem.metadata["l"]) == (d, m, l)

    def test_spikes_in_range(self):
        reference = gen_cs(128, 64, 7, seed=5).reference
        nz = reference[reference != 0]
        assert len(nz) == 7
        assert np.all(np.abs(nz) <= 2.0)

    def test_achieved_snr_exact(self):
        for seed in (0, 1, 2):
            achieved = gen_cs(128, 64, 5, snr_db=40.0, seed=seed).metadata["achieved_snr_db"]
            assert abs(achieved - 40.0) <= 0.5
            assert achieved == pytest.approx(40.0, abs=1e-9)

    def test_achieved_snr_reuses_the_clean_signal_and_keeps_its_value(self, monkeypatch):
        C, u_true, _, v_obs = _spike_measurements(512, 256, 10, 40.0, 1)
        clean = C @ u_true
        noise = v_obs - clean
        # the value the three-GEMV expression gave, bit for bit
        expected = 10.0 * np.log10(float(clean @ clean) / float(noise @ noise))
        products = []

        class CountingMatrix(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.asarray(self) @ other

        class CountingDraws:
            """A PCG64 generator whose matrix draws count their products."""

            def __init__(self, child):
                self.rng = np.random.Generator(np.random.PCG64(child))

            def standard_normal(self, size):
                x = self.rng.standard_normal(size)
                return x.view(CountingMatrix) if x.ndim == 2 else x

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(problems, "_pcg64", CountingDraws)
        assert gen_cs(512, 256, 10, snr_db=40.0, seed=1).metadata["achieved_snr_db"] == expected
        # C @ u_true once, for the data and the SNR alike, and C^T v_obs for the default rho
        assert products == [(512,), (256,)]
        products.clear()
        gen_cs(512, 256, 10, snr_db=40.0, rho=0.1, seed=1)
        assert products == [(512,)]

    def test_noiseless_flag(self):
        C, u_true, _, v_obs = _spike_measurements(64, 32, 4, np.inf, 1)
        np.testing.assert_array_equal(v_obs, C @ u_true)
        assert gen_cs(64, 32, 4, snr_db=np.inf, seed=1).metadata["achieved_snr_db"] == np.inf

    def test_determinism(self):
        a = _spike_measurements(64, 32, 4, 40.0, 11)
        b = _spike_measurements(64, 32, 4, 40.0, 11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = _spike_measurements(64, 32, 4, 40.0, 12)
        assert not np.array_equal(a[0], c[0])
        p, q = gen_cs(64, 32, 4, seed=11), gen_cs(64, 32, 4, seed=11)
        np.testing.assert_array_equal(p.reference, q.reference)
        assert p.metadata == q.metadata
        for x in _points(64):
            assert p.forward(x).tobytes() == q.forward(x).tobytes()

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            gen_cs(16, 32, 4)
        with pytest.raises(ValueError):
            gen_cs(16, 8, 17)

    def test_default_rho_rule(self):
        C, _, _, v_obs = _spike_measurements(64, 32, 4, 40.0, 2)
        rho = gen_cs(64, 32, 4, seed=2).metadata["rho"]
        assert rho == pytest.approx(0.005 * np.max(np.abs(C.T @ v_obs)))


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

    @pytest.mark.parametrize("n", [3, 101, 1001])
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_each_case_is_its_two_formulas_byte_for_byte(self, case, n):
        t = np.linspace(0.0, 1.0, n)
        f_a = np.cos(2.0 * np.pi * t) ** 2 / 4.0
        f_b = 3.0 * np.exp(-2.0 * t) * np.cos(3.0 * t) / 25.0
        f_c = (np.exp(2.0 * t) + np.cos(4.0 * t)) / 10.0
        want = {1: (f_a, f_b), 2: (f_c, f_a), 3: (f_c, f_b), 4: (f_a, f_c)}[case]
        got = table_initials(case, n)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="^unknown case id 5; expected 1..4$"):
            table_initials(5, 11)
        # the case is checked before the grid is built: a bad n is not reached
        with pytest.raises(ValueError, match="^unknown case id 0; expected 1..4$"):
            table_initials(0, -1)


class TestProblemFamilies:
    def test_cs_problem(self):
        prob = gen_cs(64, 32, 4, seed=0)
        assert prob.family == "cs"
        assert prob.space.dimension == 64
        assert prob.reference is not None and not prob.reference_is_solution
        np.testing.assert_array_equal(prob.u0, prob.u1)

    def test_noiseless_truth_is_fixed_point_when_unregularized(self):
        prob = gen_cs(64, 32, 4, snr_db=np.inf, rho=0.0, seed=4)
        u = prob.reference
        for lam in (1e-4, 1e-2):
            v = prob.resolvent(u - lam * prob.forward(u), lam)
            assert np.linalg.norm(u - v) <= 1e-8

    def test_l2_zero_is_exact_fixed_point(self):
        prob = gen_l2(1, 101)
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
        prob = gen_l2(2, 1001)
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
        prob = Problem(lpa_forward(np.zeros((3, 3)), np.zeros(3), 1e-12, 1.5), l1_resolvent(1.0), euclidean(3))
        cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=1, gamma=1.0)
        u = np.array([3.0, -2.0, 0.5])
        uf, tr = solve(prob, u, u, cfg)
        np.testing.assert_allclose(uf, [2.0, -1.0, 0.0], atol=1e-10)


#: every problem marked ``reference_is_solution``: the l2 cases and the constructed problems (demo 04's start)
_SOLVED = {
    **{f"l2-case{c}": lambda c=c: gen_l2(c, 101) for c in (1, 2, 3, 4)},
    "cubic": cubic_problem,
    "strong-demo04": lambda: strongly_monotone_problem(np.array([1.0, -0.7, 0.4, 2.0]), rho=0.1, beta=0.1),
}


@pytest.mark.parametrize("name", list(_SOLVED))
@pytest.mark.parametrize("lam", [0.1, 1.0, 7.0])
def test_a_marked_solution_is_a_fixed_point_of_the_forward_backward_map(name, lam):
    # u* solves 0 in A(u) + B(u) exactly when J(u* - lam*B(u*), lam) = u*, for any lam > 0
    prob = _SOLVED[name]()
    assert prob.reference_is_solution
    u = prob.reference
    v = np.asarray(prob.resolvent(u - lam * np.asarray(prob.forward(u)), lam))
    assert v.dtype == u.dtype and v.tobytes() == u.tobytes()


class TestConstructedProblems:
    @pytest.mark.parametrize(
        "make, forward, resolvent, family, metadata",
        [
            (lambda start: cubic_problem(), cubic_forward(), l1_resolvent(1.0), "cubic", {"d": 2, "rho": 1.0}),
            (
                lambda start: strongly_monotone_problem(start, rho=0.2, beta=0.3),
                log_forward(),
                shifted_l1_resolvent(0.2, 0.3),
                "strong",
                {"d": 2, "rho": 0.2, "beta": 0.3},
            ),
        ],
        ids=["cubic", "strong"],
    )
    def test_every_field(self, make, forward, resolvent, family, metadata):
        start = np.array([2.0, -2.0])  # cubic_problem's default start
        prob = make(start)
        assert prob.space.dimension == 2 and prob.space.weights.tobytes() == np.ones(2).tobytes()
        for u in (prob.u0, prob.u1):  # two copies of the start, neither the caller's array
            assert u.dtype == np.float64 and u.tobytes() == start.tobytes() and u is not start
        assert prob.u0 is not prob.u1
        assert prob.family == family
        assert list(prob.metadata.items()) == list(metadata.items())
        assert prob.reference.dtype == np.float64 and prob.reference.tobytes() == np.zeros(2).tobytes()
        assert prob.reference_is_solution is True
        x = np.array([0.7, -1.9])
        assert np.asarray(prob.forward(x)).tobytes() == np.asarray(forward(x)).tobytes()
        assert np.asarray(prob.resolvent(x, 0.6)).tobytes() == np.asarray(resolvent(x, 0.6)).tobytes()

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
