"""The iteration kernel computes each shared quantity once and keeps every check.

Four groups of tests:

* the finiteness guards still name each failure exactly;
* each invariant counter can reach 1, also when the check reads a quantity
  the kernel computed;
* a checked ``ifb`` iteration on the integral problem stays within its
  inner-product budget, and an accepted step enters no ``np.errstate``;
* turning invariant checks on never changes an iterate or a trace column.
"""

import dataclasses
import sys
import warnings

import numpy as np
import pytest

from mvisolve import linesearch
from mvisolve.baselines import BaselineConfig, run_baseline
from mvisolve.linesearch import LineSearchParams, NonFiniteIterate, _require_finite, backtrack
from mvisolve.operators import identity_resolvent
from mvisolve.problems import assemble, cubic_problem, gen_cs, gen_l2
from mvisolve.solver import (
    DivergenceError,
    IterationRecord,
    IterationTrace,
    SolverConfig,
    StoppingRule,
    TerminalStatus,
    _check_invariants,
    _drive,
    _guard_iterate,
    ifb_step,
    solve,
)
from mvisolve.spaces import euclidean, trapezoid_unit_interval
from test_direction_overflow import aligned_search_problem


class CountingSpace:
    """Duck-typed ``InnerProductSpace`` that counts inner products.

    ``inner``, ``norm`` and ``norm2`` each cost one inner product and count
    as one call; ``check_member`` is input validation and is not counted.
    """

    def __init__(self, base):
        self.base = base
        self.calls = 0
        self.dimension = base.dimension
        self.weights = base.weights
        self.label = base.label
        self.check_member = base.check_member

    def inner(self, u, v):
        self.calls += 1
        return self.base.inner(u, v)

    def norm(self, u):
        self.calls += 1
        return self.base.norm(u)

    def norm2(self, u):
        self.calls += 1
        return self.base.norm2(u)


# ---------------------------------------------------------------------------
# finiteness guards

BAD_ENTRIES = [np.nan, np.inf, -np.inf, 1e200]


def _with_entry(x, d=5):
    u = np.linspace(-1.0, 1.0, d)
    u[2] = x
    return u


class TestGuards:
    @pytest.mark.parametrize("x", BAD_ENTRIES)
    def test_guard_iterate(self, x):
        expected = (
            "iterate at k=3 is non-finite"
            if not np.isfinite(x)
            else "iterate at k=3 exceeded the divergence guard 1e+150"
        )
        with pytest.raises(DivergenceError) as info:
            _guard_iterate(_with_entry(x), "iterate", 3)
        assert type(info.value) is DivergenceError
        assert str(info.value) == expected

    def test_guard_iterate_names_non_finite_before_too_large(self):
        u = _with_entry(np.nan)
        u[0] = 1e200
        with pytest.raises(DivergenceError, match="^u is non-finite$"):
            _guard_iterate(u, "u")

    @pytest.mark.parametrize("x", [1e150, -1e150, 0.0])
    def test_guard_iterate_admits_the_guard_value(self, x):
        assert _guard_iterate(_with_entry(x), "u") is None

    @pytest.mark.parametrize("x", BAD_ENTRIES)
    def test_require_finite(self, x):
        u = _with_entry(x)
        if np.isfinite(x):
            assert _require_finite(u, "B(w)", u.shape) is u
            return
        with pytest.raises(NonFiniteIterate) as info:
            _require_finite(u, "B(w)", u.shape)
        assert type(info.value) is NonFiniteIterate
        assert str(info.value) == "B(w) is non-finite"

    @pytest.mark.parametrize("space", [euclidean(5), trapezoid_unit_interval(5)], ids=["plain", "weighted"])
    @pytest.mark.parametrize("x", BAD_ENTRIES)
    def test_check_member(self, space, x):
        u = _with_entry(x)
        if np.isfinite(x):
            np.testing.assert_array_equal(space.check_member(u, "u0"), u)
            return
        with pytest.raises(ValueError) as info:
            space.check_member(u, "u0")
        assert type(info.value) is ValueError
        assert str(info.value) == "u0 contains non-finite entries"

    # the checks below run one BLAS sum of squares first and fall back to an
    # exact test only when that sum cannot decide; neither may warn

    @pytest.mark.parametrize("x", [1e200, 1e154], ids=["square-overflows", "sum-overflows"])
    def test_require_finite_passes_large_finite_entries(self, x):
        u = np.full(8, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _require_finite(u, "B(w)", u.shape) is u
            np.testing.assert_array_equal(euclidean(8).check_member(u, "u0"), u)

    @pytest.mark.parametrize(
        "u", [np.full(20, 1e149), np.array([1e150])], ids=["sum-above-1e299", "lone-guard-value"]
    )
    def test_guard_iterate_admits_what_the_sum_cannot_decide(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _guard_iterate(u, "u") is None

    @pytest.mark.parametrize("d", [1, 5])
    def test_guard_iterate_rejects_the_next_double_above_the_guard(self, d):
        u = np.zeros(d)
        u[-1] = np.nextafter(1e150, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"^u exceeded the divergence guard 1e\+150$"):
                _guard_iterate(u, "u")

    @pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_entry_anywhere_is_named(self, x, position):
        u = np.linspace(-1.0, 1.0, 1001)
        u[position] = x
        space = trapezoid_unit_interval(1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate, match=r"^B\(w\) is non-finite$"):
                _require_finite(u, "B(w)", u.shape)
            with pytest.raises(DivergenceError, match="^u is non-finite$"):
                _guard_iterate(u, "u")
            with pytest.raises(ValueError, match="^u0 contains non-finite entries$"):
                space.check_member(u, "u0")

    def test_subnormal_and_negative_zero_entries_pass(self):
        tiny = np.finfo(float).tiny
        u = np.array([5e-324, -5e-324, tiny / 4, -0.0, 0.0, -tiny])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _require_finite(u, "B(w)", u.shape) is u
            assert _guard_iterate(u, "u") is None
            np.testing.assert_array_equal(euclidean(len(u)).check_member(u, "u0"), u)

    def test_non_finite_b_v_raises_before_the_acceptance_test(self):
        calls = []

        def forward(u):
            calls.append(u)
            return u.copy() if len(calls) == 1 else np.full_like(u, np.nan)

        space = CountingSpace(euclidean(3))
        with pytest.raises(NonFiniteIterate, match=r"^B\(v\) is non-finite$"):
            backtrack(np.ones(3), forward, identity_resolvent(), LineSearchParams(), space=space)
        assert len(calls) == 2
        assert space.calls == 0  # no norm of the acceptance test was taken


# ---------------------------------------------------------------------------
# positive controls of the invariant counters

SIGMA = 0.6
GAMMA = 1.2
ZERO_COUNTS = {"delta_bound": 0, "phi_sandwich": 0, "fejer": 0}


def _cfg(max_iters=1):
    return SolverConfig(
        gamma=GAMMA,
        linesearch=LineSearchParams(1.0, 0.5, SIGMA),
        stop=StoppingRule("iter_cap_only"),
        max_iters=max_iters,
        check_invariants=True,
    )


def _valid_step():
    """A real checked iteration on the cubic problem, whose solution is zero."""
    prob = cubic_problem((2.0, -2.0))
    _, out = ifb_step(prob.u0, prob.u1, 1, prob.forward, prob.resolvent, _cfg(), prob.space)
    assert out.fejer_applicable and out.delta_is_ratio and not out.phizero
    return prob, out


def _counts(out, space, solution, dist2_solution=None):
    trace = IterationTrace("control")
    _check_invariants(trace, out, space, GAMMA, solution, space.norm2(solution), dist2_solution)
    assert trace.invariants_checked
    return trace.violations


def _broken(out):
    """One hand-built step per violation kind, each breaking exactly that bound."""
    hi = 1.0 / (1.0 - SIGMA)
    return {
        "phi_sandwich": dataclasses.replace(out, phi_norm=3.0 * (1.0 + SIGMA) * out.res_wv),
        "delta_bound": dataclasses.replace(out, delta=2.0 * hi),
        "fejer": dataclasses.replace(out, u_next=3.0 * out.w),
    }


class TestViolationControls:
    def test_the_valid_step_counts_nothing(self):
        prob, out = _valid_step()
        assert _counts(out, prob.space, np.zeros(2)) == ZERO_COUNTS

    @pytest.mark.parametrize("kind", ["phi_sandwich", "delta_bound", "fejer"])
    def test_each_broken_bound_is_counted_once(self, kind):
        prob, out = _valid_step()
        bad = _broken(out)[kind]
        assert _counts(bad, prob.space, np.zeros(2)) == {**ZERO_COUNTS, kind: 1}

    def test_decrease_check_reads_the_carried_inner_product(self):
        # a larger <w - v, phi> claims a larger decrement than the step made
        prob, out = _valid_step()
        bad = dataclasses.replace(out, wv_phi=10.0 * out.wv_phi)
        assert _counts(bad, prob.space, np.zeros(2)) == {**ZERO_COUNTS, "fejer": 1}

    def test_decrease_check_reads_the_carried_squared_distance(self):
        prob, out = _valid_step()
        far = prob.space.norm2(3.0 * out.w)
        assert _counts(out, prob.space, np.zeros(2), dist2_solution=far) == {**ZERO_COUNTS, "fejer": 1}
        near = prob.space.norm2(out.u_next)
        assert _counts(out, prob.space, np.zeros(2), dist2_solution=near) == ZERO_COUNTS

    @pytest.mark.parametrize("same_object", [True, False], ids=["reference-is-solution", "explicit-solution"])
    @pytest.mark.parametrize("kind", ["phi_sandwich", "delta_bound", "fejer"])
    def test_drive_counts_each_broken_step(self, kind, same_object):
        prob = cubic_problem((2.0, -2.0))
        cfg = _cfg()

        def step(k, up, uc):
            _, out = ifb_step(up, uc, k, prob.forward, prob.resolvent, cfg, prob.space)
            bad = _broken(out)[kind]
            return bad.u_next, bad

        _, trace = _drive(
            step, prob, prob.u0, prob.u1, cfg.stop, 1, method="control", gamma=GAMMA,
            check_invariants=True, solution=None if same_object else np.zeros(2),
        )
        assert trace.violations == {**ZERO_COUNTS, kind: 1}


# ---------------------------------------------------------------------------
# inner-product budget and checks-on/off equality


def test_checked_ifb_iteration_on_the_integral_problem_uses_at_most_8_inner_products():
    problem = assemble(gen_l2(1))
    space = CountingSpace(problem.space)
    cfg = SolverConfig(stop=StoppingRule("successive_diff", 1e-12), max_iters=600, check_invariants=True)
    _, trace = solve(dataclasses.replace(problem, space=space), problem.u0, problem.u1, cfg)
    assert trace.status is TerminalStatus.CONVERGED
    assert trace.total_violations == 0
    assert np.all(trace.array("resolvent_evals") == 1)  # every iteration is a single trial
    # per iteration: ||B(w) - B(v)||, ||w - v||, ||phi||^2, ||w||, <w - v, phi>,
    # ||u_next - u_curr||, ||u_next - u*||^2 (trace column and decrease check
    # alike) and ||w - u*||^2; once per run: ||u*||^2
    assert space.calls <= 8 * trace.iterations + 1


class VdotCounter:
    """Stands in for ``numpy.vdot``, the one finiteness scan of the package, and counts its calls."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return self.real(a, b)


def test_checked_ifb_run_on_the_integral_problem_makes_at_most_5_finiteness_scans_per_iteration(monkeypatch):
    problem = assemble(gen_l2(1))
    cfg = SolverConfig(stop=StoppingRule("successive_diff", 1e-12), max_iters=600, check_invariants=True)
    scans = VdotCounter(np.vdot)
    monkeypatch.setattr(np, "vdot", scans)  # after the problem is built: only the run counts
    _, trace = solve(problem, problem.u0, problem.u1, cfg)
    assert trace.status is TerminalStatus.CONVERGED
    assert trace.total_violations == 0
    assert np.all(trace.array("resolvent_evals") == 1)  # every iteration is a single trial
    # per iteration: the guards of w and u_next, and B(w), v and B(v); the
    # search does not scan the w the guard has proved finite.  Once per run:
    # u0, u1, the reference and the solution
    assert scans.calls <= 5 * trace.iterations + 4


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
def test_fejer_check_counts_an_over_relaxed_update_on_the_integral_problem(scale):
    # u* = 0 here, so the decrease check must judge a step relative to
    # ||w - u*||^2: near the solution every term it compares is small
    problem = assemble(gen_l2(1))
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=140, check_invariants=True)

    def over_relaxed(k, up, uc):
        _, out = ifb_step(up, uc, k, problem.forward, problem.resolvent, cfg, problem.space)
        u_next = out.w + 1.05 * (out.u_next - out.w)
        return u_next, dataclasses.replace(out, u_next=u_next)

    u1 = scale * problem.u1
    _, trace = _drive(
        over_relaxed, problem, u1, u1, cfg.stop, cfg.max_iters, method="over-relaxed",
        gamma=cfg.gamma, check_invariants=True,
    )
    assert trace.iterations == 140
    assert trace.violations == {**ZERO_COUNTS, "fejer": 140}


class ErrstateCounter:
    """Stands in for ``numpy.errstate`` and records the function that asked for each context.

    Every caller in the package enters the context where it makes it, so
    these are its entries.
    """

    def __init__(self, real):
        self.real = real
        self.callers = []

    def __call__(self, **kwargs):
        self.callers.append(sys._getframe(1).f_code.co_name)
        return self.real(**kwargs)


def _count_errstate(monkeypatch):
    # installed after the problems are generated, so that only solver calls count
    counter = ErrstateCounter(np.errstate)
    monkeypatch.setattr(np, "errstate", counter)
    return counter


@pytest.mark.parametrize("name", ["ifb", "zw-armijo", "tc", "jx"])
def test_accepted_steps_on_the_integral_problem_enter_no_errstate(name, monkeypatch):
    problem = assemble(gen_l2(1))
    stop = StoppingRule("successive_diff", 1e-12)
    errstate = _count_errstate(monkeypatch)
    if name == "ifb":
        cfg = SolverConfig(stop=stop, max_iters=600, check_invariants=True)
        _, trace = solve(problem, problem.u0, problem.u1, cfg)
    else:
        cfg = BaselineConfig(**SOLVERS[name])
        _, trace = run_baseline(cfg, problem, problem.u0, problem.u1, stop, 600, True)
    assert trace.status in (TerminalStatus.CONVERGED, TerminalStatus.PHI_ZERO)
    assert trace.total_violations == 0
    assert errstate.callers == []


def test_restart_ifb_on_cs_512_enters_errstate_only_once_per_block(monkeypatch):
    blocks = []
    block_rejections = linesearch._block_rejections

    def counted(*args):
        blocks.append(args[3])
        return block_rejections(*args)

    problem = assemble(gen_cs(512, 256, 10, snr_db=40.0, seed=1))
    monkeypatch.setattr(linesearch, "_block_rejections", counted)
    errstate = _count_errstate(monkeypatch)
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=20, check_invariants=True)
    _, trace = solve(problem, problem.u0, problem.u1, cfg)
    assert trace.iterations == 20 and trace.total_violations == 0
    assert len(blocks) >= 20  # every restarting search takes at least one block
    assert set(errstate.callers) == {"_block_rejections"}
    assert len(errstate.callers) <= len(blocks)


def test_accepted_point_just_below_the_direction_bound_enters_no_errstate(monkeypatch):
    forward, resolvent = aligned_search_problem(0.999)
    errstate = _count_errstate(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the direction is finite; the update then leaves the divergence guard
        with pytest.raises(DivergenceError, match="^contraction iterate exceeded"):
            ifb_step(np.zeros(1), np.zeros(1), 1, forward, resolvent, SolverConfig(), euclidean(1))
    assert errstate.callers == []


COLUMNS = [f.name for f in dataclasses.fields(IterationRecord) if f.name != "elapsed_ns"]

SOLVERS = {
    "ifb": {},
    "ifb-warm": {"warm_start": True},
    "fb": {"method": "fb", "lam": 0.5},
    "tseng": {"method": "tseng"},
    "zw": {"method": "zw"},
    "zw-armijo": {"method": "zw", "lambda_mode": "armijo", "gamma": 1.0},
    "tc": {"method": "tc"},
    "jx": {"method": "jx"},
}

INSTANCES = {
    "l2-case1": (lambda: assemble(gen_l2(1)), "successive_diff", 1e-12, 600),
    "cs-512-seed1": (lambda: assemble(gen_cs(512, 256, 10, snr_db=40.0, seed=1)), "distance_to_reference", 1e-2, 60),
}


def _run(name, instance, check_invariants):
    make, kind, tol, max_iters = INSTANCES[instance]
    problem = make()
    stop = StoppingRule(kind, tol, reference=problem.reference if kind == "distance_to_reference" else None)
    options = dict(SOLVERS[name])
    method = options.pop("method", "ifb")
    if method == "ifb":
        cfg = SolverConfig(
            linesearch=LineSearchParams(**options), stop=stop, max_iters=max_iters,
            check_invariants=check_invariants,
        )
        return solve(problem, problem.u0, problem.u1, cfg)
    cfg = BaselineConfig(method=method, **options)
    return run_baseline(cfg, problem, problem.u0, problem.u1, stop, max_iters, check_invariants)


@pytest.mark.parametrize("instance", list(INSTANCES))
@pytest.mark.parametrize("name", list(SOLVERS))
def test_invariant_checks_leave_iterates_bitwise_unchanged(name, instance):
    u_on, on = _run(name, instance, True)
    u_off, off = _run(name, instance, False)
    assert on.invariants_checked and not off.invariants_checked
    assert on.status == off.status and on.iterations == off.iterations > 0
    assert u_on.tobytes() == u_off.tobytes()
    for column in COLUMNS:
        assert on.array(column).tobytes() == off.array(column).tobytes(), column
