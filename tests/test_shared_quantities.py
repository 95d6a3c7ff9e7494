"""The iteration kernel computes each shared quantity once and keeps every check.

Eight groups of tests:

* the finiteness guards still name each failure exactly;
* each invariant counter can reach 1, also when the check reads a quantity
  the kernel computed;
* a checked ``ifb`` iteration on the integral problem stays within its
  inner-product budget, and a run enters ``np.errstate`` once, from
  ``_drive``, while its accepted steps enter none;
* the vanishing test takes ``||w||`` from the space, so a duck-typed space
  takes the inner products of the space it wraps, and an overflowing
  ``||w||`` ends a run ``diverged`` unless ``phi = 0``;
* turning invariant checks on never changes an iterate or a trace column;
* a run enters one ``np.errstate``: every method started far out ends with
  a named status and no warning, and an exception from the forward map or
  the resolvent propagates out of the run unchanged;
* an integer start or an integer-valued forward map runs as its float64
  conversion, bitwise;
* every Armijo contraction step is anchored and checked alike: the
  decrease check counts on ``zw[armijo]`` and ``jx`` as on ``ifb``, and a
  start beyond the divergence guard ends every Armijo method at once.
"""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from mvisolve import linesearch, solver as solver_module, spaces
from _table import one_step
from mvisolve.baselines import BaselineConfig, run_baseline
from mvisolve.linesearch import LineSearchOutcome, LineSearchParams, NonFiniteIterate, _require_finite, backtrack
from mvisolve.operators import box_resolvent, identity_resolvent, l1_resolvent, quartic_forward, zero_forward
from mvisolve.problems import Problem, cubic_problem, gen_cs, gen_l2, strongly_monotone_problem
from mvisolve.solver import (
    _PHI_ZERO_TOL,
    DivergenceError,
    IterationRecord,
    IterationTrace,
    SolverConfig,
    StoppingRule,
    TerminalStatus,
    _check_invariants,
    _direction,
    _drive,
    _guard_iterate,
    solve,
)
from mvisolve.spaces import InnerProductSpace, euclidean, trapezoid_unit_interval
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
        # B(v)'s finiteness is read off the acceptance test's own norm: both
        # of its norms are taken, and the search raises before it compares
        assert space.calls == 2

    def test_non_finite_v_raises_before_the_forward_map_and_any_norm(self):
        calls = []

        def forward(u):
            calls.append(u)
            return u.copy()

        def resolvent(x, lam):
            return np.full_like(x, np.nan)

        space = CountingSpace(euclidean(3))
        with pytest.raises(NonFiniteIterate, match=r"^J\(w - lam\*B\(w\)\) is non-finite$"):
            backtrack(np.ones(3), forward, resolvent, LineSearchParams(), space=space)
        assert len(calls) == 1  # B(w) only: the forward map never saw v
        assert space.calls == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_split_search_without_a_block_raises_at_the_trial_whose_finish_is_non_finite(self, bad):
        # a warm start keeps the per-trial loop; finish returns B(w) first, then bad
        rng = np.random.default_rng(5)
        fwd = quartic_forward(rng.standard_normal((6, 4)), rng.standard_normal(6))
        split = fwd.split
        trials, finished = [], []

        def finish(u, st):
            finished.append(len(trials))
            out = split.finish(u, st)
            return out if len(finished) == 1 else np.full_like(out, bad)

        def resolvent(x, lam):
            trials.append(lam)
            return l1_resolvent(0.1)(x, lam)

        counted = dataclasses.replace(fwd, split=dataclasses.replace(split, finish=finish))
        with pytest.raises(NonFiniteIterate, match=r"^B\(v\) is non-finite$"):
            backtrack(10.0 * rng.standard_normal(4), counted, resolvent, LineSearchParams(warm_start=True))
        assert len(finished) == 2
        assert finished[1] == len(trials)  # no trial was taken after the non-finite B(v)

    @pytest.mark.parametrize("vdot", ["bound", "dispatched"])
    def test_the_one_pass_warns_on_nothing_and_names_every_non_finite_entry(self, vdot, monkeypatch):
        # the pass calls numpy's C vdot past its dispatcher, or np.vdot itself
        # where numpy has no _implementation: the same function and sums
        assert spaces._vdot is getattr(np.vdot, "_implementation", np.vdot) is solver_module._vdot
        if vdot == "dispatched":
            monkeypatch.setattr(spaces, "_vdot", np.vdot)
            monkeypatch.setattr(solver_module, "_vdot", np.vdot)
        x = np.linspace(-3.0, 3.0, 1001)
        assert spaces._vdot(x, x) == np.vdot(x, x)
        overflowing = np.full(8, 1e200)  # finite, with a sum of squares that overflows
        undecided = np.full(20, 1e149)  # inside the guard, with a sum above 1e299
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _require_finite(overflowing, "B(w)", overflowing.shape) is overflowing
            np.testing.assert_array_equal(euclidean(8).check_member(overflowing, "u0"), overflowing)
            assert _guard_iterate(undecided, "u") is None
            with pytest.raises(DivergenceError, match=r"^u exceeded the divergence guard 1e\+150$"):
                _guard_iterate(overflowing, "u")
            for bad in (np.nan, np.inf, -np.inf):
                u = _with_entry(bad)
                with pytest.raises(NonFiniteIterate, match=r"^B\(w\) is non-finite$"):
                    _require_finite(u, "B(w)", u.shape)
                with pytest.raises(ValueError, match="^u0 contains non-finite entries$"):
                    euclidean(5).check_member(u, "u0")
                with pytest.raises(DivergenceError, match="^u is non-finite$"):
                    _guard_iterate(u, "u")


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
    _, out = one_step(_cfg(), 1, prob.u0, prob.u1, prob.forward, prob.resolvent, prob.space)
    assert math.isfinite(out.decrement) and not out.phizero
    return prob, out


def _counts(out, space, solution, dist2_solution=None):
    trace = IterationTrace("control")
    _check_invariants(trace, out, space, solution, space.norm2(solution), dist2_solution)
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

    def test_decrease_check_reads_the_carried_decrement(self):
        # a larger decrement claims more decrease than the step made
        prob, out = _valid_step()
        bad = dataclasses.replace(out, decrement=100.0 * out.decrement)
        assert _counts(bad, prob.space, np.zeros(2)) == {**ZERO_COUNTS, "fejer": 1}

    def test_decrease_check_reads_the_carried_squared_distance(self):
        prob, out = _valid_step()
        far = prob.space.norm2(3.0 * out.w)
        assert _counts(out, prob.space, np.zeros(2), dist2_solution=far) == {**ZERO_COUNTS, "fejer": 1}
        near = prob.space.norm2(out.u_next)
        assert _counts(out, prob.space, np.zeros(2), dist2_solution=near) == ZERO_COUNTS

    # the decrease check reuses the trace's squared distance when the stop
    # measures against the problem's own reference, and computes its own
    # against a stop reference that is a distinct copy of it
    @pytest.mark.parametrize("same_object", [True, False], ids=["problem-reference", "copied-stop-reference"])
    @pytest.mark.parametrize("kind", ["phi_sandwich", "delta_bound", "fejer"])
    def test_drive_counts_each_broken_step(self, kind, same_object):
        prob = cubic_problem((2.0, -2.0))
        cfg = _cfg()
        stop = cfg.stop if same_object else dataclasses.replace(cfg.stop, reference=prob.reference.copy())

        def step(k, up, uc, problem):
            _, out = one_step(cfg, k, up, uc, problem.forward, problem.resolvent, problem.space)
            bad = _broken(out)[kind]
            return bad.u_next, bad

        _, trace = _drive(step, prob, prob.u0, prob.u1, stop, 1, method="control", check_invariants=True)
        assert trace.violations == {**ZERO_COUNTS, kind: 1}


# ---------------------------------------------------------------------------
# inner-product budget and checks-on/off equality


def test_checked_ifb_iteration_on_the_integral_problem_uses_at_most_8_inner_products():
    problem = gen_l2(1)
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


def test_fb_iteration_on_the_integral_problem_uses_2_inner_products():
    problem = gen_l2(1)
    space = CountingSpace(problem.space)
    stop = StoppingRule("iter_cap_only")
    _, trace = run_baseline(BaselineConfig("fb"), dataclasses.replace(problem, space=space), problem.u0, problem.u1, stop, 2)
    assert trace.iterations == 2
    # per iteration: ||w - v||, which is also ||u_next - u_curr||, and ||u_next - u*||^2
    assert space.calls == 2 * trace.iterations
    assert trace.array("step_diff").tobytes() == trace.array("res_wv").tobytes()


class VdotCounter:
    """Stands in for ``vdot``, the one finiteness scan of the package, and counts its calls."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return self.real(a, b)


def test_checked_ifb_run_on_the_integral_problem_makes_4_finiteness_scans_per_iteration(monkeypatch):
    problem = gen_l2(1)
    cfg = SolverConfig(stop=StoppingRule("successive_diff", 1e-12), max_iters=600, check_invariants=True)
    scans = VdotCounter(np.vdot)
    # after the problem is built: only the run counts.  The scans call the
    # bound ``_vdot`` of spaces and solver, so the counter stands in there
    # too, and any scan through the dispatched ``np.vdot`` counts as well
    monkeypatch.setattr(np, "vdot", scans)
    monkeypatch.setattr(spaces, "_vdot", scans)
    monkeypatch.setattr(solver_module, "_vdot", scans)
    _, trace = solve(problem, problem.u0, problem.u1, cfg)
    assert trace.status is TerminalStatus.CONVERGED
    assert trace.total_violations == 0
    assert np.all(trace.array("resolvent_evals") == 1)  # every iteration is a single trial
    # per iteration: the guards of w and u_next, and B(w) and v; the search
    # does not scan the w the guard has proved finite, and B(v)'s finiteness
    # is read off the acceptance norm.  Once per run: u0, u1, the reference
    # and the solution
    assert scans.calls == 4 * trace.iterations + 4


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
def test_fejer_check_counts_an_over_relaxed_update_on_the_integral_problem(scale):
    # u* = 0 here, so the decrease check must judge a step relative to
    # ||w - u*||^2: near the solution every term it compares is small
    problem = gen_l2(1)
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=140, check_invariants=True)

    def over_relaxed(k, up, uc, problem):
        _, out = one_step(cfg, k, up, uc, problem.forward, problem.resolvent, problem.space)
        u_next = out.w + 1.05 * (out.u_next - out.w)
        return u_next, dataclasses.replace(out, u_next=u_next)

    u1 = scale * problem.u1
    _, trace = _drive(
        over_relaxed, problem, u1, u1, cfg.stop, cfg.max_iters, method="over-relaxed",
        check_invariants=True,
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


@pytest.mark.parametrize("name", ["ifb", "zw-armijo", "tc", "jx", "ifb-cs-512"])
def test_errstate_is_entered_once_per_run_and_block(name, monkeypatch):
    # a checked run enters one np.errstate, from _drive, and its steps none;
    # only a line-search block enters its own, at most once, as block rows
    # the search never reaches must not warn under any caller's error state
    blocks = []
    block_rejections = linesearch._block_rejections

    def counted(*args):
        blocks.append(args[3])
        return block_rejections(*args)

    if name == "ifb-cs-512":  # restarting searches, each taking blocks
        problem, stop, max_iters = INSTANCES["cs-512-seed1"][0](), StoppingRule("iter_cap_only"), 20
    else:
        problem, stop, max_iters = gen_l2(1), StoppingRule("successive_diff", 1e-12), 600
    monkeypatch.setattr(linesearch, "_block_rejections", counted)
    errstate = _count_errstate(monkeypatch)
    _, trace = _solve(name.removesuffix("-cs-512"), problem, problem.u0, problem.u1, stop, max_iters, True)
    assert trace.total_violations == 0
    if name == "ifb-cs-512":
        assert trace.iterations == 20
        assert len(blocks) >= 20  # every restarting search takes at least one block
        assert errstate.callers[0] == "_drive"
        assert set(errstate.callers[1:]) == {"_block_rejections"}
        assert len(errstate.callers) - 1 <= len(blocks)
    else:
        assert trace.status in (TerminalStatus.CONVERGED, TerminalStatus.PHI_ZERO)
        assert errstate.callers == ["_drive"]


def test_accepted_point_just_below_the_direction_bound_enters_no_errstate(monkeypatch):
    # called directly, a step enters no np.errstate and follows the
    # caller's error state: with ||phi|| just below 2**512, ||phi||^2 stays
    # finite, so nothing warns even with warnings as errors
    forward, resolvent = aligned_search_problem(0.999)
    errstate = _count_errstate(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the direction is finite; the update then leaves the divergence guard
        with pytest.raises(DivergenceError, match="^contraction iterate exceeded"):
            one_step(SolverConfig(), 1, np.zeros(1), np.zeros(1), forward, resolvent, euclidean(1))
    assert errstate.callers == []


# ---------------------------------------------------------------------------
# the vanishing test takes ||w|| from the space


def _wide_weights(n):
    return InnerProductSpace(n, np.geomspace(2.0**-200, 2.0**200, n))


SPACES = {
    "plain": euclidean,
    "trapezoid": trapezoid_unit_interval,
    "wide-weights": _wide_weights,
    "weights-out-of-range": lambda n: InnerProductSpace(n, np.geomspace(2.0**-300, 1.0, n)),
}


@pytest.mark.parametrize("name", list(SPACES))
def test_vanishing_verdict_is_the_exact_test(name):
    # phi vanishes iff ||phi|| <= tol*(1 + ||w||), where ||w|| is the space's
    # norm, taken at one inner product beside <phi, phi>
    n = 64
    space = SPACES[name](n)
    rng = np.random.default_rng(11)
    direction, shape = rng.standard_normal(n), rng.standard_normal(n)
    zeros = np.zeros(n)
    verdicts = {"vanished": 0, "kept": 0}
    overflowed = 0
    with np.errstate(over="ignore"):
        for w_scale in [0.0, 1e-310, 1e-170, 1e-8, 1.0, 1e100, 1e149]:
            w = w_scale * shape
            w_norm = space.norm(w)
            for phi_scale in [0.0, 5e-324, 1e-300, 1e-30, 1e-14, 1.0, 1e50]:
                v = w - phi_scale * direction
                phi = w - v  # the direction _direction forms, as B = 0 here
                point = LineSearchOutcome(0.5, 0, v, zeros, zeros, 1, 2, space.norm(phi), phi, zeros)
                phi_norm = math.sqrt(space.inner(phi, phi))
                # tolerances on both sides of the one at which phi just vanishes
                edge = phi_norm / (1.0 + w_norm)
                for tol in [0.0, 1e-200, 1e-14, 0.5 * edge, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 2.0 * edge]:
                    tol, counting = float(tol), CountingSpace(space)
                    wv, phi_out, pp, phi_norm_out, res_wv, vanished = _direction(w, point, counting, tol)
                    assert counting.calls == 2, (w_scale, phi_scale, tol)
                    assert phi_out.tobytes() == phi.tobytes() and phi_norm_out == phi_norm
                    assert vanished == (phi_norm <= tol * (1.0 + w_norm)), (w_scale, phi_scale, tol)
                    verdicts["vanished" if vanished else "kept"] += 1
                    overflowed += not math.isfinite(w_norm)
    assert verdicts["vanished"] > 0 and verdicts["kept"] > 0
    # with weights up to 2**200, ||w|| overflows at the largest scale, where
    # w absorbs every phi of the sweep: phi = 0 is then decided, not raised
    assert (overflowed > 0) == (name == "wide-weights")


@pytest.mark.parametrize("name", ["ifb", "tc"])
def test_a_duck_typed_space_takes_the_inner_products_of_the_space_it_wraps(name, monkeypatch):
    # a tracing wrapper forwards inner, norm and norm2 and nothing private,
    # so it must see every product the space itself computes in a run
    problem = gen_l2(1)
    stop = StoppingRule("successive_diff", 1e-12)
    duck = CountingSpace(problem.space)
    u_duck, trace_duck = _solve(name, dataclasses.replace(problem, space=duck), problem.u0, problem.u1, stop, 600, True)
    calls = 0

    def counted(method):
        def call(*args):
            nonlocal calls
            calls += 1
            return method(*args)

        return call

    for attr in ("inner", "norm", "norm2"):
        monkeypatch.setattr(InnerProductSpace, attr, counted(getattr(InnerProductSpace, attr)))
    u, trace = _solve(name, problem, problem.u0, problem.u1, stop, 600, True)
    assert trace.status == trace_duck.status and trace.iterations == trace_duck.iterations > 0
    assert u.tobytes() == u_duck.tobytes()
    assert calls == duck.calls


def test_an_overflowing_norm_of_w_raises_unless_phi_is_zero():
    # the weighted ||w|| overflows while np.vdot(w, w) and ||phi|| stay
    # finite: tol*inf would call phi vanished, so the test raises, while a
    # zero phi means w = v, an exact solution, whatever ||w||
    n = 64
    space = _wide_weights(n)
    w = np.full(n, 1e149)
    phi = np.where(np.arange(n) < n // 2, 1e149, 0.0)  # on the weights below 1
    zeros = np.zeros(n)
    with np.errstate(over="ignore"):
        point = LineSearchOutcome(0.5, 0, w - phi, zeros, zeros, 1, 2, None, None, zeros)
        with pytest.raises(DivergenceError, match="^norm of w overflowed$"):
            _direction(w, point, space, 1e-200)
        point = LineSearchOutcome(0.5, 0, w, zeros, zeros, 1, 2, None, None, zeros)
        assert _direction(w, point, space, 1e-200)[5]


@pytest.mark.parametrize(
    "c, status, iterations",
    [(1e149, TerminalStatus.DIVERGED, 0), (0.0, TerminalStatus.PHI_ZERO, 1)],
    ids=["nonzero-phi", "zero-phi"],
)
def test_a_run_whose_weighted_norm_of_w_overflows(c, status, iterations):
    # the setting above as a run: B = 0 and J(x) = x - lam*c accept lam = 1
    # with phi = c, which lives on the weights below 1 and stays finite in
    # norm, while ||u1|| overflows; for c != 0 a phi_zero status would claim
    # a solution, while c = 0 makes u1 one
    n = 64
    space = _wide_weights(n)
    c = np.where(np.arange(n) < n // 2, c, 0.0)
    u1 = np.full(n, 1e149)
    problem = Problem(zero_forward(), lambda x, lam: x - lam * c, space)
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=5, check_invariants=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u, trace = solve(problem, u1, u1, cfg)
    assert trace.status is status and trace.iterations == iterations
    if status is TerminalStatus.PHI_ZERO:
        assert u.tobytes() == u1.tobytes()


def test_a_vanishing_direction_in_a_weighted_space_takes_the_exact_norm():
    space = trapezoid_unit_interval(11)
    w = np.linspace(-1.0, 1.0, 11)
    zeros = np.zeros(11)
    point = LineSearchOutcome(0.5, 0, w, zeros, zeros, 1, 2, None, None, zeros)
    assert _direction(w, point, space, _PHI_ZERO_TOL)[5]
    # B = 0 and J = identity make every point a solution, so the first
    # direction vanishes
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=5)
    u, trace = solve(Problem(zero_forward(), identity_resolvent(), space), w, w, cfg)
    assert trace.status is TerminalStatus.PHI_ZERO and trace.iterations == 1
    assert u.tobytes() == w.tobytes()


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
    "l2-case1": (lambda: gen_l2(1), "successive_diff", 1e-12, 600),
    "cs-512-seed1": (lambda: gen_cs(512, 256, 10, snr_db=40.0, seed=1), "distance_to_reference", 1e-2, 60),
}


def _solve(name, problem, u0, u1, stop, max_iters, check_invariants):
    """A run of the method ``name`` of :data:`SOLVERS`."""
    options = dict(SOLVERS[name])
    method = options.pop("method", "ifb")
    if method == "ifb":
        cfg = SolverConfig(
            linesearch=LineSearchParams(**options), stop=stop, max_iters=max_iters,
            check_invariants=check_invariants,
        )
        return solve(problem, u0, u1, cfg)
    cfg = BaselineConfig(method=method, **options)
    return run_baseline(cfg, problem, u0, u1, stop, max_iters, check_invariants)


def _run(name, instance, check_invariants):
    make, kind, tol, max_iters = INSTANCES[instance]
    problem = make()
    stop = StoppingRule(kind, tol, reference=problem.reference if kind == "distance_to_reference" else None)
    return _solve(name, problem, problem.u0, problem.u1, stop, max_iters, check_invariants)


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


# ---------------------------------------------------------------------------
# the floating-point policy of a run


@pytest.fixture(scope="module")
def cs_512():
    return INSTANCES["cs-512-seed1"][0]()


@pytest.mark.parametrize("radius", [1e20, 1e40, 1e100])
@pytest.mark.parametrize("name", list(SOLVERS))
def test_a_run_started_far_out_ends_with_a_named_status_and_no_warning(name, radius, cs_512):
    # the first trials overflow the forward map or the acceptance test's
    # norms; the run's np.errstate keeps that silent, and the checks name it.
    # This is the limit of the claim that no Lipschitz constant is needed:
    # at 1e20 every Armijo search exhausts its smallest step s*2**-60 at the
    # first iteration, and from 1e40 on the first forward values overflow.
    d = np.random.default_rng(0).standard_normal(512)
    d /= np.linalg.norm(d)
    u = radius * d
    stop = StoppingRule("distance_to_reference", 1e-2, reference=cs_512.reference)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = _solve(name, cs_512, u, u, stop, 50, True)
    searches = radius == 1e20 and name not in ("fb", "zw")  # zw's default is the schedule step
    assert trace.status is (TerminalStatus.BACKTRACK_EXHAUSTED if searches else TerminalStatus.DIVERGED)
    assert trace.total_violations == 0


@pytest.mark.parametrize("name", [name for name in SOLVERS if name not in ("fb", "zw")])
def test_a_search_that_ends_the_run_counts_in_its_totals(name, cs_512):
    # from 1e20*d every Armijo search exhausts at the first iteration: the
    # run makes no record, but the totals count the search's evaluations
    calls = {"forward": 0, "resolvent": 0}

    def forward(u):
        calls["forward"] += 1
        return cs_512.forward(u)

    def resolvent(x, lam):
        calls["resolvent"] += 1
        return cs_512.resolvent(x, lam)

    d = np.random.default_rng(0).standard_normal(512)
    u = 1e20 * d / np.linalg.norm(d)
    stop = StoppingRule("distance_to_reference", 1e-2, reference=cs_512.reference)
    counted = dataclasses.replace(cs_512, forward=forward, resolvent=resolvent)
    _, trace = _solve(name, counted, u, u, stop, 50, True)
    assert trace.status is TerminalStatus.BACKTRACK_EXHAUSTED and trace.iterations == 0
    assert (trace.total_forward_evals, trace.total_resolvent_evals) == (calls["forward"], calls["resolvent"])
    assert calls == {"forward": 62, "resolvent": 61}
    # the split and block paths count the trials they reach alike
    _, split = _solve(name, cs_512, u, u, stop, 50, True)
    assert split.status is TerminalStatus.BACKTRACK_EXHAUSTED and split.iterations == 0
    assert (split.total_forward_evals, split.total_resolvent_evals) == (62, 61)


@pytest.mark.parametrize("radius", [3e6, 1e20])
@pytest.mark.parametrize("name", [name for name in SOLVERS if name not in ("fb", "zw")])
def test_a_search_that_ends_the_run_counts_its_certified_trials(name, radius, cs_512):
    # every Armijo search exhausts at the first iteration from both starts:
    # from 3e6*d the pairing certifies all 61 trials (block by block, or one
    # by one when warm), from 1e20*d the norms overflow and none is certified
    split = cs_512.forward.split
    finishes = []

    def finish(u, st):
        finishes.append(1)
        return split.finish(u, st)

    forward = dataclasses.replace(cs_512.forward, split=dataclasses.replace(split, finish=finish))
    d = np.random.default_rng(0).standard_normal(512)
    u = radius * d / np.linalg.norm(d)
    stop = StoppingRule("distance_to_reference", 1e-2, reference=cs_512.reference)
    _, trace = _solve(name, dataclasses.replace(cs_512, forward=forward), u, u, stop, 50, True)
    assert trace.status is TerminalStatus.BACKTRACK_EXHAUSTED and trace.iterations == 0
    # a trial is certified or finishes its B(v); the search's first finish is B(w)
    assert trace.total_certified == trace.total_resolvent_evals - (len(finishes) - 1)
    assert (trace.total_resolvent_evals, trace.total_certified) == (61, 61 if radius == 3e6 else 0)
    assert trace.total_speculative == 0  # a block never runs past the smallest step


class OperatorFailure(Exception):
    """Raised by a forward map or resolvent that cannot evaluate."""


@pytest.mark.parametrize("where", ["B", "J"])
@pytest.mark.parametrize("name", list(SOLVERS))
def test_an_exception_inside_an_operator_propagates_out_of_the_run_unchanged(name, where):
    error = OperatorFailure(f"{where} failed")
    forward, resolvent = (lambda x: 0.5 * x), identity_resolvent()
    if where == "B":
        def forward(x):
            raise error
    else:
        def resolvent(x, lam):
            raise error
    problem = Problem(forward, resolvent, euclidean(3))
    before = np.geterr()
    with pytest.raises(OperatorFailure) as info:
        _solve(name, problem, np.ones(3), np.ones(3), StoppingRule(), 5, True)
    assert info.value is error
    assert np.geterr() == before  # the run's np.errstate is left on the way out


# ---------------------------------------------------------------------------
# integer inputs run as their float64 conversion


def _assert_runs_bitwise_equal(a, b):
    (u_a, trace_a), (u_b, trace_b) = a, b
    assert trace_a.status == trace_b.status and trace_a.iterations == trace_b.iterations > 0
    assert trace_a.violations == trace_b.violations
    assert u_a.dtype == u_b.dtype == np.float64 and u_a.tobytes() == u_b.tobytes()
    for column in COLUMNS:
        assert trace_a.array(column).tobytes() == trace_b.array(column).tobytes(), column


@pytest.mark.parametrize("name", list(SOLVERS))
def test_an_integer_start_runs_as_its_float64_conversion(name):
    problem = cubic_problem((2.0, -3.0))
    start = np.array([2, -3])
    assert start.dtype.kind == "i"
    stop = StoppingRule("successive_diff", 1e-10)
    _assert_runs_bitwise_equal(
        _solve(name, problem, start, start, stop, 100, True),
        _solve(name, problem, start.astype(float), start.astype(float), stop, 100, True),
    )


@pytest.mark.parametrize("name", list(SOLVERS))
def test_an_integer_forward_map_runs_as_its_float64_conversion(name):
    # B(u) = c is monotone and continuous, and with |c_i| <= rho zero solves it
    shift = np.array([1, -1, 0])
    u = np.array([3.0, -2.0, 0.5])
    stop = StoppingRule("successive_diff", 1e-10)
    runs = [
        _solve(name, Problem(lambda x, c=c: c.copy(), l1_resolvent(2.0), euclidean(3)), u, u, stop, 100, True)
        for c in (shift, shift.astype(float))
    ]
    _assert_runs_bitwise_equal(*runs)


# ---------------------------------------------------------------------------
# every Armijo contraction step is anchored and checked alike


@pytest.mark.parametrize("name", ["ifb", "zw-armijo", "jx"])
def test_every_armijo_contraction_method_counts_a_failed_decrease(name):
    # B(u) = -u is not monotone, so against u* = 0, marked as the solution,
    # the decrease inequality fails at every step
    problem = dataclasses.replace(cubic_problem((2.0, -2.0)), forward=lambda u: -u, resolvent=l1_resolvent(0.1))
    _, trace = _solve(name, problem, problem.u0, problem.u1, StoppingRule("iter_cap_only"), 5, True)
    assert trace.iterations == 5
    assert trace.violations == {**ZERO_COUNTS, "fejer": 5}


@pytest.mark.parametrize(
    "method, gamma", [("zw", 0.5), ("zw", 1.0), ("zw", 1.5), ("zw", 1.9), ("jx", None)]
)
@pytest.mark.parametrize("problem", ["cubic", "strong"])
def test_armijo_contraction_baselines_keep_the_decrease_on_monotone_problems(method, gamma, problem):
    if problem == "cubic":
        problem = cubic_problem()
    else:
        problem = strongly_monotone_problem(np.array([1.0, -0.7, 0.4, 2.0]))
    cfg = BaselineConfig(method, lambda_mode="armijo", gamma=gamma) if method == "zw" else BaselineConfig(method)
    _, trace = run_baseline(cfg, problem, problem.u0, problem.u1, StoppingRule("successive_diff", 1e-12), 600, True)
    assert trace.status in (TerminalStatus.CONVERGED, TerminalStatus.PHI_ZERO)
    assert np.isfinite(trace.array("delta")).sum() >= 2  # each such step was checked
    assert trace.violations == ZERO_COUNTS


@pytest.mark.parametrize("name", ["ifb", "ifb-warm", "tseng", "zw-armijo", "tc", "jx"])
def test_an_armijo_method_started_beyond_the_divergence_guard_ends_diverged_at_once(name):
    # a finite entry beyond 1e150 fails the guard of the search's anchor
    # before any evaluation, although the projection would map it back
    problem = Problem(zero_forward(), box_resolvent(np.zeros(2), np.ones(2)), euclidean(2))
    u = np.array([1e152, 0.5])
    _, trace = _solve(name, problem, u, u, StoppingRule(), 5, True)
    assert trace.status is TerminalStatus.DIVERGED and trace.iterations == 0


@pytest.mark.parametrize("method", ["tseng", "jx"])
def test_an_anchor_beyond_the_divergence_guard_is_named(method):
    cfg, box = BaselineConfig(method), box_resolvent(np.zeros(2), np.ones(2))
    with pytest.raises(DivergenceError, match="^iterate exceeded the divergence guard"):
        u = np.array([1e152, 0.5])
        one_step(cfg, 1, u, u, zero_forward(), box)
    with pytest.raises(DivergenceError, match="^iterate is non-finite$"):
        u = np.array([np.nan, 0.5])
        one_step(cfg, 1, u, u, zero_forward(), box)


@pytest.mark.parametrize("name", ["ifb", "zw-armijo", "jx"])
def test_a_decrement_that_overflows_is_left_unchecked(name):
    # from 1e100 the first point has <w - v, phi> near 1e199, whose square
    # overflows to inf; that step's bounds go unchecked and the run goes on
    problem = dataclasses.replace(cubic_problem((2.0, -2.0)), forward=lambda u: u, resolvent=identity_resolvent())
    u = np.full(2, 1e100)
    stop = StoppingRule("successive_diff", 1e-12)
    runs = [_solve(name, problem, u, u, stop, 600, check) for check in (True, False)]
    _assert_runs_bitwise_equal(*runs)
    assert runs[0][1].status is TerminalStatus.CONVERGED and runs[0][1].invariants_checked
    assert runs[0][1].violations == ZERO_COUNTS
