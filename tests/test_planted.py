"""Planted problems: membership of ``a*`` at build, the decrease check, and convergence to ``u*``."""

import dataclasses

import numpy as np
import pytest

from _plants import BOX_A_STAR, PLANTS, box_plant, cs_plant
from mvisolve.baselines import BaselineConfig, run_baseline
from mvisolve.operators import ForwardOperator, identity_resolvent
from mvisolve.problems import gen_cs, planted
from mvisolve.solver import SolverConfig, StoppingRule, TerminalStatus, solve
from mvisolve.spaces import euclidean

#: the methods run on every plant: the three with the decrease check, and tseng
_METHODS = ("ifb", "zw[armijo]", "jx", "tseng")

#: iterations to dist^2 <= 1e-12 per plant, in the order of _METHODS; each
#: about 15% above the count read on x86_64 with OpenBLAS: cs 303 / 946 / 431 / 519,
#: box 120 / 113 / 43 / 88, nonlocal 81 / 246 / 114 / 144 at n = 126 and
#: 85 / 224 / 104 / 134 at n = 1001
_BUDGETS = {
    "cs": (350, 1100, 500, 600),
    "box": (140, 130, 50, 100),
    "nonlocal-n126": (100, 285, 135, 170),
    "nonlocal-n1001": (100, 285, 135, 170),
}


def _run(method, prob, stop, max_iters):
    """``(u, trace)`` of ``method`` on ``prob`` from its start, with the invariant checks on."""
    if method == "ifb":
        return solve(prob, prob.u0, prob.u1, SolverConfig(stop=stop, max_iters=max_iters, check_invariants=True))
    name, _, mode = method.rstrip("]").partition("[")
    cfg = BaselineConfig(name, lambda_mode=mode or None)
    return run_baseline(cfg, prob, prob.u0, prob.u1, stop, max_iters, check_invariants=True)


@pytest.mark.parametrize("plant", list(_BUDGETS))
@pytest.mark.parametrize("method", _METHODS)
def test_every_method_reaches_the_plant_within_its_budget_with_no_violation(plant, method):
    prob = PLANTS[plant]()
    budget = _BUDGETS[plant][_METHODS.index(method)]
    u, trace = _run(method, prob, StoppingRule("distance_to_reference", 1e-12), budget)
    assert trace.status is TerminalStatus.CONVERGED, (trace.status, trace.iterations)
    assert trace.invariants_checked and trace.violations == {"delta_bound": 0, "phi_sandwich": 0, "fejer": 0}
    assert prob.space.norm2(u - prob.reference) == trace.final_dist2 <= 1e-12


@pytest.mark.parametrize("plant", ["cs", "box", "nonlocal-n126"])
def test_a_reference_off_the_solution_makes_the_decrease_check_count(plant):
    # the plant stays marked as solved, so each contraction method checks its
    # decrease against u* + 1, which is no solution: the check must fire
    prob = PLANTS[plant]()
    moved = dataclasses.replace(prob, reference=prob.reference + 1.0)
    for method in ("ifb", "zw[armijo]", "jx"):
        _, trace = _run(method, moved, StoppingRule("iter_cap_only"), 50)
        assert trace.violations["fejer"] > 0, method
        _, trace = _run(method, prob, StoppingRule("iter_cap_only"), 50)
        assert trace.violations["fejer"] == 0, method


@pytest.mark.parametrize(
    "make",
    [
        # |a*_i| = 1.5 rho off the support: soft(lam*a*_i, lam*rho) is not 0
        lambda: cs_plant(lambda u, rho: np.where(u != 0.0, rho * np.sign(u), 1.5 * rho)),
        # the wrong sign on the support
        lambda: cs_plant(lambda u, rho: -rho * np.sign(u)),
        # inward at an active bound of the box
        lambda: box_plant(BOX_A_STAR * np.array([-1.0, 1, 1, 1, 1, 1, 1, 1])),
        # nonzero inside the box, where the normal cone is {0}
        lambda: box_plant(BOX_A_STAR + np.eye(8)[4] * 1e-3),
    ],
    ids=["cs-off-support", "cs-sign", "box-inward", "box-interior"],
)
def test_an_a_star_outside_a_of_the_solution_raises_at_build(make):
    with pytest.raises(ValueError, match=r"^a_star is not in A\(solution\): \|\|J\(u\* \+ lam\*a\*, lam\) - u\*\|\| = "):
        make()


def test_the_plant_shifts_b0_and_drops_its_split():
    source = gen_cs(512, 256, 10, snr_db=40.0, seed=1)
    u, rho = source.reference, source.metadata["rho"]
    a = np.where(u != 0.0, rho * np.sign(u), np.random.default_rng(0).uniform(-rho / 2, rho / 2, u.size))
    prob = cs_plant()
    assert source.forward.split is not None and prob.forward.split is None
    assert prob.family == "planted" and prob.reference_is_solution is True and prob.metadata == {"d": 512}
    assert prob.reference.tobytes() == u.tobytes()
    assert prob.u0 is not prob.u1 and prob.u1.tobytes() == source.u1.tobytes() == prob.u0.tobytes()
    # B(w) = B0(w) - (B0(u*) + a*), with the shift formed once
    w = np.random.default_rng(1).standard_normal(512)
    assert np.asarray(prob.forward(w)).tobytes() == (source.forward(w) - (source.forward(u) + a)).tobytes()
    assert np.abs(np.asarray(prob.forward(u)) + a).max() <= 1e-15 * np.abs(source.forward(u)).max()


def test_planted_copies_its_arrays_and_checks_their_shapes():
    u_star, a_star, start = np.array([1.0, 0.0]), np.zeros(2), np.array([3.0, 4.0])
    prob = planted(ForwardOperator(lambda u: 2.0 * u), identity_resolvent(), euclidean(2), u_star, a_star, start)
    assert prob.reference.tobytes() == u_star.tobytes() and prob.reference is not u_star
    assert prob.u0.tobytes() == prob.u1.tobytes() == start.tobytes() and start is not prob.u0
    # B(u) = 2u - 2u*: zero at u*, and A = 0 there
    assert np.asarray(prob.forward(np.array([2.0, 1.0]))).tolist() == [2.0, 2.0]
    with pytest.raises(ValueError, match=r"a_star has shape \(3,\), expected \(2,\)"):
        planted(ForwardOperator(lambda u: u), identity_resolvent(), euclidean(2), u_star, np.zeros(3), start)
    with pytest.raises(ValueError, match=r"^a_star is not in A\(solution\)"):  # A = 0 has A(u*) = {0}
        planted(ForwardOperator(lambda u: u), identity_resolvent(), euclidean(2), u_star, np.ones(2), start)
