"""Certified early rejection in the line search changes no result.

The quartic forward map of sparse recovery carries a two-pass split, and the
line search rejects a trial step from the first pass alone when the split's
certified pairing bound proves the floating-point acceptance test fails.
Six groups of tests:

* split and opaque searches agree bitwise for every line-search method;
* ``finish(u, first(u))`` is the one-pass map, bitwise;
* over a sweep of random, near-tied and badly scaled trials, the
  certificate never rejects a trial the acceptance test accepts, also with
  an exact pairing that leaves only the line search's own allowance;
* an overflowing ``B(v)`` raises at the same trial on both paths;
* only forward maps with a split and spaces with unit weights take it;
* the certified count reaches the trace.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from _cases import mu_with_cap
from mvisolve.baselines import BaselineConfig, run_baseline
from mvisolve.linesearch import LineSearchParams, NonFiniteIterate, backtrack
from mvisolve.operators import ForwardOperator, ForwardSplit, quartic_fidelity_gradient, quartic_forward
from mvisolve.problems import _spike_measurements, gen_cs, gen_l2, gen_lpa
from mvisolve.solver import IterationRecord, SolverConfig, StoppingRule, solve
from mvisolve.spaces import InnerProductSpace, euclidean

from test_shared_quantities import SOLVERS, CountingSpace


def _cs512():
    return gen_cs(512, 256, 10, snr_db=40.0, seed=1)


def _opaque(problem):
    """The same problem with the forward map's split hidden."""
    return dataclasses.replace(problem, forward=lambda u: problem.forward(u))


class BareSpace:
    """Duck-typed Euclidean space with no ``weights`` attribute at all."""

    def __init__(self, dimension):
        base = euclidean(dimension)
        self.dimension = dimension
        self.label = base.label
        self.check_member = base.check_member
        self.inner, self.norm, self.norm2 = base.inner, base.norm, base.norm2


# ---------------------------------------------------------------------------
# (a) split and opaque paths agree bitwise


#: every method that runs the Armijo search
LINE_SEARCH_METHODS = ["ifb", "ifb-warm", "tseng", "zw-armijo", "tc", "jx"]

#: every trace column but the timing and the two path-dependent work counts
COLUMNS = [
    f.name for f in dataclasses.fields(IterationRecord) if f.name not in ("elapsed_ns", "certified", "speculative")
]


def _run(name, problem, check_invariants, max_iters=60):
    stop = StoppingRule("distance_to_reference", 1e-2, reference=problem.reference)
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


@pytest.mark.parametrize("check_invariants", [True, False])
@pytest.mark.parametrize("name", LINE_SEARCH_METHODS)
def test_split_and_opaque_searches_agree_bitwise(name, check_invariants):
    problem = _cs512()
    u_split, split = _run(name, problem, check_invariants)
    u_plain, plain = _run(name, _opaque(problem), check_invariants)
    assert split.total_certified > 0 and plain.total_certified == 0
    assert split.status == plain.status and split.iterations == plain.iterations > 0
    assert split.total_forward_evals == plain.total_forward_evals
    assert split.total_resolvent_evals == plain.total_resolvent_evals
    assert split.violations == plain.violations
    assert u_split.tobytes() == u_plain.tobytes()
    for column in COLUMNS:
        assert split.array(column).tobytes() == plain.array(column).tobytes(), column


# ---------------------------------------------------------------------------
# (b) the two passes are the one-pass map


def _vectors(rng, n):
    dense = rng.standard_normal(n)
    sparse = np.zeros(n)
    sparse[rng.choice(n, size=3, replace=False)] = rng.uniform(-2.0, 2.0, size=3)
    signed_zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    odd = signed_zeros.copy()
    odd[:4] = [5e-324, -5e-324, 2.2e-310, -1e-320]  # subnormal entries
    odd[4:8] = rng.standard_normal(4)
    return [dense, sparse, signed_zeros, odd]


@pytest.mark.parametrize("seed", [1, 2])
def test_finish_of_first_is_the_one_pass_map_bitwise(seed):
    C, _, _, v_obs = _spike_measurements(512, 256, 10, 40.0, seed)
    fwd = quartic_forward(C, v_obs)
    generated = gen_cs(512, 256, 10, snr_db=40.0, seed=seed).forward
    rng = np.random.default_rng(seed)
    for u in _vectors(rng, 512):
        expected = quartic_fidelity_gradient(C, v_obs, u)
        assert fwd.split.finish(u, fwd.split.first(u)).tobytes() == expected.tobytes()
        assert fwd(u).tobytes() == expected.tobytes()
        assert generated(u).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# (c) soundness of the certificate


def _single_trial(w, v, forward, lam, sigma, space=None):
    """Run ``backtrack`` whose first trial is ``(lam, v)``; a rejected trial is followed by ``_second(w, x)``.

    Returns ``(accepted at the first trial, first trial certified)``.
    """
    params = LineSearchParams(s=lam, mu=mu_with_cap(1), sigma=sigma)
    ls = backtrack(w, forward, lambda x, step: v if step == lam else _second(w, x), params, space=space)
    assert ls.forward_evals == 1 + ls.resolvent_evals
    return ls.j == 0, ls.certified == 1


def _second(w, x):
    """A second trial point that passes the test at its step ``lam * 2**-120``, given ``x = w - lam*B(w)``.

    ``v = w`` passes at any step whose ``lam*B(w)`` shows in ``x``.  Once it
    rounds away (``x == w``) the search refuses ``v = w``, and
    ``w * (1 + 2**-20)`` passes instead: ``lam*B(w)`` lies below the
    rounding of ``w``, and so ``lam * ||B(w) - B(v)||`` far below
    ``sigma * ||w - v|| = sigma * 2**-20 * ||w||``.
    """
    return w * (1.0 + 2.0**-20) if np.array_equal(x, w) else w


def _float_test_accepts(C, y, w, v, lam, sigma):
    """The acceptance test exactly as ``backtrack`` evaluates it, on the one-pass map."""
    space = euclidean(len(w))
    b_w = quartic_fidelity_gradient(C, y, w)
    b_v = quartic_fidelity_gradient(C, y, v)
    return lam * space.norm(b_w - b_v) <= sigma * space.norm(w - v)


def _trial(rng, kind):
    """A random trial ``(C, y, w, v, lam, sigma, near_tie)``."""
    sigma = float(rng.uniform(0.05, 0.95))
    scale_c = 10.0 ** rng.uniform(-6, 6)
    if kind == "one-dimensional":
        # Cauchy-Schwarz is an equality in one dimension, so the certificate
        # meets the acceptance test with nothing but rounding between them
        m = n = 1
        C = np.array([[scale_c * rng.choice([-1.0, 1.0])]])
        y = rng.standard_normal(1) * 10.0 ** rng.uniform(-3, 3)
        w = rng.standard_normal(1) * 10.0 ** rng.uniform(-3, 3)
        v = w + rng.standard_normal(1) * 10.0 ** rng.uniform(-8, 1) * (1.0 + abs(w))
    elif kind == "aligned":
        # C = c*I and equal residual norms make B(w) - B(v) parallel to w - v
        n = m = int(rng.integers(2, 9))
        c = scale_c
        C = c * np.eye(n)
        y = rng.standard_normal(n)
        r_w = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        r_v = rng.standard_normal(n)
        r_v *= np.linalg.norm(r_w) / np.linalg.norm(r_v)
        w, v = (r_w + y) / c, (r_v + y) / c
    else:  # badly scaled general data
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        C = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-1, 1, size=(m, n)) * scale_c
        y = rng.standard_normal(m) * 10.0 ** rng.uniform(-40, 40)
        w = rng.standard_normal(n) * 10.0 ** rng.uniform(-40, 40)
        v = w + rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 2) * (1.0 + np.abs(w))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = np.linalg.norm(quartic_fidelity_gradient(C, y, w) - quartic_fidelity_gradient(C, y, v))
        ratio = sigma * np.linalg.norm(w - v) / d
    if not (np.isfinite(ratio) and ratio > 0.0):
        return None
    if rng.random() < 0.5:
        return C, y, w, v, float(ratio * 10.0 ** rng.uniform(-3, 3)), sigma, False
    # within 1e-12 of equality, down to ties at the last bit
    eps = rng.choice([0.0, 1.0]) * 10.0 ** rng.uniform(-17, -12) * rng.choice([-1.0, 1.0])
    return C, y, w, v, float(ratio * (1.0 + eps)), sigma, True


def test_certificate_never_rejects_an_accepted_trial():
    rng = np.random.default_rng(20261018)
    trials = certified = declined_ties = accepted = 0
    while trials < 10_000:
        drawn = _trial(rng, ("one-dimensional", "aligned", "general")[trials % 3])
        if drawn is None:
            continue
        C, y, w, v, lam, sigma, near_tie = drawn
        if not lam > 0.0 or not np.isfinite(lam):
            continue
        trials += 1
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                first_accepted, first_certified = _single_trial(w, v, quartic_forward(C, y), lam, sigma)
            except NonFiniteIterate:
                continue
            float_accepts = _float_test_accepts(C, y, w, v, lam, sigma)
        assert first_accepted == float_accepts
        if first_certified:
            certified += 1
            assert not float_accepts, (C, y, w, v, lam, sigma)
        elif near_tie and not float_accepts:
            declined_ties += 1
        accepted += float_accepts
    # the sweep reaches both sides of the test and the certificate's margin
    assert certified > 1_000 and accepted > 1_000
    assert declined_ties > 0


def _exactly_paired(C, y):
    """The quartic map with the exact pairing of its float outputs, rounded down, as the split's bound.

    No operator allowance is left, so only the line search's own rounding
    allowance stands between the certificate and the acceptance test.
    """

    def fn(u):
        return quartic_fidelity_gradient(C, y, u)

    def pairing(w, st_w, v, st_v):
        b_w, b_v = fn(w), fn(v)
        if not (np.isfinite(b_w).all() and np.isfinite(b_v).all()):
            return -math.inf
        exact = sum(
            (Fraction(float(a)) - Fraction(float(b))) * (Fraction(float(p)) - Fraction(float(q)))
            for a, b, p, q in zip(b_w, b_v, w, v)
        )
        bound = float(exact)
        return bound if Fraction(bound) <= exact else float(np.nextafter(bound, -math.inf))

    return ForwardOperator(fn, split=ForwardSplit(lambda u: None, lambda u, st: fn(u), pairing))


def test_line_search_allowance_alone_keeps_the_certificate_sound():
    rng = np.random.default_rng(1018)
    trials = certified = 0
    while trials < 3_000:
        drawn = _trial(rng, ("one-dimensional", "aligned")[trials % 2])
        if drawn is None or not drawn[-1]:
            continue  # near ties only
        C, y, w, v, lam, sigma, _ = drawn
        trials += 1
        with np.errstate(over="ignore", invalid="ignore"):
            _, first_certified = _single_trial(w, v, _exactly_paired(C, y), lam, sigma)
            if first_certified:
                certified += 1
                assert not _float_test_accepts(C, y, w, v, lam, sigma), (C, y, w, v, lam, sigma)
    assert certified > 300


def test_displacements_near_underflow_are_never_certified():
    # sigma*||w - v|| = 9e-141 lies below the floor max(s, 1) * 2**-450, where
    # underflow could void the rounding factors; the trial runs the full test
    C, y = np.array([[1e100]]), np.zeros(1)
    w, v = np.array([2e-140]), np.array([1e-140])
    accepted, certified = _single_trial(w, v, _exactly_paired(C, y), 1.0, 0.9)
    assert not accepted and not certified
    assert not _float_test_accepts(C, y, w, v, 1.0, 0.9)


# ---------------------------------------------------------------------------
# (d) a non-finite B(v) is never certified away


def test_overflowing_forward_value_raises_at_the_same_trial():
    # ||C^T r_v|| rr_v overflows while the pairing and its allowance stay finite
    C, y = np.array([[2e78]]), np.zeros(1)
    w = np.array([1e-78])
    schedule = [np.zeros(1), np.zeros(1), np.array([0.025])]  # two rejected trials, then overflow
    fwd = quartic_forward(C, y)
    with np.errstate(over="ignore"):
        assert not np.isfinite(fwd(schedule[2])).all()
    seen = {}
    for name, forward in (("split", fwd), ("opaque", lambda u: fwd(u))):
        calls = []

        def resolvent(x, lam):
            calls.append(lam)
            return schedule[len(calls) - 1]

        with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate, match=r"^B\(v\) is non-finite$"):
            backtrack(w, forward, resolvent, LineSearchParams())
        seen[name] = calls
    assert seen["split"] == seen["opaque"] == [1.0, 0.5, 0.25]


# ---------------------------------------------------------------------------
# (e) which searches take the split


def _ifb(problem, space, iters=20):
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=iters)
    return solve(dataclasses.replace(problem, space=space), problem.u0, problem.u1, cfg)


def test_unit_weight_duck_typed_space_takes_the_split():
    # the check reads only ``space.weights``, so a duck-typed space works
    problem = _cs512()
    counting = CountingSpace(problem.space)
    u_duck, duck = _ifb(problem, counting)
    u_plain, plain = _ifb(_opaque(problem), problem.space)
    assert duck.total_certified > 0 and counting.calls > 0
    assert u_duck.tobytes() == u_plain.tobytes()
    assert duck.total_forward_evals == plain.total_forward_evals


@pytest.mark.parametrize(
    "space",
    [
        pytest.param(lambda n: InnerProductSpace(n, np.full(n, 2.0), label="doubled"), id="weighted"),
        pytest.param(lambda n: CountingSpace(InnerProductSpace(n, np.full(n, 2.0))), id="counting-weighted"),
        pytest.param(BareSpace, id="no-weights"),
    ],
)
def test_other_spaces_take_the_opaque_path(space):
    problem = _cs512()
    u_split, split = _ifb(problem, space(512))
    u_plain, plain = _ifb(_opaque(problem), space(512))
    assert split.total_certified == 0
    assert u_split.tobytes() == u_plain.tobytes()


def test_forward_maps_without_a_split_take_the_opaque_path():
    problem = _cs512()
    # a plain ForwardOperator, a bare callable and an lpa map carry no split
    bare = ForwardOperator(problem.forward.fn)
    assert bare.split is None
    _, trace = _ifb(dataclasses.replace(problem, forward=bare), problem.space)
    assert trace.total_certified == 0
    assert gen_lpa(512, 256, 10, seed=1).forward.split is None


# ---------------------------------------------------------------------------
# the certified count in the trace


def test_ifb_certifies_most_rejected_trials_on_recovery():
    problem = _cs512()
    cfg = SolverConfig(
        stop=StoppingRule("distance_to_reference", 1e-2, reference=problem.reference), max_iters=300
    )
    _, trace = solve(problem, problem.u0, problem.u1, cfg)
    # each ifb iteration evaluates B(w) once and accepts one trial
    rejected = sum(r.forward_evals - 2 for r in trace.records)
    assert rejected > 0
    assert trace.total_certified >= 0.8 * rejected
    assert all(r.certified <= r.forward_evals - 2 for r in trace.records)


L2_SOLVERS = [
    ("ifb", {}),
    ("fb", {"method": "fb", "lam": 0.5}),
    ("tseng", {"method": "tseng"}),
    ("zw-armijo", {"method": "zw", "lambda_mode": "armijo", "gamma": 1.0}),
    ("tc", {"method": "tc"}),
]


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_integral_cells_record_no_certified_trials(case):
    problem = gen_l2(case, 1001)
    stop = StoppingRule("successive_diff", 1e-12)
    for _, options in L2_SOLVERS:
        options = dict(options)
        method = options.pop("method", "ifb")
        if method == "ifb":
            _, trace = solve(problem, problem.u0, problem.u1, SolverConfig(stop=stop, max_iters=600))
        else:
            cfg = BaselineConfig(method=method, **options)
            _, trace = run_baseline(cfg, problem, problem.u0, problem.u1, stop, 600)
        assert trace.iterations > 0
        assert all(r.certified == 0 for r in trace.records)
