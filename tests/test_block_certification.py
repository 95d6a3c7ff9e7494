"""Block certification in the line search changes no result.

With the quartic forward map of sparse recovery and the l1 resolvent, a
restarting search computes its trial points a block at a time: one call of
the resolvent's block form, one GEMV of the block against ``B(w)``, and
vectorised certificates bounded from each row's residual along ``r_w``.
A row the block cannot certify runs the exact per-trial code.  Six groups
of tests:

* block and per-trial searches agree bitwise for every line-search method;
* ``l1_resolvent``'s block form is row-wise ``apply``, bitwise;
* the block certificate never rejects a trial the acceptance test accepts:
  over a sweep of near-tied and badly scaled trials, with an exact pairing
  that leaves only the block's norm allowance, and with every rounding
  error the block pairing allows for at the edge of its bound; rows whose
  ``B(v)`` could overflow, or whose residual bound leaves the window, are
  never certified, and the count of certified trials on cs-512 is pinned;
* non-finite rows raise at the same trial as the per-trial loop, and not
  at all past the accepted trial;
* blocks stop at the smallest step;
* the speculative count reaches the trace.
"""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from _cases import mu_with_cap
from mvisolve.baselines import BaselineConfig, run_baseline
from mvisolve.linesearch import BacktrackExhausted, LineSearchParams, NonFiniteIterate, backtrack
from mvisolve.operators import ForwardOperator, ResolventOperator, l1_resolvent, quartic_forward
from mvisolve.problems import gen_l2
from mvisolve.solver import SolverConfig, StoppingRule, solve
from mvisolve.spaces import _rounding_gamma

from test_certified_rejection import (
    COLUMNS, L2_SOLVERS, LINE_SEARCH_METHODS, _cs512, _float_test_accepts, _run, _second, _trial,
)


def _per_trial(problem):
    """The same problem with the resolvent's block form hidden."""
    return dataclasses.replace(problem, resolvent=lambda x, lam: problem.resolvent(x, lam))


# ---------------------------------------------------------------------------
# (a) block and per-trial searches agree bitwise


@pytest.mark.parametrize("check_invariants", [True, False])
@pytest.mark.parametrize("name", LINE_SEARCH_METHODS)
def test_block_and_per_trial_searches_agree_bitwise(name, check_invariants):
    problem = _cs512()
    u_block, block = _run(name, problem, check_invariants)
    u_plain, plain = _run(name, _per_trial(problem), check_invariants)
    # warm-started searches keep the per-trial loop
    assert (block.total_speculative > 0) == (name != "ifb-warm")
    assert plain.total_speculative == 0
    assert block.total_certified > 0 and plain.total_certified > 0
    assert block.status == plain.status and block.iterations == plain.iterations > 0
    assert block.total_forward_evals == plain.total_forward_evals
    assert block.total_resolvent_evals == plain.total_resolvent_evals
    assert block.violations == plain.violations
    assert u_block.tobytes() == u_plain.tobytes()
    for column in COLUMNS:
        assert block.array(column).tobytes() == plain.array(column).tobytes(), column


# ---------------------------------------------------------------------------
# (b) the block resolvent is row-wise apply


@pytest.mark.parametrize("rho", [0.0, 0.1, 3.7])
def test_l1_block_is_row_wise_apply_bitwise(rho):
    rng = np.random.default_rng(7)
    n = 64
    X = rng.standard_normal((8, n)) * 10.0 ** rng.uniform(-3, 3, size=(8, n))
    X[0, :8] = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-320, 1.7e308, -1.7e308]
    X[1] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    X[2, :4] = [1e300, -1e300, 1e-300, -1e-300]
    X[3] = 0.1 * rho  # exactly at the threshold of its row
    # infinite and NaN entries, and on the last two rows a subnormal
    # threshold (for rho > 0) and an infinite one (for rho = 3.7)
    for i in (4, 6, 7):
        X[i, -7:] = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324]
    lams = np.array([1.0, 0.5, 2.0**-40, 1e-300, 1.0, 2.0**20, 2.0**-1060, 1e308])
    res = l1_resolvent(rho)
    # an infinite threshold overflows lam*rho and meets infinite entries
    with np.errstate(over="ignore", invalid="ignore"):
        V = res.block(X, lams)
        assert V.shape == X.shape
        for i in range(len(lams)):
            assert V[i].tobytes() == res.apply(X[i], lams[i]).tobytes(), i


# ---------------------------------------------------------------------------
# (c) soundness of the block certificate


def _block_single_trial(w, v, forward, lam, sigma):
    """``backtrack`` whose first trial is ``(lam, v)`` and second ``_second(w, x)``, through the block path.

    Returns ``(accepted at the first trial, first trial certified by the block)``.
    """
    seen = []
    split = forward.split

    def first(u):
        seen.append(u.tobytes())
        return split.first(u)

    forward = dataclasses.replace(forward, split=dataclasses.replace(split, first=first))
    resolvent = ResolventOperator(
        lambda x, step: v if step == lam else _second(w, x),
        block=lambda X, lams: np.array([v if step == lam else _second(w, x) for x, step in zip(X, lams)]),
    )
    params = LineSearchParams(s=lam, mu=mu_with_cap(1), sigma=sigma)
    ls = backtrack(w, forward, resolvent, params)
    assert ls.forward_evals == 1 + ls.resolvent_evals
    assert ls.speculative == 1 - ls.j
    # the first pass ran on v exactly when the block could not certify it
    return ls.j == 0, v.tobytes() not in seen[1:]


def test_block_certificate_never_rejects_an_accepted_trial():
    rng = np.random.default_rng(20261019)
    trials = certified = declined_ties = accepted = 0
    while trials < 10_000:
        drawn = _trial(rng, ("one-dimensional", "aligned", "general")[trials % 3])
        if drawn is None:
            continue
        C, y, w, v, lam, sigma, near_tie = drawn
        if not lam > 0.0 or not np.isfinite(lam) or v.tobytes() == w.tobytes():
            continue
        trials += 1
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                first_accepted, block_certified = _block_single_trial(w, v, quartic_forward(C, y), lam, sigma)
            except NonFiniteIterate:
                continue
            float_accepts = _float_test_accepts(C, y, w, v, lam, sigma)
        assert first_accepted == float_accepts
        if block_certified:
            certified += 1
            assert not float_accepts, (C, y, w, v, lam, sigma)
        elif near_tie and not float_accepts:
            declined_ties += 1
        accepted += float_accepts
    assert certified > 1_000 and accepted > 1_000
    assert declined_ties > 0


def _exact_pairing(b_w, b_v, w, v):
    return sum(
        (Fraction(float(a)) - Fraction(float(b))) * (Fraction(float(p)) - Fraction(float(q)))
        for a, b, p, q in zip(b_w, b_v, w, v)
    )


def _round_down(exact):
    bound = float(exact)
    return bound if Fraction(bound) <= exact else float(np.nextafter(bound, -math.inf))


def _exactly_block_paired(C, y):
    """The quartic map whose block pairing is the exact pairing of its float outputs, rounded down.

    Only the block's own norm allowance then stands between the
    certificate and the acceptance test.
    """
    fwd = quartic_forward(C, y)

    def block_pairing(w, st_w, b_w, V, wv_norms):
        b_w = fwd(w)
        bounds = []
        for v in V:
            b_v = fwd(v)
            if not (np.isfinite(b_w).all() and np.isfinite(b_v).all()):
                bounds.append(-math.inf)
            else:
                bounds.append(_round_down(_exact_pairing(b_w, b_v, w, v)))
        return np.array(bounds)

    split = dataclasses.replace(fwd.split, block_pairing=block_pairing)
    return ForwardOperator(fwd.fn, split=split)


def test_block_norm_allowance_alone_keeps_the_certificate_sound():
    rng = np.random.default_rng(1019)
    trials = certified = 0
    while trials < 3_000:
        drawn = _trial(rng, ("one-dimensional", "aligned")[trials % 2])
        if drawn is None or not drawn[-1]:
            continue  # near ties only
        C, y, w, v, lam, sigma, _ = drawn
        if v.tobytes() == w.tobytes():
            continue
        trials += 1
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                _, block_certified = _block_single_trial(w, v, _exactly_block_paired(C, y), lam, sigma)
            except NonFiniteIterate:
                continue
            if block_certified:
                certified += 1
                assert not _float_test_accepts(C, y, w, v, lam, sigma), (C, y, w, v, lam, sigma)
    assert certified > 300


def _at_edge(target, center):
    """The float nearest ``target``, or the next one toward ``center`` if that lies beyond ``target``."""
    x = float(target)
    if abs(Fraction(x) - center) > abs(target - center):
        x = float(np.nextafter(x, float(center)))
    return x


def _block_bound(split, w, st_w, b_w, v):
    wv = (w - v)[None, :]
    return split.block_pairing(w, st_w, b_w, v[None, :], np.sqrt(np.einsum("ij,ij->i", wv, wv)))[0]


@pytest.mark.parametrize("n, M", [(64, 1e3), (256, 1e2), (1024, 30.0)])
def test_block_pairing_holds_at_the_edge_of_the_residual_bound(n, M):
    # C = (1, ..., 1), w = (1/n, ...) and v = +-M alternating, shifted so
    # that Cv = -K exactly: Cv cancels from entries of size M, so Higham's
    # bound g_n |C||v| on the GEMV residual is as large as it gets against
    # ||C||_F ||v||, and r_v = -K r_w makes Cauchy-Schwarz an equality.
    # Every rounding error the block pairing allows for is put at either
    # edge of its bound: the residuals r_w and r_v (through <r_w, e_v> and
    # C(w - v)), the sums of squares rr_w and rr_v, and B(w), i.e. the GEMV
    # of C^T r_w and its scaling by rr_w, with the sign of each entry's
    # error chosen against <B(w), v>.  The block's lower bound must stay
    # below the exact pairing of that B(w) and of the B(v) finished from
    # r_v and rr_v, and within 1% of it.
    K = 1000.0
    C, y = np.ones((1, n)), np.zeros(1)
    split = quartic_forward(C, y).split
    w = np.full(n, 1.0 / n)
    v = M * np.where(np.arange(n) % 2 == 0, 1.0, -1.0) - K / n
    assert w.sum() == 1.0 and v.sum() == -K
    u = Fraction(2.0**-53)
    g1 = Fraction(_rounding_gamma(1))
    scaled = (1 + g1) * (1 + u) - 1  # the GEMV of C^T r_w (one term) and the scaling by rr_w
    edge_w, edge_v = (Fraction(_rounding_gamma(n)) * sum(abs(Fraction(float(x))) for x in z) for z in (w, v))
    uu_w, uu_v = float(w.dot(w)), float(v.dot(v))
    signs = np.sign(v)
    for side_w, side_v, side_rr, side_b in itertools.product((-1, 1), repeat=4):
        r_w = _at_edge(1 + side_w * edge_w, Fraction(1))
        r_v = _at_edge(-Fraction(K) + side_v * edge_v, -Fraction(K))
        rr_w, rr_v = (_at_edge(Fraction(r) ** 2 * (1 + side_rr * g1), Fraction(r) ** 2) for r in (r_w, r_v))
        center = Fraction(rr_w) * Fraction(r_w)
        b_w = np.array([_at_edge(center * (1 + side_b * sign * scaled), center) for sign in signs])
        b_v = split.finish(v, (np.array([r_v]), rr_v, uu_v))
        exact = _exact_pairing(b_w, b_v, w, v)
        bound = _block_bound(split, w, (np.array([r_w]), rr_w, uu_w), b_w, v)
        assert 0.99 * exact < Fraction(bound) <= exact, (side_w, side_v, side_rr, side_b)


def test_block_rows_whose_forward_value_could_overflow_are_never_certified():
    # B(v) = (2e78)**4 v**3 overflows from v = 0.022 on; the window declines
    # every row past ||r_v|| <= 2**75, long before, and the arithmetic of
    # the bound stays finite well past it
    C, y = np.array([[2e78]]), np.zeros(1)
    split = quartic_forward(C, y).split
    w = np.array([1e-78])
    st_w = split.first(w)
    b_w = split.finish(w, st_w)
    V = 10.0 ** np.arange(-80.0, 0.0, 0.05)[:, None]
    wv = w - V
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = split.block_pairing(w, st_w, b_w, V, np.sqrt(np.einsum("ij,ij->i", wv, wv)))
        finite = np.array([np.isfinite(split.finish(v, split.first(v))).all() for v in V])
    assert not finite.all() and np.isfinite(bounds).any()
    assert not np.isnan(bounds).any()
    # every certifiable row has a finite B(v), with room to spare
    assert finite[np.isfinite(bounds)].all()
    assert V[np.isfinite(bounds)].max() < 1e-30


@pytest.mark.parametrize("scale", [1.0, 2.0**-140], ids=["c-zero", "below-window"])
def test_block_rows_whose_residual_bound_leaves_the_window_are_never_certified(scale):
    # C = I: r_v along r_w is c = <r_w, r_v>, and ||r_v|| >= |c| / ||r_w||.
    # c-zero: r_v is orthogonal to r_w, so nothing bounds ||r_v|| below.
    # below-window: c is certified positive, but c**2 / rr_w < 2**-300.
    # The per-trial pairing, which sees r_v, certifies both rows.
    C, y = np.eye(2), np.zeros(2)
    split = quartic_forward(C, y).split
    w = np.array([scale, 0.0])
    v = np.array([1e-10 * scale if scale < 1 else 0.0, scale])
    st_w = split.first(w)
    b_w = split.finish(w, st_w)
    assert _block_bound(split, w, st_w, b_w, v) == -math.inf
    assert split.pairing(w, st_w, v, split.first(v)) > 0.0


def test_ifb_certifies_2040_of_2183_rejected_trials_on_cs512_both_paths():
    # the pinned count of the per-trial certificate (README, numerical notes)
    # holds whether a rejected trial is certified by its block or by its
    # own first pass; the block bound declines some rows the per-trial
    # bound then certifies
    problem = _cs512()
    stop = StoppingRule("distance_to_reference", 1e-2, reference=problem.reference)
    firsts = []
    split = problem.forward.split

    def first(u):
        firsts.append(1)
        return split.first(u)

    counted = dataclasses.replace(problem.forward, split=dataclasses.replace(split, first=first))
    for p in (problem, _per_trial(problem), dataclasses.replace(problem, forward=counted)):
        _, trace = solve(p, p.u0, p.u1, SolverConfig(stop=stop, max_iters=300))
        rejected = sum(r.forward_evals - 2 for r in trace.records)
        assert (trace.total_certified, rejected) == (2040, 2183)
    # one first pass per search, plus one per row the block declined
    block_certified = trace.total_forward_evals - len(firsts)
    assert block_certified == 1824


# ---------------------------------------------------------------------------
# (d) non-finite rows


def _scheduled(schedule):
    """A resolvent, with block form, that returns ``schedule[j]`` for the step ``0.5**j``."""

    def apply(x, lam):
        return schedule[round(-math.log2(lam))]

    return ResolventOperator(apply, block=lambda X, lams: np.array([apply(None, lam) for lam in lams]))


# B(w) = 1.6e79 at w = 1e-78: v = 0 is rejected, v = w accepted, and
# B(0.025) = 2.5e153 * 2e78 * 5e76 overflows
_C, _Y, _W = np.array([[2e78]]), np.zeros(1), np.array([1e-78])


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([np.nan]), r"^J\(w - lam\*B\(w\)\) is non-finite$"),
        (np.array([np.inf]), r"^J\(w - lam\*B\(w\)\) is non-finite$"),
        (np.array([0.025]), r"^B\(v\) is non-finite$"),
    ],
    ids=["resolvent", "resolvent-inf", "forward"],
)
def test_non_finite_row_raises_at_the_same_trial(bad, message):
    # two rejected trials, then the bad one; a row past it is accepted
    schedule = [np.zeros(1), np.zeros(1), bad, _W] + [np.zeros(1)] * 13
    fwd = quartic_forward(_C, _Y)
    for resolvent in (_scheduled(schedule), _scheduled(schedule).apply):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate, match=message):
            backtrack(_W, fwd, resolvent, LineSearchParams())
    # with the accepted row before the bad one, neither path raises
    schedule[1] = _W
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = backtrack(_W, fwd, _scheduled(schedule), LineSearchParams())
        plain = backtrack(_W, fwd, _scheduled(schedule).apply, LineSearchParams())
    assert block.j == plain.j == 1
    assert block.v.tobytes() == plain.v.tobytes() and block.b_v.tobytes() == plain.b_v.tobytes()
    assert (block.forward_evals, block.resolvent_evals) == (plain.forward_evals, plain.resolvent_evals) == (3, 2)
    assert block.speculative == 14 and plain.speculative == 0


# ---------------------------------------------------------------------------
# (e) blocks stop at the smallest step


@pytest.mark.parametrize("cap, blocks", [(3, [4]), (16, [16, 1]), (20, [16, 5]), (40, [16, 8, 8, 8, 1])])
def test_blocks_never_pass_the_smallest_step(cap, blocks):
    # every trial returns v = 0, which is rejected, so the search exhausts
    seen = []

    def block(X, lams):
        seen.append(lams.copy())
        return np.zeros_like(X)

    mu = mu_with_cap(cap)
    params = LineSearchParams(mu=mu)
    fwd = quartic_forward(_C, _Y)
    messages = []
    for resolvent in (ResolventOperator(lambda x, lam: np.zeros_like(x), block=block), lambda x, lam: np.zeros_like(x)):
        with pytest.raises(BacktrackExhausted) as info:
            backtrack(_W, fwd, resolvent, params)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert [len(lams) for lams in seen] == blocks
    assert np.concatenate(seen).tolist() == [mu**j for j in range(cap + 1)]
    assert messages[0].endswith(
        f"({cap} backtracks); the step the acceptance test needs lies below s*2**-60: "
        "B varies faster near w than that step resolves, or is discontinuous there"
    )


@pytest.mark.parametrize("s, mu", [(1.0, 0.5), (2.0, 0.5), (2.0, 0.9), (0.3, 0.7)])
def test_every_trial_step_is_s_times_mu_to_the_j_bitwise(s, mu):
    # every trial returns v = 0, which is rejected, so each search tries every
    # exponent from j_start on, in blocks or one at a time, down to the first
    # step at or below s*2**-60
    last = next(j for j in itertools.count() if s * mu**j <= s * 2.0**-60)
    assert last == {0.5: 60, 0.7: 117, 0.9: 395}[mu]
    expected = [(s * mu**j).hex() for j in range(last + 1)]
    seen = []

    def block(X, lams):
        seen.extend(lams.tolist())
        return np.zeros_like(X)

    def apply(x, lam):
        seen.append(lam)
        return np.zeros_like(x)

    fwd = quartic_forward(_C, _Y)
    for warm_start, j_start in ((False, 0), (False, 23), (True, 0), (True, 23)):
        params = LineSearchParams(s=s, mu=mu, warm_start=warm_start)
        for resolvent in (ResolventOperator(apply, block=block), apply):
            seen.clear()
            with pytest.raises(BacktrackExhausted):
                backtrack(_W, fwd, resolvent, params, j_start=j_start)
            assert [lam.hex() for lam in seen] == expected[j_start:]


def test_block_starts_at_j_start():
    seen = []

    def block(X, lams):
        seen.append(lams.copy())
        return np.repeat(_W[None, :], len(lams), axis=0)  # v = w is accepted

    ls = backtrack(_W, quartic_forward(_C, _Y), ResolventOperator(None, block=block), LineSearchParams(), j_start=50)
    assert ls.j == 50 and ls.speculative == 10
    assert seen[0].tolist() == [0.5**j for j in range(50, 61)]


# ---------------------------------------------------------------------------
# the speculative count in the trace


def test_restarting_ifb_records_speculative_rows_and_warm_ifb_none():
    problem = _cs512()
    _, restart = _run("ifb", problem, False)
    _, warm = _run("ifb-warm", problem, False)
    assert restart.total_speculative > 0
    assert all(r.speculative >= 0 for r in restart.records)
    assert warm.total_speculative == 0


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_integral_cells_record_no_speculative_rows(case):
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
        assert trace.iterations > 0 and trace.total_speculative == 0
