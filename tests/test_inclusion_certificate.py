"""The forward-backward point is an exact resolvent point: ``(x - v)/lam`` lies in ``A(v)``.

For ``v = J(x, lam)`` with ``x = w - lam*B(w)``, the resolvent
characterization gives ``(x - v)/lam in A(v)``.  With ``A`` the
subdifferential of ``rho*||.||_1`` that is, coordinatewise,

* ``(x_i - v_i)/lam == rho*sign(v_i)`` where ``v_i != 0``, and
* ``|x_i - v_i|/lam <= rho`` where ``v_i == 0``.

The tests take ``ifb`` steps through the method table and check both at
every step, in floating point, within this allowance (``u = 2**-53``).
The resolvent receives ``x = fl(w - fl(lam*B(w)))``, the float the test
recomputes, and forms ``t = fl(lam*rho) = lam*rho*(1 + e4)``.

* On the support, ``|x| > t`` and ``v = fl(x - s*t) = (x - s*t)(1 + e1)``
  with ``s = sign(x) = sign(v)``, so ``x - v = s*t - e1*v/(1 + e1)``.  The
  test's ``g = fl(fl(x - v)/lam)`` then lies within
  ``((1+u)^3 - 1)*rho + u(1+u)^2/(1-u) * |v|/lam <= 4u(rho + |v|/lam)`` of
  ``s*rho``.  The ``|v|/lam`` term is the cancellation in ``x - v`` and
  grows as ``lam`` shrinks.
* Off it, ``|x| <= t`` and ``v = x - x = +0.0``, so ``g = fl(x/lam)`` and
  ``|g| <= rho*(1+u)^2 <= rho*(1 + 3u)``.

Measured: on cs-512 seed 1 (``lam`` down to 4.8e-7), the error on the
support is at most 2.3e-11*rho (0.24 of the allowance) and ``|g|`` off it
at most 0.99993*rho; on l2 case 1 the error on the support is 0 and
``|g|`` off it at most 0.107.

Under strong monotonicity the same point bounds the distance to the
solution, ``||v - u*|| <= ||phi||/(lam*beta)``; the last test checks that
bound from a trace file, with an allowance derived in its docstring.
"""

import math

import numpy as np
import pytest

from _table import one_step
from mvisolve.bench import emit_convergence_csv, read_trace_csv
from mvisolve.problems import gen_cs, gen_l2, strongly_monotone_problem
from mvisolve.solver import SolverConfig, StoppingRule, TerminalStatus, solve

_U = 2.0**-53


def _check_membership(prob, rho, max_steps):
    """Take up to ``max_steps`` ``ifb`` steps, checking each point; return the steps taken and the last record."""
    u_prev, u_curr = prob.u0, prob.u1
    for k in range(1, max_steps + 1):
        u_next, out = one_step(SolverConfig(), k, u_prev, u_curr, prob.forward, prob.resolvent, prob.space)
        lam, v = out.point.lam, out.point.v
        g = (out.w - lam * out.point.b_w - v) / lam
        on = v != 0.0
        err = np.abs(g[on] - rho * np.sign(v[on]))
        assert np.all(err <= 4 * _U * (rho + np.abs(v[on]) / lam)), (k, err.max())
        assert np.all(np.abs(g[~on]) <= rho * (1 + 3 * _U)), (k, np.abs(g[~on]).max())
        if out.phizero:
            return k, out
        u_prev, u_curr = u_curr, u_next
    return max_steps, out


def test_cs512_points_are_exact_l1_resolvent_points():
    prob = gen_cs(512, 256, 10, snr_db=40.0, seed=1)
    steps, out = _check_membership(prob, prob.metadata["rho"], 200)
    assert steps == 200 and not out.phizero
    assert 0 < np.count_nonzero(out.point.v) < 512  # both branches were checked


def test_l2_case1_points_are_exact_l1_resolvent_points_to_phi_zero():
    # l2's resolvent is the plain soft threshold at lam (rho = 1): the
    # quadrature weights cancel coordinatewise
    steps, out = _check_membership(gen_l2(1), 1.0, 2000)
    assert out.phizero, steps


_START = np.array([1.0, -0.7, 0.4, 2.0])  # criterion 4's start
_STRONG = {
    "strong-d3": lambda: strongly_monotone_problem(np.array([2.0, -1.0, 0.5])),
    "strong-d4": lambda: strongly_monotone_problem(_START),
    "strong-d20": lambda: strongly_monotone_problem(np.random.default_rng(20).standard_normal(20)),
    # A = beta*I, criterion 4's companion, where the bound is tight
    "shift-beta1": lambda: strongly_monotone_problem(_START, rho=0.0, beta=1.0),
    "shift-beta0.1": lambda: strongly_monotone_problem(_START, rho=0.0, beta=0.1),
    "shift-beta0.01": lambda: strongly_monotone_problem(_START, rho=0.0, beta=0.01),
}


@pytest.mark.parametrize("name", list(_STRONG))
def test_the_certificate_bounds_the_distance_to_the_solution(tmp_path, name):
    """Every ``ifb`` step has ``||v_k - u*|| <= r_k/beta`` with ``r_k = phi_norm_k/lam_k``, read from the trace file.

    ``A = rho*sgn + beta*I`` is ``beta``-strongly monotone and the log map
    ``B`` is monotone, so ``A + B`` is ``beta``-strongly monotone and
    ``u* = 0`` is its zero.  For any ``g in (A + B)(v)``, pairing with
    ``0 in (A + B)(u*)`` gives ``||v - u*|| <= ||g||/beta``.  In exact
    arithmetic ``g = phi/lam`` is such an element, with
    ``phi = (w - v) - lam*(B(w) - B(v))``; so the bound reads ``r_k/beta``.

    In floating point (``u = 2**-53``, every rounding ``(1 + d)`` with
    ``|d| <= u``, no underflow), per coordinate.  The default search tries
    ``lam = 2**-j``, so every product with ``lam`` is exact (the test checks
    it).  ``log1p`` is assumed within 4 ulp, so ``b = fl(B(.)) =
    B(.)(1 + e)`` with ``|e| <= 9.01u`` and ``lam*|b - B| <= 10u*lam*|b|``.
    The computed chain is ``x^ = fl(w - lam*b_w)``, ``c^ = fl(1 + lam*beta)``,
    ``y = fl(x^/c^)``, ``t = fl(lam*rho/c^)`` and ``v = fl(y - clip(y, -t, t))``.

    * The element.  Where ``v != 0``, ``|y| > t`` and ``sgn(v) = sgn(y) = s``;
      take ``a = rho*s + beta*v``.  Where ``v == 0``, ``|y| <= t``; take
      ``a = rho*y/t`` (``0`` when ``rho = 0``, as then ``y = x^ = 0``).  Then
      ``g = a + B(v)`` lies in ``(A + B)(v)`` exactly.  With
      ``x = w - lam*B(w)`` and ``h = (w - v)/lam - B(w) + B(v)``,
      ``lam*(g - h) = lam*a + v - x``.  On the support that is
      ``[(1 + lam*beta)*v - (x^ - s*lam*rho)] + (x^ - x)``, and the bracket is
      ``x^*t1 - s*lam*rho*t2`` with ``|t1|, |t2| <= gamma_3``.  Off it,
      ``lam*a = x^(1 + d3)/(1 + d4)``.  Since ``|x^ - x| <= u*|w - lam*b_w| +
      10u*lam*|b_w|``, either way ``lam*|g - h| <= 15u(|w| + lam*|b_w| +
      lam*rho)``.
    * The direction.  ``phi^ = fl(fl(w - v) - lam*fl(b_w - b_v))``, so
      ``|phi^ - lam*h| <= gamma_2(|w| + |v| + lam*|b_w| + lam*|b_v|) +
      10u*lam*(|b_w| + |b_v|) <= 13u(|w| + |v| + lam*|b_w| + lam*|b_v|)``.
    * The norm.  ``phi_norm = fl(sqrt(fl(<phi^, phi^>)))`` has
      ``||phi^|| <= phi_norm*(1 + (d + 3)u)``, ``d`` the dimension.

    So ``||v|| <= (phi_norm*(1 + (d + 3)u) + ||E||)/(lam*beta)`` with
    ``E = 28u(|w| + |v| + lam*|b_w| + lam*|b_v| + lam*rho)``.  The test
    evaluates ``E`` with ``30u``, which covers the rounding of its own
    evaluation, and multiplies by ``1 + 2(d + 6)u``, which covers the
    ``(d + 3)u`` above, its computed ``||v||`` (within ``(d + 2)u``) and
    the four roundings of the right side.

    Measured: the ratio ``||v_k - u*||/(r_k/beta)`` is at most 0.130 on the
    ``strong`` problems (225, 227 and 233 steps), and comes within 1.5e-11
    of 1 on ``A = beta*I`` (10, 121 and 1,114 steps), where ``B(v)`` is of
    second order in ``v`` and the bound is tight.  There the allowance adds
    at most 2.5e-14 (``beta = 1``) to 6.7e-13 (``beta = 0.01``) of the bound.
    """
    prob = _STRONG[name]()
    rho, beta = prob.metadata["rho"], prob.metadata["beta"]
    d = len(prob.u0)
    cfg = SolverConfig(stop=StoppingRule("distance_to_reference", 1e-22), max_iters=3000, check_invariants=True)
    _, trace = solve(prob, prob.u0, prob.u1, cfg)
    assert trace.status in (TerminalStatus.CONVERGED, TerminalStatus.PHI_ZERO) and trace.total_violations == 0
    cols = read_trace_csv(emit_convergence_csv(trace, tmp_path / "trace.csv"))
    r = cols["phi_norm"] / cols["lam"]
    u_prev, u_curr = prob.u0, prob.u1
    for k, lam, phi_norm, r_k in zip(cols["k"], cols["lam"], cols["phi_norm"], r):
        u_next, out = one_step(cfg, int(k), u_prev, u_curr, prob.forward, prob.resolvent, prob.space)
        assert (out.point.lam, out.phi_norm) == (lam, phi_norm), k  # the replay is the traced run
        assert math.frexp(lam)[0] == 0.5, lam
        w, v, b_w, b_v = out.w, out.point.v, out.point.b_w, out.point.b_v
        e = 30 * _U * (np.abs(w) + np.abs(v) + lam * np.abs(b_w) + lam * np.abs(b_v) + lam * rho)
        dist = np.linalg.norm(v - prob.reference)
        assert dist <= (r_k + np.linalg.norm(e) / lam) / beta * (1 + 2 * (d + 6) * _U), (k, dist, r_k / beta)
        u_prev, u_curr = u_curr, u_next
