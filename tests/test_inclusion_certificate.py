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
"""

import numpy as np

from _table import one_step
from mvisolve.problems import assemble, gen_cs, gen_l2
from mvisolve.solver import SolverConfig

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
    prob = assemble(gen_cs(512, 256, 10, snr_db=40.0, seed=1))
    steps, out = _check_membership(prob, prob.metadata["rho"], 200)
    assert steps == 200 and not out.phizero
    assert 0 < np.count_nonzero(out.point.v) < 512  # both branches were checked


def test_l2_case1_points_are_exact_l1_resolvent_points_to_phi_zero():
    # l2's resolvent is the plain soft threshold at lam (rho = 1): the
    # quadrature weights cancel coordinatewise
    steps, out = _check_membership(assemble(gen_l2(1)), 1.0, 2000)
    assert out.phizero, steps
