"""Three planted problems, each with a known solution ``u*`` and ``a*`` in ``A(u*)`` (see ``problems.planted``).

* ``cs``: the quartic map of cs-512 seed 1 (``gen_cs(512, 256, 10, seed=1)``)
  and its soft threshold at ``rho``, planted at its spike signal, with
  ``a* = rho*sign(u*)`` on the support and ``a*`` drawn from
  ``default_rng(0)`` in ``[-rho/2, rho/2)`` off it;
* ``box``: the projection onto ``[-1, 1]^8`` and ``B0(u) = u^3 + u``, with
  three active bounds;
* ``nonlocal``: on the trapezoid grid of ``n`` nodes,
  ``B0(u) = K u + u*log(1 + |u|)`` with ``(K u)_i = sum_j min(t_i, t_j) w_j u_j``
  and the integral l1 penalty's soft threshold, planted at ``u* = sin(3 pi t)``
  where that exceeds 0.05 and 0 elsewhere, started at ``l2`` case 1.

Each has a strictly complementary ``a*`` (``|a*_i| < rho`` off the support,
nonzero at an active bound), and ``u*`` is the only solution, so a distance
to it measures convergence: ``B0`` is strictly monotone on the box and
nonlocal plants, and on ``cs`` every solution has the same ``C u`` (the
quartic is strictly convex in the residual), lies on the support of ``u*``
(strict complementarity), and the support's 10 columns of ``C`` are
linearly independent.
"""

import numpy as np

from mvisolve.operators import ForwardOperator, box_resolvent, l1_resolvent, log_operator
from mvisolve.problems import gen_cs, planted, table_initials
from mvisolve.spaces import euclidean, trapezoid_unit_interval


def cs_plant(a_star=None):
    """cs-512 seed 1 planted at its spike signal; ``a_star(u*, rho)`` replaces the drawn ``a*``."""
    p = gen_cs(512, 256, 10, snr_db=40.0, seed=1)
    u, rho = p.reference, p.metadata["rho"]
    if a_star is None:
        a = np.where(u != 0.0, rho * np.sign(u), np.random.default_rng(0).uniform(-rho / 2, rho / 2, u.size))
    else:
        a = a_star(u, rho)
    return planted(p.forward, p.resolvent, p.space, u, a, p.u1)


BOX_SOLUTION = np.array([1.0, -1.0, 1.0, 0.3, -0.5, 0.2, 0.0, 0.7])
#: outward at the three active bounds, zero inside the box
BOX_A_STAR = np.array([0.5, -0.8, 1.2, 0.0, 0.0, 0.0, 0.0, 0.0])


def box_plant(a_star=BOX_A_STAR):
    box = box_resolvent(-np.ones(8), np.ones(8))
    start = np.array([-2.0, 2.0, 0.0, 1.0, 1.0, -1.0, 3.0, -3.0])
    return planted(ForwardOperator(lambda u: u**3 + u), box, euclidean(8), BOX_SOLUTION, a_star, start)


def nonlocal_plant(n=126):
    space = trapezoid_unit_interval(n)
    t = np.linspace(0.0, 1.0, n)
    K = np.minimum.outer(t, t) * space.weights  # min(t_i, t_j) w_j: self-adjoint and PSD for <., .>_w
    s = np.sin(3.0 * np.pi * t)
    u = np.where(s > 0.05, s, 0.0)
    forward = ForwardOperator(lambda v: K.dot(v) + log_operator(v))
    return planted(forward, l1_resolvent(1.0), space, u, np.sign(u), table_initials(1, n)[1])


PLANTS = {"cs": cs_plant, "box": box_plant, "nonlocal-n126": nonlocal_plant, "nonlocal-n1001": lambda: nonlocal_plant(1001)}
