"""Independent brute-force oracles used to freeze expected test values.

Nothing in here may call into mvisolve solver code: these are the
cross-checks.
"""

import numpy as np


def prox_1d_grid(x, weight_fn, lo=None, hi=None, step=1e-3):
    """Brute-force scalar proximal map: argmin over a grid of
    0.5*(y - x)^2 + weight_fn(y).
    """
    if lo is None:
        lo = -abs(x) - 1.0
    if hi is None:
        hi = abs(x) + 1.0
    grid = np.arange(lo, hi + step, step)
    vals = 0.5 * (grid - x) ** 2 + np.array([weight_fn(y) for y in grid])
    return grid[int(np.argmin(vals))]


def prox_l1_grid(x, tau, step=1e-3):
    """Grid argmin of 0.5*(y - x)^2 + tau*|y|, vectorized over the grid."""
    grid = np.arange(-abs(x) - 1.0, abs(x) + 1.0 + step, step)
    vals = 0.5 * (grid - x) ** 2 + tau * np.abs(grid)
    return grid[int(np.argmin(vals))]


def central_diff_gradient(f, u, h=None):
    """Componentwise central finite difference of a scalar function."""
    u = np.asarray(u, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + np.linalg.norm(u))
    g = np.zeros_like(u)
    for i in range(len(u)):
        e = np.zeros_like(u)
        e[i] = h
        g[i] = (f(u + e) - f(u - e)) / (2.0 * h)
    return g


def grid_projection_2d(u, lo, hi, step=1e-3):
    """Nearest grid point of a 2-D box to u (exhaustive search)."""
    xs = np.arange(lo[0], hi[0] + step, step)
    ys = np.arange(lo[1], hi[1] + step, step)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    d2 = (X - u[0]) ** 2 + (Y - u[1]) ** 2
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return np.array([xs[i], ys[j]])


def quartic_objective(C, v):
    def f(u):
        r = C @ u - v
        return 0.25 * float(r @ r) ** 2

    return f


def lpa_objective(Q, q, mu, alpha):
    def f(u):
        r = Q @ u - q
        return 0.5 * float(r @ r) + mu * float(np.sum(np.abs(u) ** alpha))

    return f


def loglinear_fit(ks, values):
    """Fit values ~ c * theta**k; returns (theta, r_squared)."""
    ks = np.asarray(ks, dtype=float)
    y = np.log(np.asarray(values, dtype=float))
    coeffs = np.polyfit(ks, y, 1)
    pred = np.polyval(coeffs, ks)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(coeffs[0])), r2


def contraction_crossing(C, v, rho, u_true, tol=1e-2, max_iters=300):
    """First iteration at which ``||u_k - u_true||^2 <= tol``, or None.

    A plain transcription of the README's "Solver in one iteration" on the
    sparse-recovery problem ``0 in B(u) + rho*d||u||_1`` with the quartic
    fidelity gradient ``B(u) = ||Cu - v||^2 C^T (Cu - v)``, started from
    ``u_0 = u_1 = 0`` at the documented defaults ``s=1, mu=0.5,
    sigma=0.9, gamma=1.9``:

        w   = u_k + theta_k*(u_k - u_{k-1}),  theta_k = theta_max*sqrt(k)/(k+5)
        lam = s*mu**j, smallest j >= 0 with lam*||B(w) - B(v)|| <= sigma*||w - v||
        v   = soft(w - lam*B(w), lam*rho)
        phi = (w - v) - lam*(B(w) - B(v))
        u_{k+1} = w - gamma*delta*phi,  delta = <w - v, phi>/||phi||^2

    ``theta_max`` is 99% of the admissible inertia bound ``E/(E + max(1, E))``
    with ``E = ((2-gamma)/gamma)*((1-sigma)/(1+sigma))**4``.  A vanishing
    ``phi`` means ``v`` solves the inclusion and ends the run at ``v``.
    """
    s, mu, sigma, gamma = 1.0, 0.5, 0.9, 1.9
    e = ((2.0 - gamma) / gamma) * ((1.0 - sigma) / (1.0 + sigma)) ** 4
    theta_max = 0.99 * e / (e + max(1.0, e))
    C = np.asarray(C, dtype=float)
    v = np.asarray(v, dtype=float)
    u_true = np.asarray(u_true, dtype=float)

    def grad(u):
        r = C @ u - v
        return float(r @ r) * (C.T @ r)

    def soft(x, tau):
        return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)

    def norm(x):
        return float(np.sqrt(x @ x))

    u_prev = np.zeros(C.shape[1])
    u_curr = np.zeros(C.shape[1])
    for k in range(1, max_iters + 1):
        theta = theta_max * np.sqrt(k) / (k + 5.0)
        w = u_curr + theta * (u_curr - u_prev)
        b_w = grad(w)
        for j in range(61):  # down to s*mu**60 = s*2**-60
            lam = s * mu**j
            p = soft(w - lam * b_w, lam * rho)
            b_p = grad(p)
            if lam * norm(b_w - b_p) <= sigma * norm(w - p):
                break
        else:
            raise RuntimeError(f"line search exhausted at iteration {k}")
        phi = (w - p) - lam * (b_w - b_p)
        if norm(phi) <= 1e-14 * (1.0 + norm(w)):
            err = p - u_true
            return k if float(err @ err) <= tol else None
        delta = float((w - p) @ phi) / float(phi @ phi)
        u_next = w - gamma * delta * phi
        err = u_next - u_true
        if float(err @ err) <= tol:
            return k
        u_prev, u_curr = u_curr, u_next
    return None
