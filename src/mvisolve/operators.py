"""Operator primitives: single-valued forward maps and resolvents.

The solvers only ever touch two things: a monotone single-valued map
evaluated directly, and a set-valued maximal monotone operator exposed
through its resolvent ``(I + lam*A)^{-1}``.  Both are wrapped in thin
immutable carriers, which hold the optional split and block forms the
line search uses.  Every callable a carrier holds is pure: the line
search evaluates splits, block pairings and block forms on trial points
it may never reach, and one operator is reused across cells and passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spaces import _rounding_gamma

__all__ = [
    "ForwardOperator",
    "ForwardSplit",
    "ResolventOperator",
    "soft_threshold",
    "quartic_fidelity_gradient",
    "lpa_gradient",
    "log_operator",
    "zero_forward",
    "identity_forward",
    "cubic_forward",
    "log_forward",
    "quartic_forward",
    "lpa_forward",
    "linear_forward",
    "identity_resolvent",
    "l1_resolvent",
    "box_resolvent",
    "shifted_l1_resolvent",
]


@dataclass(frozen=True)
class ForwardSplit:
    """A forward map that factors through one matrix, evaluated in two passes.

    ``first(u)`` makes the first matrix pass and returns a state;
    ``finish(u, state)`` completes it and returns ``B(u)``, bitwise equal to
    the operator's ``fn(u)``.  ``pairing(w, st_w, v, st_v)`` returns a lower
    bound on the exact inner product ``<B(w) - B(v), w - v>`` of the two
    float64 vectors ``finish`` would return, certified against rounding and
    computed from the two states alone, or ``-inf`` where it certifies none.
    It must return ``-inf`` whenever ``finish(v, st_v)`` could be
    non-finite: the line search skips ``finish`` only on the strength of
    this bound, and must not skip a non-finite ``B(v)``.

    ``block_pairing(w, st_w, b_w, V, wv_norms)``, when given, returns such
    a bound for the ``B(v)`` of ``finish(v, first(v))`` for every row ``v``
    of ``V`` without a first pass over them, from ``b_w = finish(w, st_w)``
    and ``wv_norms``, the computed norms of the rows of ``w - V``.

    The callables keep no state between calls (everything per point lives
    in the returned state): the line search calls them speculatively, on
    rows it may never use.
    """

    first: Callable[[np.ndarray], tuple]
    finish: Callable[[np.ndarray, tuple], np.ndarray]
    pairing: Callable[[np.ndarray, tuple, np.ndarray, tuple], float]
    block_pairing: Optional[Callable[..., np.ndarray]] = None


@dataclass(frozen=True)
class ForwardOperator:
    """Single-valued map ``u -> B(u)``, evaluated directly.

    No solver in this package requires a Lipschitz constant.  ``split``,
    when given, is a stateless two-pass form of ``fn`` (see
    :class:`ForwardSplit`) that lets the line search reject a trial step
    before its second matrix pass; ``fn`` stays the definition of the map.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    split: Optional[ForwardSplit] = None

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.fn(u)


@dataclass(frozen=True)
class ResolventOperator:
    """Set-valued operator exposed through ``x -> (I + lam*A)^{-1}(x)``.

    For subdifferentials this is the proximal map, for normal cones the
    metric projection.  ``apply`` must be single-valued and
    dimension-preserving for every ``lam > 0``.  ``block(X, lams)``, when
    given, is the row-wise form: row ``i`` of its result is bitwise
    ``apply(X[i], lams[i])``, and it is pure, so the line search may use it
    to evaluate several trial steps at once.
    """

    apply: Callable[[np.ndarray, float], np.ndarray]
    block: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, x: np.ndarray, lam: float) -> np.ndarray:
        return self.apply(x, lam)


# ---------------------------------------------------------------------------
# concrete maps


def soft_threshold(u: np.ndarray, tau: float) -> np.ndarray:
    """Componentwise shrinkage ``sgn(u_i) * max(0, |u_i| - tau)``.

    This is the proximal map of ``tau * ||.||_1``; with ``tau = lam * rho``
    it is the resolvent of the scaled l1 subdifferential.  It is computed
    in Moreau form, ``u - clip(u, -tau, tau)`` (the residual of the
    projection onto the dual ball; Combettes and Wajs, *Multiscale Model.
    Simul.* 4, 2005), in three ufunc passes and one temporary: see
    :func:`_shrink`.

    Parameters
    ----------
    u : ndarray
        Input vector.
    tau : float
        Nonnegative threshold.
    """
    if not tau >= 0:
        raise ValueError(f"threshold tau must be nonnegative, got {tau!r}")
    return _shrink(u, tau)


def _shrink(x, t):
    """``x - max(min(x, t), -t)``, elementwise, for thresholds ``t >= 0`` broadcast against ``x``.

    Every value is that of ``sgn(x) * max(|x| - t, 0)``, rounding included:
    above the threshold the result is ``fl(x - t)`` and below it
    ``fl(x + t) = -fl(|x| - t)``, as rounding to nearest is symmetric.  In
    the dead zone ``|x| <= t`` the clip is ``x`` itself and the result is
    ``x - x = +0.0``, also for ``x = -0.0``; at ``t = +0.0`` that needs
    ``minimum`` and ``maximum`` to return the same operand of a tie
    ``-0.0 == +0.0``, as numpy's do (at ``t = -0.0`` the entry ``-0.0``
    stays ``-0.0``).  NaN stays NaN, and an infinite ``x`` at an infinite
    ``t`` gives NaN, as ``|x| - t`` does.  So only the sign of a zero
    differs from the product form, whose dead zone carries the sign of
    ``x``.
    """
    clip = np.minimum(x, t)
    np.maximum(clip, -t, out=clip)
    return np.subtract(x, clip, out=clip)


def quartic_fidelity_gradient(C: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Gradient ``||Cu - v||^2 * C^T (Cu - v)`` of ``u -> ||Cu - v||^4 / 4``.

    Convex and differentiable but not globally Lipschitz: the local
    Lipschitz constant grows with the residual norm, which is exactly the
    regime the Armijo-backtracked solvers are built for.
    """
    # ndarray.dot runs the same GEMVs as ``@`` with a cheaper dispatch
    r = C.dot(u) - v
    return float(r.dot(r)) * r.dot(C)


def lpa_gradient(Q: np.ndarray, q: np.ndarray, mu: float, alpha: float, u: np.ndarray) -> np.ndarray:
    """Gradient of the least-squares plus l^alpha penalty objective.

    Returns ``Q^T(Qu - q) + mu*alpha*sgn(u_i)|u_i|^(alpha-1)`` componentwise
    for ``alpha`` in (1, 2).  The penalty term is 0 at ``u_i = 0`` (the
    minimal-norm subgradient, and the limit of the formula since
    ``alpha > 1``); the derivative is unbounded near zero, so the map is
    continuous but not Lipschitz.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie strictly inside (1, 2)")
    if mu <= 0:
        raise ValueError("mu must be positive")
    r = Q.dot(u) - q
    # 0**(alpha-1) == 0 and sign(0) == 0, so no special case is needed at 0.
    return r.dot(Q) + mu * alpha * np.sign(u) * np.abs(u) ** (alpha - 1.0)


def log_operator(u: np.ndarray) -> np.ndarray:
    """Componentwise ``u_i * log(1 + |u_i|)``.

    Monotone on the whole line, continuous, and not Lipschitz near zero.
    """
    return u * np.log1p(np.abs(u))


# ---------------------------------------------------------------------------
# wrapped operator factories


def zero_forward() -> ForwardOperator:
    return ForwardOperator(lambda u: np.zeros_like(u))


def identity_forward() -> ForwardOperator:
    return ForwardOperator(lambda u: u)


def cubic_forward() -> ForwardOperator:
    """Componentwise ``u -> u^3``: monotone, continuous, not globally Lipschitz."""
    return ForwardOperator(lambda u: u ** 3)


def log_forward() -> ForwardOperator:
    return ForwardOperator(log_operator)


#: the quartic pairing bound is certified only while its scales lie in this window
_SCALE_LO, _SCALE_HI = 2.0**-300, 2.0**300


def _quartic_split(C: np.ndarray, y: np.ndarray) -> ForwardSplit:
    """Two-pass form of :func:`quartic_fidelity_gradient` with a certified pairing bound.

    The state of ``u`` is ``(r, rr, uu)``: the computed residual
    ``r = C@u - y``, ``rr = r.r`` and ``uu = u.u``.  ``finish`` is the second
    GEMV, ``rr * (C.T @ r)``, the same operations as the one-pass map.

    The pairing.  Let ``r_w``, ``r_v`` be the computed residuals and ``e_w``,
    ``e_v`` their rounding errors.  Exactly,
    ``<rr_w C^T r_w - rr_v C^T r_v, w - v> = <rr_w r_w - rr_v r_v, C(w - v)>``
    and ``C(w - v) = (r_w - r_v) - (e_w - e_v)``, so the pairing is
    ``p = <rr_w r_w - rr_v r_v, r_w - r_v>``.  It is computed with one inner
    product as ``rr_w**2 + rr_v**2 - (rr_w + rr_v) <r_w, r_v>``, which
    replaces ``||r_u||^2`` by ``rr_u``.  Let
    ``A = rr_w ||r_w|| + rr_v ||r_v||``, ``D = ||r_w|| + ||r_v||`` and
    ``g_k`` be :func:`mvisolve.spaces._rounding_gamma`.  Then

    * ``||e_u|| <= g_n ||C||_F ||u|| + g_1 ||r_u||`` (first GEMV, subtraction);
    * ``||B(u) - rr_u C^T r_u|| <= g_{m+1} rr_u ||C||_F ||r_u||`` (second
      GEMV, scaling);
    * ``|fl(p) - p| <= g_{m+4} A D``: ``g_m A D`` for ``rr_u`` and the inner
      product, whose errors are at most ``g_m ||r_u||^2`` and
      ``g_m ||r_w|| ||r_v||``, and ``g_3`` times the same scale for the
      three roundings of the formula.  The cancellation in the formula
      costs nothing, as the allowance already scales with ``A D``.

    So the exact pairing of the computed ``B(w)`` and ``B(v)`` is at least
    ``fl(p) - A (g_{m+5} D + 2 g_{m+n} ||C||_F (||w|| + ||v||))``, using
    ``||w - v|| <= ||w|| + ||v||``.  The bound returned subtracts
    ``2 g_{m+n+8}`` times ``A (D + 2 ||C||_F (||w|| + ||v||))``, with
    ``||C||_F`` inflated by 1.001 for the rounding of its ``m*n``-term sum
    (``g_{mn} < 1e-3`` below ``m*n = 8e12``).  The factor 2 covers the norms
    taken from the computed ``rr`` and ``uu``, the rounding of the scale and
    of the final subtraction.

    A bound is returned only while ``rr_w``, ``rr_v`` and ``||C||_F`` lie in
    ``[2**-300, 2**300]``.  There, what underflow adds to any term stays
    below ``2**-50`` of the slack the factor 2 leaves, and ``finish(v)`` is
    finite: every partial sum of ``C.T @ r_v`` is at most
    ``||C||_F ||r_v|| < 2**451``, and ``rr_v`` times it is below ``2**751``.

    The block pairing.  Block rows ``v`` get no first pass: the bound uses
    only the component of ``r_v`` along ``r_w``.  Let ``a = ||r_w||^2``,
    ``x = ||r_v||``, ``c_v = <r_w, r_v>``, ``k = 2.002 ||C||_F``, ``nw``,
    ``nr_w`` the roots of ``uu_w``, ``rr_w`` and ``N`` the row's computed
    ``||w - v||``.  Each term bounds one error, from the side the proof uses:

    * ``V^ = (1 + g_{n+8}) (nw + N) >= ||w|| + ||w - v|| >= ||v||``: ``uu_w``
      and ``N`` are sums of squares, ``w - v`` is rounded once per entry,
      and ``(1 - g_n)^(-1/2) (1 - u)^-5 <= 1 + g_{n+5}``.
    * ``X = (1 + 2 g_{m+n+8}) nr_w + k (N + g_n (V^ + nw)) >= x``, as
      ``r_v = r_w + C(v - w) + e_v - e_w``; the factor 2 in ``k`` covers
      ``(1 - g_1)^-1``, ``N`` and the computed ``||C||_F``.
    * ``delta = 2 g_{m+n+8} nr_w (X + k V^)`` bounds the error of
      ``c~ = fl(<b_w, v> / rr_w) - fl(<r_w, y>)`` (one GEMV of the block
      against ``b_w = rr_w fl(C^T r_w)``) in
      ``c_v = <C^T r_w, v> - <r_w, y> + <r_w, e_v>``: ``g_m`` for
      ``C^T r_w``, ``g_2`` for the scaling and the division, ``g_n``, ``g_m``
      for the dot products (``y = Cv + e_v - r_v``, hence ``X``), ``u`` for
      the subtraction and ``g_n ||C||_F ||v|| + g_1 x`` for ``<r_w, e_v>``;
      the factor 2 covers ``c_hi = c~ + delta``, ``c_min = max(|c~| - delta, 0)``.
    * ``rr_lo = c_min^2 (1 - 2 g_{m+4}) / rr_w <= rr_v``: Cauchy-Schwarz
      gives ``x >= c_min / sqrt(a)``, and ``rr_v >= (1 - g_m) x^2``,
      ``a <= rr_w / (1 - g_m)`` and three roundings.
    * ``p(s, c) = rr_w^2 + s^2 - (rr_w + s) c`` falls as ``c`` grows and is
      least over ``s >= rr_lo`` at ``s* = max(rr_lo, c_hi/2)``, so the
      block computes ``p(s*, c_hi) <= p(rr_v, c_v)``.
    * The final allowance: with ``X`` for ``||r_v||``, ``V^`` for ``||v||``
      and ``4 g_3 A^ D^`` for rounding ``p(s*, c_hi)``, where
      ``A^ = rr_w nr_w + X^3`` and ``D^ = nr_w + X``, the per-trial terms put
      the exact pairing of the float outputs above
      ``fl(p) - A^ (g_{m+16} D^ + g_{m+n+1} ||C||_F (nw + V^))``; the bound
      subtracts ``4 g_{m+n+8} A^ (D^ + k (nw + V^))``.

    ``X``, ``delta`` and the final allowance are affine in ``N``, evaluated
    as ``t0 + t1 N`` from per-search scalars; the factor 2 in each absorbs
    those roundings.  The last two margins cover different errors, so both
    stay: ``delta`` scales with ``nr_w`` and cannot cover the ``X^3``
    terms, and without it ``rr_lo`` overstates ``rr_v`` when ``r_v`` is
    parallel to ``r_w``.  A row is certified only while
    ``rr_lo >= 2**-300`` and ``X**2 <= 2**300``: then ``rr_v`` is in the
    window up to ``1 + g_m``, underflow is as negligible as above, and
    ``finish(v, first(v))`` is finite, as ``X >= g_n k V^ >= g_n k ||v||``
    keeps every partial sum of ``C @ v`` below ``2**803``.
    """
    m, n = C.shape
    c_fro = math.sqrt(float(np.vdot(C, C)))
    certifiable = _SCALE_LO <= c_fro <= _SCALE_HI
    c_scale = 2.0 * 1.001 * c_fro
    allowance = 2.0 * _rounding_gamma(m + n + 8)
    gap = _rounding_gamma(n) * c_scale
    shrink = 1.0 - 2.0 * _rounding_gamma(m + 4)
    tri = 1.0 + _rounding_gamma(n + 8)

    def first(u):
        r = C.dot(u) - y
        return r, float(r.dot(r)), float(u.dot(u))

    def finish(u, state):
        r, rr, _ = state
        return rr * r.dot(C)

    def pairing(w, st_w, v, st_v):
        r_w, rr_w, uu_w = st_w
        r_v, rr_v, uu_v = st_v
        if not (certifiable and _SCALE_LO <= rr_w <= _SCALE_HI and _SCALE_LO <= rr_v <= _SCALE_HI):
            return -math.inf
        p = rr_w * rr_w + rr_v * rr_v - (rr_w + rr_v) * float(r_w.dot(r_v))
        nr_w, nr_v = math.sqrt(rr_w), math.sqrt(rr_v)
        scale = (rr_w * nr_w + rr_v * nr_v) * (nr_w + nr_v + c_scale * (math.sqrt(uu_w) + math.sqrt(uu_v)))
        return p - allowance * scale

    def block_pairing(w, st_w, b_w, V, wv_norms):
        r_w, rr_w, uu_w = st_w
        if not (certifiable and _SCALE_LO <= rr_w <= _SCALE_HI):
            return np.full(len(V), -math.inf)
        nr_w, nw = math.sqrt(rr_w), math.sqrt(uu_w)
        kv = c_scale * tri
        x0, x1 = (1.0 + allowance) * nr_w + gap * (1.0 + tri) * nw, c_scale + gap * tri
        nr_hi = x0 + x1 * wv_norms
        delta = allowance * nr_w * (x0 + kv * nw) + allowance * nr_w * (x1 + kv) * wv_norms
        c = V.dot(b_w) / rr_w - float(r_w.dot(y))
        c_hi = c + delta
        c_min = np.maximum(np.abs(c) - delta, 0.0)
        rr_lo = c_min * c_min * (shrink / rr_w)
        s = np.maximum(rr_lo, 0.5 * c_hi)
        p = rr_w * rr_w + s * s - (rr_w + s) * c_hi
        nr_hi2 = nr_hi * nr_hi
        f0, f1 = 2.0 * allowance * (nr_w + x0 + (kv + c_scale) * nw), 2.0 * allowance * (x1 + kv)
        p -= (rr_w * nr_w + nr_hi2 * nr_hi) * (f0 + f1 * wv_norms)
        p[~((rr_lo >= _SCALE_LO) & (nr_hi2 <= _SCALE_HI))] = -math.inf
        return p

    return ForwardSplit(first, finish, pairing, block_pairing)


def quartic_forward(C: np.ndarray, v: np.ndarray) -> ForwardOperator:
    """The quartic fidelity gradient, with the two-pass split the line search can use."""
    C = np.asarray(C, dtype=float)
    v = np.asarray(v, dtype=float)
    return ForwardOperator(lambda u: quartic_fidelity_gradient(C, v, u), split=_quartic_split(C, v))


def lpa_forward(Q: np.ndarray, q: np.ndarray, mu: float, alpha: float) -> ForwardOperator:
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    return ForwardOperator(lambda u: lpa_gradient(Q, q, mu, alpha, u))


def linear_forward(M: np.ndarray) -> ForwardOperator:
    """``u -> M u``; monotone whenever ``M + M^T`` is positive semidefinite."""
    M = np.asarray(M, dtype=float)
    return ForwardOperator(lambda u: M.dot(u))


def identity_resolvent() -> ResolventOperator:
    """Resolvent of the zero operator: the identity for every step size."""
    return ResolventOperator(lambda x, lam: x)


def l1_resolvent(rho: float) -> ResolventOperator:
    """Resolvent of the scaled l1 subdifferential: ``x -> soft(x, lam*rho)``."""
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho!r}")

    def block(X, lams):
        # the same exactly rounded elementwise operations as soft_threshold,
        # so each row is bitwise apply(X[i], lams[i]); lam > 0 and rho >= 0
        # make every threshold nonnegative
        return _shrink(X, (lams * rho)[:, None])

    return ResolventOperator(lambda x, lam: soft_threshold(x, lam * rho), block=block)


def box_resolvent(lo: np.ndarray, hi: np.ndarray) -> ResolventOperator:
    """Resolvent of the normal cone of a box: projection, independent of lam."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    for name, bound in (("lo", lo), ("hi", hi)):
        if np.isnan(bound).any():
            raise ValueError(f"box bound {name} contains NaN")
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi in some coordinate")
    return ResolventOperator(lambda x, lam: np.clip(x, lo, hi))


def shifted_l1_resolvent(rho: float, beta: float) -> ResolventOperator:
    """Resolvent of the strongly monotone operator ``(scaled l1 subdifferential) + beta*I``.

    Solving ``x in y + lam*(rho*sgn(y) + beta*y)`` coordinatewise gives
    ``y = soft(x / (1 + lam*beta), lam*rho / (1 + lam*beta))``.
    """
    if not (rho >= 0 and beta > 0):
        raise ValueError(f"need rho >= 0 and beta > 0, got rho={rho!r} and beta={beta!r}")

    def apply(x, lam):
        c = 1.0 + lam * beta
        return soft_threshold(x / c, lam * rho / c)

    return ResolventOperator(apply)
