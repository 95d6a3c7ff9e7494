"""Finite-dimensional real inner-product spaces.

All solver arithmetic (norms, inner products, stopping metrics) goes
through an :class:`InnerProductSpace` so that the same code runs on plain
``R^d`` and on quadrature discretizations of function spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math

import numpy as np

__all__ = ["InnerProductSpace", "euclidean", "trapezoid_unit_interval"]


@dataclass(frozen=True)
class InnerProductSpace:
    """Dense real vectors with the weighted inner product ``<u, v> = sum_i w_i u_i v_i``.

    Parameters
    ----------
    dimension : int
        Number of coordinates.
    weights : ndarray
        Strictly positive weights, one per coordinate, kept as a read-only
        copy.  All ones gives the Euclidean space; quadrature weights give a
        discretized function space whose norm approximates the integral norm.
    label : str
        Human-readable tag carried into traces and reports.
    """

    dimension: int
    weights: np.ndarray
    label: str = "euclidean"
    _plain: bool = field(init=False, repr=False, default=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        # a private read-only copy: _plain and the norm scale are cached from it
        w = _require_shape(np.array(self.weights, dtype=float), "weights", (self.dimension,))
        if not np.all(w > 0.0):
            raise ValueError("all quadrature weights must be strictly positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_plain", bool(np.all(w == 1.0)))

    @functools.cached_property
    def _norm_scale(self) -> float:
        """``2*w_max**0.5``, or ``inf`` for weights outside ``[2**-256, 2**256]``.

        Times the root of a computed sum of squares ``np.vdot(x, x)``, an
        upper bound on the computed ``norm(x)`` while the result is at most
        ``2**512``; the range keeps the weight products of that proof from
        underflowing (see ``solver._direction``), and ``inf`` turns the bound
        off.  Computed on first use, once per space.
        """
        lo, hi = float(self.weights.min()), float(self.weights.max())
        if not (2.0**-256 <= lo and hi <= 2.0**256):
            return math.inf
        return 2.0 * math.sqrt(hi)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        # ndarray.dot runs the same ddot as ``@`` with a cheaper dispatch
        if self._plain:
            return float(u.dot(v))
        return float((self.weights * u).dot(v))

    # norm2 and norm repeat inner's expression rather than call it: one
    # frame less on the three or four norms of every iteration
    def norm2(self, u: np.ndarray) -> float:
        """Squared norm ``<u, u>``."""
        if self._plain:
            return float(u.dot(u))
        return float((self.weights * u).dot(u))

    def norm(self, u: np.ndarray) -> float:
        if self._plain:
            return math.sqrt(u.dot(u))
        return math.sqrt((self.weights * u).dot(u))

    def check_member(self, u: np.ndarray, what: str = "vector") -> np.ndarray:
        """Validate shape and finiteness; returns the array as float64."""
        return _require_finite(u, what, (self.dimension,), ValueError, "contains non-finite entries")


class NonFiniteIterate(FloatingPointError):
    """An operator evaluation produced NaN or infinity."""


def _require_finite(
    x, what: str, shape: tuple, error: type = NonFiniteIterate, message: str = "is non-finite"
) -> np.ndarray:
    """``x`` as a float64 array of ``shape``, proved finite by one BLAS pass, else ``error(f"{what} {message}")``.

    The finiteness primitive of the package, in one frame: the line search
    checks every operator value with it, ``check_member`` its inputs, and
    ``solver._guard_iterate`` makes the same pass with its own bound.  The
    pass is ``np.vdot(x, x)``, not ``ndarray.dot``: on overflow it returns
    ``inf`` without a ``RuntimeWarning``.  Rounding a sum of non-negative
    terms never falls below its largest term, so a finite sum proves every
    entry finite and a small sum bounds every ``|x_i|``.  The converse
    fails (``1e200`` is finite, its square is not), so only a sum that
    overflows runs the exact test.  A wrong shape raises a ``ValueError``
    naming both shapes.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{what} has shape {x.shape}, expected {shape}")
    if math.isfinite(np.vdot(x, x)) or np.isfinite(x).all():
        return x
    raise error(f"{what} {message}")


def _rounding_gamma(k: int) -> float:
    """``gamma_k = k*u / (1 - k*u)`` with ``u = 2**-53`` (Higham, *Accuracy and Stability*, 3.1).

    The relative error bound of a ``k``-term float64 inner product, in any
    summation order and with or without fused multiply-adds, when nothing
    underflows.
    """
    ku = k * 2.0**-53
    return ku / (1.0 - ku)


def _require_shape(x, what: str, shape: tuple) -> np.ndarray:
    """``x`` as a float64 array of ``shape``, for values that may be non-finite (see :func:`_require_finite`)."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{what} has shape {x.shape}, expected {shape}")
    return x


def euclidean(dimension: int) -> InnerProductSpace:
    """Plain ``R^d`` with unit weights."""
    return InnerProductSpace(dimension, np.ones(dimension), label="euclidean")


def trapezoid_unit_interval(n: int) -> InnerProductSpace:
    """Uniform n-point grid on [0, 1] with trapezoidal quadrature weights.

    The weights are ``h * [1/2, 1, ..., 1, 1/2]`` with ``h = 1/(n-1)`` and
    sum to one, so the induced norm is a second-order accurate
    approximation of the integral L2 norm on [0, 1].
    """
    if n < 3:
        raise ValueError("need at least 3 grid nodes")
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return InnerProductSpace(n, w, label=f"trapezoid[0,1]/{n}")
