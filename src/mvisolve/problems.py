"""Benchmark problem families and constructed test problems.

Three experiment families, each generated as a :class:`Problem`: a forward
map, a resolvent, an ambient space, a start pair and metadata:

* sparse signal recovery ("cs"): quartic data fidelity ``||Cu - v||^4 / 4``
  plus an l1 penalty, Gaussian sensing matrix, spike signal, noise scaled
  to an exact target SNR;
* least squares with an l^alpha penalty ("lpa"): smooth but non-Lipschitz
  gradient near zero;
* a discretized integral space ("l2"): the componentwise map
  ``u*log(1+|u|)`` plus the subdifferential of the integral of ``|u|`` on a
  trapezoidal grid over [0, 1], where the zero function solves the
  inclusion exactly.

Reproducibility: the random components of a problem draw from the three
child streams of one ``numpy.random.SeedSequence(seed).spawn(3)``, in a
fixed order (0 matrix, 1 spike support and values, 2 noise), each fed to a
PCG64 generator.  A problem is what its generator returns for its
arguments: the same arguments under the same numpy version rebuild the
same problem.  NumPy does not promise ``Generator`` streams across its
versions (NEP 19), and the drawn matrix and data live inside the forward
map, not in fields that could be saved.  What shows that another numpy
left the benchmark problems alone is ``tools/digest.py``: it compares the
hashes of each perfbench panel problem's ``u0``, ``u1``, ``reference``
and ``forward(u1)`` between two trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .operators import (
    ForwardOperator,
    ResolventOperator,
    cubic_forward,
    l1_resolvent,
    log_forward,
    lpa_forward,
    quartic_forward,
    shifted_l1_resolvent,
)
from .spaces import InnerProductSpace, euclidean, trapezoid_unit_interval

__all__ = [
    "Problem",
    "gen_cs",
    "gen_lpa",
    "gen_l2",
    "table_initials",
    "assemble",
    "GENERATORS",
    "cubic_problem",
    "strongly_monotone_problem",
]


def _pcg64(child: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(child))


@dataclass(frozen=True)
class Problem:
    """An inclusion ``0 in A(u) + B(u)`` ready for any solver in the package.

    ``forward`` is ``B`` and ``resolvent`` is ``(x, lam) -> (I + lam*A)^{-1}(x)``,
    as a :class:`ForwardOperator` and a :class:`ResolventOperator` or as
    plain callables, and ``space`` is the ambient space.  A hand-built
    problem needs only these three: the start pair ``u0``, ``u1``, the
    ``family`` tag and the ``metadata`` (the generator's parameters and
    what it derived from them) are what the generators of
    :data:`GENERATORS` and the constructed problems add.

    ``reference`` is the comparison point for error metrics: the trace's
    squared-distance column, and a ``distance_to_reference`` stop that has
    no reference of its own.  ``reference_is_solution`` marks it as an
    exact solution of the inclusion, which gives every Armijo contraction
    method (``ifb``, ``zw[armijo]``, ``jx``) the per-iteration decrease
    check (true for the integral-space and
    constructed problems, false for sparse recovery, where the true signal
    differs from the regularized solution by the shrinkage bias).
    """

    forward: ForwardOperator
    resolvent: ResolventOperator
    space: InnerProductSpace
    u0: Optional[np.ndarray] = None
    u1: Optional[np.ndarray] = None
    family: str = "custom"
    metadata: dict = field(default_factory=dict)
    reference: Optional[np.ndarray] = None
    reference_is_solution: bool = False


# ---------------------------------------------------------------------------
# sparse recovery and the l^alpha penalty


def _spike_measurements(d: int, m: int, l: int, snr_db: float, seed: int):
    """The measurement recipe of ``gen_cs`` and ``gen_lpa``: ``(C, u_true, clean, v_obs)``.

    ``v_obs = clean + noise`` with ``clean = C @ u_true``, ``C`` i.i.d.
    standard normal, ``u_true`` holding ``l`` spikes drawn uniformly from
    [-2, 2], and the noise rescaled so the achieved SNR matches ``snr_db``
    exactly (``snr_db = inf`` gives noiseless data).
    """
    if not (l <= d and m <= d):
        raise ValueError("need l <= d and m <= d")
    # the documented child streams, spawned once: 0 matrix, 1 spikes, 2 noise
    matrix, spikes, noise_stream = np.random.SeedSequence(seed).spawn(3)
    C = _pcg64(matrix).standard_normal((m, d))

    rs = _pcg64(spikes)
    support = rs.choice(d, size=l, replace=False)
    values = rs.uniform(-2.0, 2.0, size=l)
    u_true = np.zeros(d)
    u_true[support] = values
    if np.count_nonzero(u_true) != l:  # uniform draw hit 0.0 exactly
        values[values == 0.0] = 1.0
        u_true[support] = values

    clean = C @ u_true
    if np.isinf(snr_db):
        noise = np.zeros(m)
    else:
        noise = _pcg64(noise_stream).standard_normal(m)
        target = float(clean @ clean) / 10.0 ** (snr_db / 10.0)
        noise *= np.sqrt(target) / np.linalg.norm(noise)
    return C, u_true, clean, clean + noise


def gen_cs(
    d: int,
    m: int,
    l: int = 10,
    snr_db: float = 40.0,
    rho: Optional[float] = None,
    seed: int = 0,
) -> Problem:
    """Generate a sparse-recovery problem, deterministic in ``seed``.

    Quartic fidelity gradient of the measurements ``v_obs = C @ u_true +
    noise`` plus a soft threshold at ``lam * rho``, in the Euclidean space,
    started at the zero vector (the usual sparse-recovery starting point),
    with the true spike signal as its reference.  ``rho`` defaults to
    ``0.005 * ||C^T v_obs||_inf``, a standard regularization-path heuristic;
    pass ``rho = 0.0`` together with ``snr_db = inf`` for the noiseless
    diagnostic in which the true signal is an exact fixed point of the
    forward-backward map.
    """
    C, u_true, clean, v_obs = _spike_measurements(d, m, l, snr_db, seed)
    if rho is None:
        rho = 0.005 * float(np.max(np.abs(C.T @ v_obs)))
    rho = float(rho)
    noise = v_obs - clean
    p_noise = float(noise @ noise)
    achieved_snr_db = float("inf")
    if p_noise != 0.0:
        achieved_snr_db = 10.0 * np.log10(float(clean @ clean) / p_noise)
    return Problem(
        forward=quartic_forward(C, v_obs),
        resolvent=l1_resolvent(rho),
        space=euclidean(d),
        u0=np.zeros(d),
        u1=np.zeros(d),
        family="cs",
        metadata={
            "d": d,
            "m": m,
            "l": l,
            "rho": rho,
            "seed": seed,
            "snr_db": float(snr_db),
            "achieved_snr_db": achieved_snr_db,
        },
        reference=u_true,
    )


def gen_lpa(
    d: int,
    m: int,
    l: int = 10,
    snr_db: float = 40.0,
    mu: float = 0.01,
    alpha: float = 1.5,
    rho: float = 0.01,
    seed: int = 0,
) -> Problem:
    """Generate a least-squares problem with an l^alpha penalty, alpha strictly in (1, 2).

    The data ``Q``, ``q`` are the matrix and measurements of ``gen_cs``'s
    recipe; the forward map is the gradient of the least squares plus
    ``mu`` times the l^alpha penalty, and the resolvent a soft threshold at
    ``lam * rho``, started at the zero vector.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie strictly inside (1, 2)")
    mu, alpha, rho = float(mu), float(alpha), float(rho)
    Q, _, _, q = _spike_measurements(d, m, l, snr_db, seed)
    return Problem(
        forward=lpa_forward(Q, q, mu, alpha),
        resolvent=l1_resolvent(rho),
        space=euclidean(d),
        u0=np.zeros(d),
        u1=np.zeros(d),
        family="lpa",
        metadata={
            "d": d,
            "m": m,
            "mu": mu,
            "alpha": alpha,
            "rho": rho,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# discretized integral space


def _f_a(t):
    return np.cos(2.0 * np.pi * t) ** 2 / 4.0


def _f_b(t):
    return 3.0 * np.exp(-2.0 * t) * np.cos(3.0 * t) / 25.0


def _f_c(t):
    return (np.exp(2.0 * t) + np.cos(4.0 * t)) / 10.0


_CASES = {1: (_f_a, _f_b), 2: (_f_c, _f_a), 3: (_f_c, _f_b), 4: (_f_a, _f_c)}


def table_initials(case_id: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the four standard starting pairs on the uniform n-grid.

    case 1:  cos^2(2 pi t)/4           and  3 e^(-2t) cos(3t)/25
    case 2:  (e^(2t) + cos(4t))/10     and  cos^2(2 pi t)/4
    case 3:  (e^(2t) + cos(4t))/10     and  3 e^(-2t) cos(3t)/25
    case 4:  cos^2(2 pi t)/4           and  (e^(2t) + cos(4t))/10

    Only the case's two functions are evaluated.
    """
    if case_id not in _CASES:
        raise ValueError(f"unknown case id {case_id}; expected 1..4")
    first, second = _CASES[case_id]
    t = np.linspace(0.0, 1.0, n)
    return first(t), second(t)


def gen_l2(case_id: int = 1, n: int = 1001) -> Problem:
    """The integral-space problem started at table case ``case_id`` on the uniform n-grid.

    ``u*log(1+|u|)`` plus a pointwise soft threshold at ``lam`` under the
    trapezoidal inner product.  The quadrature weights cancel
    coordinatewise in that proximal map on a uniform grid, so the plain
    soft threshold is exact; the zero function solves the inclusion.
    """
    u0, u1 = table_initials(case_id, n)
    return Problem(
        forward=log_forward(),
        resolvent=l1_resolvent(1.0),
        space=trapezoid_unit_interval(n),
        u0=u0,
        u1=u1,
        family="l2",
        metadata={"n": n, "case_id": case_id},
        reference=np.zeros(n),
        reference_is_solution=True,
    )


def assemble(problem) -> Problem:
    """Return ``problem``, which every generator already builds; raise ``TypeError`` on anything else.

    Kept for the two-step callers ``perfbench/panel.py`` still makes.
    """
    if not isinstance(problem, Problem):
        raise TypeError(f"cannot assemble {type(problem).__name__}")
    return problem


# ---------------------------------------------------------------------------
# constructed test problems with a known solution


def _zero_solved(u_start, forward, resolvent, family: str, **metadata) -> Problem:
    """A Euclidean problem started at ``u0 = u1 = u_start`` whose exact solution is zero."""
    u = np.asarray(u_start, dtype=float)
    d = len(u)
    return Problem(
        forward=forward,
        resolvent=resolvent,
        space=euclidean(d),
        u0=u.copy(),
        u1=u.copy(),
        family=family,
        metadata={"d": d, **metadata},
        reference=np.zeros(d),
        reference_is_solution=True,
    )


def cubic_problem(u_start=(2.0, -2.0), rho: float = 1.0) -> Problem:
    """Componentwise cubic forward map plus an l1 resolvent; zero solves it.

    The cubic map is monotone and continuous but has no global Lipschitz
    constant, and ``0`` belongs to ``B(0) + rho*[-1, 1]^d``.
    """
    return _zero_solved(u_start, cubic_forward(), l1_resolvent(rho), "cubic", rho=rho)


def strongly_monotone_problem(
    u_start, rho: float = 0.1, beta: float = 0.1
) -> Problem:
    """l1-plus-identity-shift resolvent with the log forward map; zero solves it.

    The set-valued part is ``beta``-strongly monotone, which upgrades the
    convergence of the contraction solver to a linear rate.
    """
    return _zero_solved(u_start, log_forward(), shifted_l1_resolvent(rho, beta), "strong", rho=rho, beta=beta)


# ---------------------------------------------------------------------------
# family table

# The instance families by name.  A run spec's problem keys are the
# generator's parameters.
GENERATORS = {"cs": gen_cs, "lpa": gen_lpa, "l2": gen_l2}
