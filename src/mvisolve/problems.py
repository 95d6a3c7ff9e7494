"""Benchmark problem families and constructed test problems.

Three experiment families, each assembled into a forward map, a resolvent
and an ambient space:

* sparse signal recovery ("cs"): quartic data fidelity ``||Cu - v||^4 / 4``
  plus an l1 penalty, Gaussian sensing matrix, spike signal, noise scaled
  to an exact target SNR;
* least squares with an l^alpha penalty ("lpa"): smooth but non-Lipschitz
  gradient near zero;
* a discretized integral space ("l2"): the componentwise map
  ``u*log(1+|u|)`` plus the subdifferential of the integral of ``|u|`` on a
  trapezoidal grid over [0, 1], where the zero function solves the
  inclusion exactly.

Reproducibility: every random component draws from its own child stream of
``numpy.random.SeedSequence(seed)``, spawned in a fixed order (0 matrix,
1 spike support and values, 2 noise) and fed to a PCG64 generator.  An
instance is what its generator returns for a family, dimensions and seed:
the same seed under the same numpy version rebuilds the same instance.  NumPy does not promise ``Generator`` streams across
its versions (NEP 19), so a frozen copy is ``np.savez`` of its fields.
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
    "CompressedSensingInstance",
    "LpaInstance",
    "L2Instance",
    "gen_cs",
    "gen_lpa",
    "gen_l2",
    "table_initials",
    "assemble",
    "GENERATORS",
    "cubic_problem",
    "strongly_monotone_problem",
]

_STREAMS = {"matrix": 0, "spikes": 1, "noise": 2}


def _rng(seed: int, component: str) -> np.random.Generator:
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return np.random.Generator(np.random.PCG64(children[_STREAMS[component]]))


@dataclass(frozen=True)
class Problem:
    """An inclusion ``0 in A(u) + B(u)`` ready for any solver in the package.

    ``forward`` is ``B`` and ``resolvent`` is ``(x, lam) -> (I + lam*A)^{-1}(x)``,
    as a :class:`ForwardOperator` and a :class:`ResolventOperator` or as
    plain callables, and ``space`` is the ambient space.  A hand-built
    problem needs only these three: the start pair ``u0``, ``u1`` and the
    ``family`` tag are what :func:`assemble` and the constructed problems
    add.

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
# sparse recovery


@dataclass(frozen=True)
class CompressedSensingInstance:
    """Underdetermined linear measurements of a spike signal.

    ``v_obs = C @ u_true + noise`` with ``C`` i.i.d. standard normal,
    ``u_true`` holding ``l`` spikes drawn uniformly from [-2, 2], and the
    noise rescaled so the achieved SNR matches ``snr_db`` exactly
    (``snr_db = inf`` gives noiseless data).
    """

    C: np.ndarray
    u_true: np.ndarray
    v_obs: np.ndarray
    rho: float
    seed: int
    snr_db: float

    @property
    def d(self) -> int:
        return self.C.shape[1]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def l(self) -> int:
        return int(np.count_nonzero(self.u_true))

    @property
    def achieved_snr_db(self) -> float:
        clean = self.C @ self.u_true
        noise = self.v_obs - clean
        p_noise = float(noise @ noise)
        if p_noise == 0.0:
            return float("inf")
        p_signal = float(clean @ clean)
        return 10.0 * np.log10(p_signal / p_noise)


def gen_cs(
    d: int,
    m: int,
    l: int = 10,
    snr_db: float = 40.0,
    rho: Optional[float] = None,
    seed: int = 0,
) -> CompressedSensingInstance:
    """Generate a sparse-recovery instance, deterministic in ``seed``.

    ``rho`` defaults to ``0.005 * ||C^T v_obs||_inf``, a standard
    regularization-path heuristic; pass ``rho = 0.0`` together with
    ``snr_db = inf`` for the noiseless diagnostic in which the true signal
    is an exact fixed point of the forward-backward map.
    """
    if not (l <= d and m <= d):
        raise ValueError("need l <= d and m <= d")
    C = _rng(seed, "matrix").standard_normal((m, d))

    rs = _rng(seed, "spikes")
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
        noise = _rng(seed, "noise").standard_normal(m)
        target = float(clean @ clean) / 10.0 ** (snr_db / 10.0)
        noise *= np.sqrt(target) / np.linalg.norm(noise)
    v_obs = clean + noise

    if rho is None:
        rho = 0.005 * float(np.max(np.abs(C.T @ v_obs)))
    return CompressedSensingInstance(C, u_true, v_obs, float(rho), seed, float(snr_db))


# ---------------------------------------------------------------------------
# least squares + l^alpha penalty


@dataclass(frozen=True)
class LpaInstance:
    """Least-squares data with an l^alpha penalty, alpha strictly in (1, 2)."""

    Q: np.ndarray
    q: np.ndarray
    mu: float
    alpha: float
    rho: float
    seed: int
    u_true: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie strictly inside (1, 2)")

    @property
    def d(self) -> int:
        return self.Q.shape[1]

    @property
    def m(self) -> int:
        return self.Q.shape[0]


def gen_lpa(
    d: int,
    m: int,
    l: int = 10,
    snr_db: float = 40.0,
    mu: float = 0.01,
    alpha: float = 1.5,
    rho: float = 0.01,
    seed: int = 0,
) -> LpaInstance:
    """Generate an instance with the same measurement recipe as ``gen_cs``.

    Defaults ``alpha = 1.5``, ``mu = 0.01``, ``rho = 0.01``.
    """
    cs = gen_cs(d, m, l, snr_db=snr_db, rho=1.0, seed=seed)
    return LpaInstance(
        Q=cs.C,
        q=cs.v_obs,
        mu=float(mu),
        alpha=float(alpha),
        rho=float(rho),
        seed=seed,
        u_true=cs.u_true,
    )


# ---------------------------------------------------------------------------
# discretized integral space


@dataclass(frozen=True)
class L2Instance:
    """Initial pair on a trapezoidal grid over [0, 1]; the zero function solves it."""

    n: int
    case_id: int
    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be at least 3")


def table_initials(case_id: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the four standard starting pairs on the uniform n-grid.

    case 1:  cos^2(2 pi t)/4           and  3 e^(-2t) cos(3t)/25
    case 2:  (e^(2t) + cos(4t))/10     and  cos^2(2 pi t)/4
    case 3:  (e^(2t) + cos(4t))/10     and  3 e^(-2t) cos(3t)/25
    case 4:  cos^2(2 pi t)/4           and  (e^(2t) + cos(4t))/10
    """
    t = np.linspace(0.0, 1.0, n)
    f_a = np.cos(2.0 * np.pi * t) ** 2 / 4.0
    f_b = 3.0 * np.exp(-2.0 * t) * np.cos(3.0 * t) / 25.0
    f_c = (np.exp(2.0 * t) + np.cos(4.0 * t)) / 10.0
    pairs = {1: (f_a, f_b), 2: (f_c, f_a), 3: (f_c, f_b), 4: (f_a, f_c)}
    if case_id not in pairs:
        raise ValueError(f"unknown case id {case_id}; expected 1..4")
    return pairs[case_id]


def gen_l2(case_id: int, n: int = 1001) -> L2Instance:
    u0, u1 = table_initials(case_id, n)
    return L2Instance(n=n, case_id=case_id, u0=u0, u1=u1)


# ---------------------------------------------------------------------------
# assembly


def assemble(instance) -> Problem:
    """Build the solver-facing problem for any generated instance.

    * sparse recovery: quartic fidelity gradient + soft threshold at
      ``lam * rho``, Euclidean space, reference = the true spike signal;
    * l^alpha penalty: its gradient + soft threshold at ``lam * rho``;
    * integral space: ``u*log(1+|u|)`` + pointwise soft threshold at
      ``lam`` under the trapezoidal inner product.  The quadrature weights
      cancel coordinatewise in that proximal map on a uniform grid, so the
      plain soft threshold is exact; the reference solution is zero.
    """
    if isinstance(instance, CompressedSensingInstance):
        d = instance.d
        # benchmark initialization: the zero vector, the usual sparse-recovery
        # starting point
        return Problem(
            forward=quartic_forward(instance.C, instance.v_obs),
            resolvent=l1_resolvent(instance.rho),
            space=euclidean(d),
            u0=np.zeros(d),
            u1=np.zeros(d),
            family="cs",
            metadata={
                "d": d,
                "m": instance.m,
                "l": instance.l,
                "rho": instance.rho,
                "seed": instance.seed,
                "snr_db": instance.snr_db,
                "achieved_snr_db": instance.achieved_snr_db,
            },
            reference=instance.u_true.copy(),
        )
    if isinstance(instance, LpaInstance):
        return Problem(
            forward=lpa_forward(instance.Q, instance.q, instance.mu, instance.alpha),
            resolvent=l1_resolvent(instance.rho),
            space=euclidean(instance.d),
            u0=np.zeros(instance.d),
            u1=np.zeros(instance.d),
            family="lpa",
            metadata={
                "d": instance.d,
                "m": instance.m,
                "mu": instance.mu,
                "alpha": instance.alpha,
                "rho": instance.rho,
                "seed": instance.seed,
            },
        )
    if isinstance(instance, L2Instance):
        return Problem(
            forward=log_forward(),
            resolvent=l1_resolvent(1.0),
            space=trapezoid_unit_interval(instance.n),
            u0=instance.u0.copy(),
            u1=instance.u1.copy(),
            family="l2",
            metadata={"n": instance.n, "case_id": instance.case_id},
            reference=np.zeros(instance.n),
            reference_is_solution=True,
        )
    raise TypeError(f"cannot assemble {type(instance).__name__}")


# ---------------------------------------------------------------------------
# constructed test problems with a known solution


def cubic_problem(u_start=(2.0, -2.0), rho: float = 1.0) -> Problem:
    """Componentwise cubic forward map plus an l1 resolvent; zero solves it.

    The cubic map is monotone and continuous but has no global Lipschitz
    constant, and ``0`` belongs to ``B(0) + rho*[-1, 1]^d``.
    """
    u = np.asarray(u_start, dtype=float)
    d = len(u)
    return Problem(
        forward=cubic_forward(),
        resolvent=l1_resolvent(rho),
        space=euclidean(d),
        u0=u.copy(),
        u1=u.copy(),
        family="cubic",
        metadata={"d": d, "rho": rho},
        reference=np.zeros(d),
        reference_is_solution=True,
    )


def strongly_monotone_problem(
    u_start, rho: float = 0.1, beta: float = 0.1
) -> Problem:
    """l1-plus-identity-shift resolvent with the log forward map; zero solves it.

    The set-valued part is ``beta``-strongly monotone, which upgrades the
    convergence of the contraction solver to a linear rate.
    """
    u = np.asarray(u_start, dtype=float)
    d = len(u)
    return Problem(
        forward=log_forward(),
        resolvent=shifted_l1_resolvent(rho, beta),
        space=euclidean(d),
        u0=u.copy(),
        u1=u.copy(),
        family="strong",
        metadata={"d": d, "rho": rho, "beta": beta},
        reference=np.zeros(d),
        reference_is_solution=True,
    )


# ---------------------------------------------------------------------------
# family table

# The instance families by name.  A run spec's problem keys are the
# generator's parameters.
GENERATORS = {"cs": gen_cs, "lpa": gen_lpa, "l2": gen_l2}
