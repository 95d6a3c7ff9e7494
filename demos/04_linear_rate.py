"""Linear convergence under strong monotonicity of the set-valued part.

Shifting the l1 subdifferential by beta*I makes it beta-strongly monotone;
its resolvent stays closed form (a scaled shrinkage).  The contraction
solver's error then decays geometrically, and the tail fits c*theta^k with
an R^2 indistinguishable from 1.
"""

import numpy as np

from mvisolve import (
    SolverConfig,
    StoppingRule,
    analysis_constants,
    solve,
    strongly_monotone_problem,
)

rho, beta = 0.1, 0.1
prob = strongly_monotone_problem(np.array([1.0, -0.7, 0.4, 2.0]), rho=rho, beta=beta)
cfg = SolverConfig(
    stop=StoppingRule("distance_to_reference", 1e-22),  # to the problem's solution, zero
    max_iters=2000,
    check_invariants=True,
)
u, tr = solve(prob, prob.u0, prob.u1, cfg)
dist = np.sqrt(tr.array("dist2_ref"))
print(f"reached distance {dist[-1]:.1e} to the solution in {tr.iterations} iterations, "
      f"violations {tr.total_violations}")

# fit the last 30 errors before crossing 1e-10
idx = int(np.nonzero(dist <= 1e-10)[0][0])
ks = np.arange(idx - 30, idx)
coeffs = np.polyfit(ks, np.log(dist[idx - 30 : idx]), 1)
pred = np.polyval(coeffs, ks)
resid = np.log(dist[idx - 30 : idx]) - pred
r2 = 1 - float(resid @ resid) / float(np.sum((np.log(dist[idx - 30 : idx]) - np.log(dist[idx - 30 : idx]).mean()) ** 2))
print(f"tail fit: theta = {np.exp(coeffs[0]):.4f}, R^2 = {r2:.6f}")

consts = analysis_constants(cfg.gamma, cfg.linesearch.sigma, lam_min=tr.min_lambda, beta=beta)
print("\nderived constants at this run's smallest accepted step:")
for k in ("alpha", "zeta", "margin", "inertia_cap", "tau", "inertia_cap_strong"):
    print(f"  {k:18s} = {consts[k]:.6g}")
print("\nThe observed theta tracks |1 - gamma| once the shrinkage pins the")
print("iterate's neighborhood to the exact solution at zero, while tau bounds")
print("the guaranteed per-step contraction from the strong monotonicity.")
