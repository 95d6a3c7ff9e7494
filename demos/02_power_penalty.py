"""Least squares with an l^alpha penalty, alpha in (1, 2).

The penalty gradient mu*alpha*sgn(u)|u|^(alpha-1) has unbounded slope at
the origin, so no global Lipschitz constant exists and fixed-step methods
have nothing to hold on to.  The backtracking line search just keeps
shrinking the step until the local variation test passes.
"""

import numpy as np

from mvisolve import (
    SolverConfig,
    StoppingRule,
    gen_lpa,
    rate_estimate,
    solve,
)

prob = gen_lpa(d=512, m=256, l=10, seed=0)
meta = prob.metadata
print(f"instance: d={meta['d']}, m={meta['m']}, alpha={meta['alpha']}, mu={meta['mu']}, rho={meta['rho']}")

cfg = SolverConfig(
    stop=StoppingRule("successive_diff", 1e-9),
    max_iters=500,
    check_invariants=True,
)
u, tr = solve(prob, prob.u0, prob.u1, cfg)
print(f"status {tr.status.value}, {tr.iterations} iterations, "
      f"last successive diff {tr.final_err:.2e}, violations {tr.total_violations}")
print(f"accepted steps stayed in [{tr.min_lambda:.2e}, {max(r.lam for r in tr.records):.2e}]")
print(f"contraction scalars stayed in [{tr.delta_range[0]:.3f}, {tr.delta_range[1]:.3f}] "
      f"(theory: [{(1-0.9)/(1+0.9)**2:.4f}, {1/(1-0.9):.1f}])")
print(f"residual decay exponent over the run: {rate_estimate(tr):.2f}")

nnz = np.count_nonzero(np.abs(u) > 1e-6)
print(f"\nsolution keeps {nnz}/{meta['d']} coordinates above 1e-6;")
print("the sqrt-type cusp at zero makes the final digits wander, which is why")
print("the successive-difference tolerance (not a gradient norm) is the stop rule.")
