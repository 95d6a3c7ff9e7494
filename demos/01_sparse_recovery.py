"""Sparse signal recovery with a quartic data-fidelity term.

Recovers a spike train from underdetermined Gaussian measurements by
solving  min 0.25*||Cu - v||^4 + rho*||u||_1  as a monotone inclusion.
The quartic term's gradient has no global Lipschitz constant, which is
exactly what the Armijo-backtracked contraction solver is for; the same
instance is also handed to the projection-contraction and viscosity
baselines to show how they fare without a usable step-size rule.
"""

import numpy as np

from mvisolve import (
    BaselineConfig,
    SolverConfig,
    StoppingRule,
    gen_cs,
    run_baseline,
    solve,
)

d, m, spikes, seed = 512, 256, 10, 1
prob = gen_cs(d, m, spikes, snr_db=40.0, seed=seed)
print(f"instance: d={d}, m={m}, {spikes} spikes, SNR {prob.metadata['achieved_snr_db']:.1f} dB, "
      f"rho={prob.metadata['rho']:.3f}")

stop = StoppingRule("distance_to_reference", 1e-2)  # to the problem's reference, the true signal

# inertial contraction solver at the benchmark settings
cfg = SolverConfig(stop=stop, max_iters=300, check_invariants=True)
u_ifb, tr = solve(prob, prob.u0, prob.u1, cfg)
print(f"\nifb : {tr.status.value:12s} {tr.iterations:4d} iterations, "
      f"squared error {tr.final_dist2:.3e}, "
      f"min step {tr.min_lambda:.2e}, violations {tr.total_violations}")

# baselines on the identical instance
for cfg_b in (BaselineConfig("zw"), BaselineConfig("tc"),
              BaselineConfig("zw", lambda_mode="armijo", gamma=1.0, label="zw-armijo")):
    u_b, tr_b = run_baseline(cfg_b, prob, prob.u0, prob.u1, stop, max_iters=300)
    print(f"{tr_b.method:10s}: {tr_b.status.value:12s} {tr_b.iterations:4d} iterations, "
          f"squared error {tr_b.final_dist2:.3e}")

print("\nThe fixed step schedule of zw blows up on the quartic term, and the")
print("viscosity method crawls; the Armijo-mode variants stay stable because")
print("the backtracking inequality never lets the forward map outrun the step.")

support_hit = np.count_nonzero(np.abs(u_ifb[prob.reference != 0]) > 1e-3)
print(f"\nrecovered {support_hit}/{spikes} spike positions with the contraction solver")
