"""Programmatic benchmark grid, equivalent to `mvibench run spec.json`.

Builds a small solver-by-problem grid, executes it with per-iteration
trace files and invariant counting, and prints the aggregated table.  The
same dictionary serialized to JSON drives the command-line entry point.
"""

import json
import tempfile
from pathlib import Path

from mvisolve.bench import RunSpec, read_trace_csv, run
from mvisolve.solver import slope_of_min_residuals

outdir = Path(tempfile.mkdtemp(prefix="mvibench_demo_"))
spec_dict = {
    "output_dir": str(outdir),
    "repetitions": 3,
    "max_iters": 250,
    "check_invariants": True,
    "stop": {"kind": "distance_to_reference", "tol": 1e-2},
    "problems": [{"family": "cs", "d": 128, "m": 64, "l": 5, "seeds": [1, 2]}],
    "solvers": [
        {"method": "ifb"},
        {"method": "tseng"},
        {"method": "zw", "lambda_mode": "armijo", "gamma": 1.0, "label": "zw-armijo"},
        {"method": "tc"},
    ],
}

report = run(RunSpec.from_dict(spec_dict))
print(f"grid: {len(report.cells)} cells -> {outdir}")
print(f"{'problem':<22} {'solver':<11} {'iters':>6} {'med s':>9} {'sq err':>10} {'status':>10}")
for row in report.aggregated():
    print(f"{row['problem']:<22} {row['solver']:<11} {row['iterations']:>6} "
          f"{row['median_seconds']:>9.4f} {row['final_dist2']:>10.2e} {row['status']:>10}")
print("report is", "VALID" if report.valid else "INVALID")

# trace files round-trip losslessly and feed the rate estimator
trace_file = sorted((outdir / "traces").glob("*ifb*rep0*"))[0]
cols = read_trace_csv(trace_file)
print(f"\n{trace_file.name}: {len(cols['k'])} rows, "
      f"decay slope {slope_of_min_residuals(cols['res_wv'], min_iterations=20):.2f}")

print("\nequivalent CLI usage:")
print("  mvibench run spec.json")
print(f"  mvibench rate {trace_file}")
(Path(outdir) / "spec_used.json").write_text(json.dumps(spec_dict, indent=2))
