"""Panel benchmark for mvisolve: time per pass, operator evaluations, per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 30 --trace 0

One run sets the workload up ``SETUP_REPS`` times (generation plus
``assemble``), then solves every cell of the panel in repeated passes for
about ``--seconds`` seconds, in one process.  Every cell is checked
(``panel.gate``) and every pass must reproduce the first pass's status,
iteration and evaluation counts and final iterate bit for bit; any failure
or mismatch makes ``correct`` false and the exit code 1.

``--trace 0`` reports the end-to-end metrics from untraced passes, with
every timing taken to reference host speed by the yardstick read before
each cell (see ``yardstick``).  ``--trace 1`` repeats cycles of an
untraced pass, a traced pass (timed wrappers around each problem's forward
map, resolvent and space, see ``layers``) and a pass with invariant checks
off, then runs the microbenchmarks in ``micro``, and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``; which
end-to-end metric each per-layer metric should move is in
``perfbench/interactions.json``.

The last line of standard output is the JSON result; the lines before it
are the same numbers for people, plus the environment manifest.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# panel, layers, micro and yardstick import numpy, so functions import them
# only after main() has fixed the BLAS thread count
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 25
STATUSES = ("converged", "phi_zero", "iter_cap", "diverged", "backtrack_exhausted", "error")
ROADMAP_FORWARD_SHARE_CLAIM = 0.90  # "the forward map is about 90% of wall time"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unavailable (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unavailable"


def manifest(args, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as exc:  # the config layout is not a stable numpy API
        blas = {"name": "unknown", "version": f"unknown ({exc!r})"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(samples):
    """Highest percentile with at least ten samples beyond it, never below the median.

    Below 20 samples no percentile above the median has ten beyond it, so
    the median is all the tail the run can support.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), f"p50 of {n} passes (below 20, no percentile above p50 has 10 beyond)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} passes, 10 beyond"


def fill(seconds: float, do_pass, min_passes: int = 2) -> list:
    """Repeat ``do_pass`` (at least ``min_passes`` times) for about ``seconds``.

    It stops once another pass would likely end more than half a pass late.
    """
    done, durations = [], []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        done.append(do_pass())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if len(done) >= min_passes and elapsed + 0.5 * statistics.median(durations) >= seconds:
            return done


class Tally:
    """Attempts, failures and the determinism check across every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict = {}

    def add(self, runs, kind: str):
        for r in runs:
            self.attempted += 1
            expected = self.reference.setdefault(r.key, r.outcome)
            if r.failure:
                self.failures.append(f"{kind} {r.key}: {r.failure}")
            elif r.outcome != expected:
                self.failures.append(f"{kind} {r.key}: {r.outcome} differs from {expected}")


def pass_seconds(runs) -> float:
    return sum(r.seconds for r in runs)


def total(runs, field: str) -> int:
    return sum(getattr(r.outcome, field) for r in runs)


@dataclass
class Pass:
    """One pass over every cell, with the yardstick scale in force for each run."""

    runs: list
    scales: list

    def at_reference(self, label=None) -> float:
        """Seconds at reference host speed, of the whole pass or of one solver's cells."""
        return sum(s * r.seconds for r, s in zip(self.runs, self.scales) if label in (None, r.label))


def measured_pass(wl, blocks, tally, kind, meters=None, check_invariants=True) -> Pass:
    """Solve every cell once, reading its problem's yardstick just before it.

    With ``meters``, each problem's injected objects are timed and the
    traces are kept; untraced passes drop them so memory stays flat.
    """
    import panel

    runs, scales = [], []
    for pid, problem, stick in blocks:
        injected = problem if meters is None else meters.instrument(problem)
        for solver in wl.solvers:
            scales.append(stick.scale())
            runs.append(
                panel.run_cell(wl, solver, pid, problem, injected, check_invariants, keep_trace=meters is not None)
            )
    tally.add(runs, kind)
    return Pass(runs, scales)


def end_to_end(passes, setup_s) -> dict:
    seconds = [p.at_reference() for p in passes]
    value, label = tail(seconds)
    print(f"panel_s.tail is the {label}")
    wall = statistics.median(pass_seconds(p.runs) for p in passes)
    scale = statistics.median(s for p in passes for s in p.scales)
    print(f"uncorrected wall seconds per pass: median {wall!r}; median yardstick scale {scale!r}")
    return {
        "panel_s.p50": statistics.median(seconds),
        "panel_s.tail": value,
        "iters_per_s": sum(total(p.runs, "iterations") for p in passes) / sum(seconds),
        "setup_s": setup_s,
        "forward_evals": total(passes[0].runs, "forward_evals"),
        "resolvent_evals": total(passes[0].runs, "resolvent_evals"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_values(runs, meters) -> dict:
    """The per-layer split of one traced pass."""
    solve = pass_seconds(runs)
    fwd, res = meters.forward, meters.resolvent
    iterations = total(runs, "iterations")
    spaces_s = meters.plain.seconds + meters.weighted.seconds
    self_s = solve - fwd.seconds - res.seconds - spaces_s
    out = {
        "operators.forward_s": fwd.seconds,
        "operators.forward_us_per_call": fwd.ns / 1e3 / fwd.calls,
        "operators.forward_share": fwd.seconds / solve,
        "operators.resolvent_s": res.seconds,
        "operators.resolvent_us_per_call": res.ns / 1e3 / res.calls,
        "operators.resolvent_share": res.seconds / solve,
        "operators.forward_flops": meters.forward_flops,
        "operators.forward_bytes": meters.forward_bytes,
        "operators.forward_gflops": meters.forward_flops / fwd.seconds / 1e9,
        "solver.solve_s": solve,
        "solver.self_s": self_s,
        "solver.self_us_per_iter": self_s / iterations * 1e6,
        "solver.iterations": iterations,
        "solver.violations": sum(r.trace.total_violations for r in runs if r.trace is not None),
    }
    for kind in ("plain", "weighted"):
        m = getattr(meters, kind)
        out[f"spaces.{kind}.inner_calls"] = m.calls
        out[f"spaces.{kind}.inner_s"] = m.seconds
        out[f"spaces.{kind}.inner_us_per_call"] = m.ns / 1e3 / m.calls if m.calls else 0.0
    for status in STATUSES:
        out[f"solver.status.{status}"] = sum(r.outcome.status == status for r in runs)
    return out


def linesearch_values(traces) -> dict:
    """Trials per iteration over every line-search step (``j >= 0``) of one pass."""
    trials = [rec.resolvent_evals for t in traces for rec in t.records if rec.j >= 0]
    lams = [rec.lam for t in traces for rec in t.records if rec.j >= 0]
    return {
        "linesearch.trials_per_iter": sum(trials) / len(trials),
        "linesearch.trials_per_iter_max": max(trials),
        "linesearch.accept_ratio": len(trials) / sum(trials),
        "linesearch.lam_min": min(lams),
    }


def per_layer(wl, blocks, tally, args, gen_s, asm_s) -> dict:
    import layers
    import micro
    import panel

    untraced, traced_s, unchecked, splits, last = [], [], [], [], {}

    def cycle():
        untraced.append(measured_pass(wl, blocks, tally, "untraced"))
        gc.collect()
        meters = layers.LayerMeters()
        traced = measured_pass(wl, blocks, tally, "traced", meters)
        traced_s.append(traced.at_reference())
        splits.append(layer_values(traced.runs, meters))
        last["traces"] = [r.trace for r in traced.runs if r.trace is not None]  # only the latest pass's
        gc.collect()
        unchecked.append(measured_pass(wl, blocks, tally, "checks-off", check_invariants=False))

    fill(0.85 * args.seconds, cycle, min_passes=1)

    # counts repeat exactly across passes; only the timings need a median
    out = {}
    for name in splits[0]:
        values = [s[name] for s in splits]
        out[name] = statistics.median(values) if isinstance(values[0], float) else values[-1]
    last_traces = last["traces"]
    out.update(linesearch_values(last_traces))
    # these compare passes made at different moments, so they use reference-speed seconds
    untraced_p50 = statistics.median(p.at_reference() for p in untraced)
    out["solver.invariant_s"] = untraced_p50 - statistics.median(p.at_reference() for p in unchecked)
    out["trace.overhead"] = statistics.median(traced_s) / untraced_p50
    for label in panel.LABELS:
        out[f"method.{label}.s"] = statistics.median(p.at_reference(label) for p in untraced)
        out[f"method.{label}.forward_evals"] = total([r for r in untraced[0].runs if r.label == label], "forward_evals")
    out["host.panel_wall_s"] = statistics.median(pass_seconds(p.runs) for p in untraced)
    out["host.yardstick_scale"] = statistics.median(s for p in untraced for s in p.scales)
    out["problems.gen_s"] = statistics.median(gen_s)
    out["problems.assemble_s"] = statistics.median(asm_s)
    out["bench.trace_rows"] = sum(t.iterations for t in last_traces)
    first_pid, first_problem, _ = blocks[0]
    out.update(micro.run_all(wl, first_problem, last_traces[0].iterations, last_traces, ROOT))
    print(
        f"forward share of traced solve time: {out['operators.forward_share']:.3f} "
        f"(ROADMAP claims ~{ROADMAP_FORWARD_SHARE_CLAIM:.2f}); split: forward "
        f"{out['operators.forward_s']:.4g} s + resolvent {out['operators.resolvent_s']:.4g} s + spaces "
        f"{out['spaces.plain.inner_s'] + out['spaces.weighted.inner_s']:.4g} s + solver self "
        f"{out['solver.self_s']:.4g} s = traced solve {out['solver.solve_s']:.4g} s"
    )
    print(f"{len(untraced)} cycles of untraced, traced and checks-off passes; microbenchmarks at {first_pid}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mvisolve" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a checkout with src/mvisolve and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        table = json.loads((Path(__file__).parent / "interactions.json").read_text(encoding="utf-8"))
        covered = [name for layer in table["layers"].values() for name in layer["metrics"]]
        if sorted(covered) != sorted(units):
            raise RuntimeError("interactions.json must list every per-layer metric exactly once")

    # BLAS threads must be fixed before numpy is first imported
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import panel
    import yardstick

    if args.workload not in panel.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(panel.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = panel.WORKLOADS[args.workload]
    print("manifest", json.dumps(manifest(args, nproc), sort_keys=True))

    gen_s, asm_s = [], []
    for _ in range(SETUP_REPS):
        problems, g, a = panel.setup(wl, args.seed)
        gen_s.append(g)
        asm_s.append(a)
    sticks = [yardstick.Yardstick(problem) for _, problem in problems]
    blocks = [(pid, problem, stick) for (pid, problem), stick in zip(problems, sticks)]

    tally = Tally()
    if args.trace:
        values = per_layer(wl, blocks, tally, args, gen_s, asm_s)
    else:
        setup_s = yardstick.joint_scale(sticks) * statistics.median(g + a for g, a in zip(gen_s, asm_s))
        passes = fill(args.seconds, lambda: measured_pass(wl, blocks, tally, "untraced"))
        values = end_to_end(passes, setup_s)
        print(f"{len(passes)} untraced passes of {len(passes[0].runs)} cells")

    if set(values) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for failure in tally.failures:
        print("FAILED", failure)
    print(f"failed_frac {len(tally.failures) / tally.attempted} ({len(tally.failures)} of {tally.attempted} solves)")
    for name in sorted(values):
        print(f"{name} {values[name]!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
            }
        )
    )
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
