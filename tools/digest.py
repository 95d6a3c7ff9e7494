"""Bitwise digests of every perfbench panel cell, compared between two trees of this repository.

Usage::

    python tools/digest.py --base <ref> [--head <ref>] [--workload W] [--seeds 1,2] [--array-equal]
    python tools/digest.py --tree <dir> [--workload W] [--seeds 1,2] [--array-equal]

The trees are prepared as ``tools/ab.py`` prepares them: ``--base`` and
``--head`` are exported with ``git archive``, and without ``--head`` the
head side is a copy of the working tree, uncommitted changes included.
Each tree then runs in its own process (this script with ``--tree``, which
prints the tree's digests as one JSON line).  That process solves every
cell of the perfbench panel, for each workload (default: all) and seed,
through ``panel.setup`` and ``panel.solve_cell`` with invariant checks on,
and records per cell:

* ``status``, ``iterations``, ``forward_evals`` and ``resolvent_evals``;
* ``violations.<kind>``, one count per invariant check;
* ``final_iterate``, the sha1 of the final iterate's bytes;
* ``column.<name>``, the sha1 of each numeric trace column other than
  ``elapsed_ns`` (float64 bytes);
* ``raised``, the exception of a solve that raised, in place of the above.

With ``--array-equal`` the arrays are hashed after adding ``0.0``, which
turns ``-0.0`` into ``0.0``, so arrays equal under ``np.array_equal``
(NaN aside) hash alike.  The comparison prints one line per cell and field
that differ and exits 1 if any differ or a tree's process fails; otherwise
it exits 0.  It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import ROOT, copy_worktree, export, last_json

#: the trace column that is a wall time, not a result
TIMING_COLUMN = "elapsed_ns"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--base", help="git ref of the base tree")
    side.add_argument("--tree", type=Path, help="print the digests of the checkout at this directory")
    parser.add_argument("--head", help="git ref of the head tree (default: the working tree)")
    parser.add_argument("--workload", help="one perfbench workload (default: all)")
    parser.add_argument("--seeds", default="1,2", help="comma-separated seeds (default: 1,2)")
    parser.add_argument("--array-equal", action="store_true", help="hash arrays by value: -0.0 equals 0.0")
    args = parser.parse_args(argv)
    try:
        args.seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if any(s < 0 for s in args.seeds):
        parser.error("--seeds must be nonnegative")
    if args.tree is not None and args.head is not None:
        parser.error("--head compares trees; --tree digests one")
    return args


def sha1_of(array, array_equal: bool) -> str:
    """The sha1 of a float64 array's bytes; with ``array_equal``, of ``array + 0.0`` (no negative zeros)."""
    import numpy as np  # only in a tree's process, after digest_tree has fixed the BLAS threads

    x = np.ascontiguousarray(array, dtype=float)
    if array_equal:
        x = x + 0.0
    return hashlib.sha1(x.tobytes()).hexdigest()


def cell_digest(u, trace, columns, array_equal: bool) -> dict:
    """The recorded fields of one solved cell: ``u`` its final iterate, ``columns`` the trace columns to hash."""
    out = {
        "status": trace.status.value,
        "iterations": trace.iterations,
        "forward_evals": trace.total_forward_evals,
        "resolvent_evals": trace.total_resolvent_evals,
    }
    out.update({f"violations.{kind}": count for kind, count in trace.violations.items()})
    out["final_iterate"] = sha1_of(u, array_equal)
    out.update({f"column.{name}": sha1_of(trace.array(name), array_equal) for name in columns})
    return out


def digest_tree(tree: Path, workloads, seeds, array_equal: bool) -> dict:
    """Digests of every cell of ``workloads`` (names, or ``None`` for all) and ``seeds`` in the checkout ``tree``.

    Imports the tree's ``mvisolve`` and ``perfbench/panel.py``, so it must
    run in a process of its own, one per tree.
    """
    # BLAS threads are fixed as perfbench fixes them, before numpy is imported
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import dataclasses

    import mvisolve
    import panel
    from mvisolve.solver import IterationRecord

    if not Path(mvisolve.__file__).resolve().is_relative_to(tree):
        raise RuntimeError(f"imported {mvisolve.__file__}, not the mvisolve of {tree}")

    columns = [f.name for f in dataclasses.fields(IterationRecord) if f.name != TIMING_COLUMN]
    cells = {}
    for name in workloads or list(panel.WORKLOADS):
        wl = panel.WORKLOADS[name]
        for seed in seeds:
            problems, _, _ = panel.setup(wl, seed)
            for pid, problem in problems:
                for solver in wl.solvers:
                    key = f"{name}/seed{seed}/{pid}/{solver.label}"
                    try:
                        u, trace = panel.solve_cell(wl, solver, problem, True)
                    except Exception as exc:  # a raising solve is a recorded outcome
                        cells[key] = {"raised": repr(exc)}
                        continue
                    cells[key] = cell_digest(u, trace, columns, array_equal)
    return cells


def differences(base: dict, head: dict) -> list:
    """``(cell, field, base value, head value)`` for every field that differs.

    A field one side lacks reads ``None`` there; a cell one side lacks
    differs in the field ``cell``, whose values say which side has it.
    """
    out = []
    for cell in sorted(base.keys() | head.keys()):
        b, h = base.get(cell), head.get(cell)
        if b is None or h is None:
            out.append((cell, "cell", b is not None, h is not None))
            continue
        for field in sorted(b.keys() | h.keys()):
            if b.get(field) != h.get(field):
                out.append((cell, field, b.get(field), h.get(field)))
    return out


def run_tree(tree: Path, args) -> dict | None:
    command = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree)]
    command += ["--seeds", ",".join(map(str, args.seeds))]
    if args.workload:
        command += ["--workload", args.workload]
    if args.array_equal:
        command.append("--array-equal")
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    result = last_json(proc.stdout)
    if proc.returncode != 0 or result is None:
        print(f"no digests from {tree} (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.tree is not None:
        workloads = [args.workload] if args.workload else None
        print(json.dumps(digest_tree(args.tree.resolve(), workloads, args.seeds, args.array_equal), sort_keys=True))
        return 0
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        digests = {}
        for side, ref in (("base", args.base), ("head", args.head)):
            tree = Path(tmp) / side
            tree.mkdir()
            if ref is None:
                copy_worktree(ROOT, tree)
                print(f"{side}: copy of the working tree {ROOT}")
            else:
                print(f"{side}: {ref} = {export(ref, tree)}")
            digests[side] = run_tree(tree, args)
    if digests["base"] is None or digests["head"] is None:
        return 1
    found = differences(digests["base"], digests["head"])
    for cell, field, b, h in found:
        print(f"DIFFERS {cell} {field}: base {b} head {h}")
    print(f"{len(digests['base'])} cells, {len(found)} differing fields")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
