"""Paired A/B runs of the panel benchmark between two trees of this repository.

Usage::

    python tools/ab.py --base <ref> [--head <ref>] --workload W --pairs N --seconds S [--seed K]

Each ref is exported with ``git archive`` into a temporary directory (no
worktree is registered, so an interrupted run leaves nothing in ``.git``);
without ``--head`` the head side is a copy of the working tree, uncommitted
changes included, in a sibling directory, so that neither side runs from
the checkout.  Each pair runs ``perfbench/run.py --workload W --seed K
--seconds S`` once per side with this interpreter, one after the other,
base first in even pairs and head first in odd ones, and reads the last
JSON line each run prints.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the median of the per-pair ratios head/base and the
number of pairs the head wins (a strictly better value in the metric's
``better`` direction).  Its last line is the same result as one JSON
object: each side's ``ref``, ``sha`` and ``tree`` (a ``null`` ref is the
copy of the working tree, and its sha the commit checked out under it;
the tree is the git tree hash of the files the side ran, which names an
uncommitted copy too), the workload,
seed, seconds and pairs, per end-to-end metric both sides' quartiles, the
median ratio and the wins, and the problems below.  ``BENCH_<n>.json``
holds a list of these objects.  The exit code is 1 if any run reports
``correct: false`` or prints no result, or if the two sides'
``forward_evals`` or ``resolvent_evals`` differ, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: metrics the two sides must agree on exactly: work counters, not timings
COUNTERS = ("forward_evals", "resolvent_evals")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base tree")
    parser.add_argument("--head", help="git ref of the head tree (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be a positive integer")
    return args


def commit_of(ref: str) -> str:
    """The sha of the commit ``ref`` names."""
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def export(ref: str, dest: Path) -> str:
    """Extract the tree of ``ref`` into ``dest``; returns the commit it names."""
    sha = commit_of(ref)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def copy_worktree(root: Path, dest: Path) -> None:
    """Copy the working tree of the repository at ``root`` into ``dest``, without ``.git``.

    The files copied are the tracked ones as they are on disk, and the
    untracked ones that are not ignored (``git ls-files -co
    --exclude-standard``); a tracked file deleted on disk is left out.
    """
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z", "-co", "--exclude-standard"],
        capture_output=True, check=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        if not source.exists():
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def prepare_trees(tmp: Path, refs: dict, export_ref) -> dict:
    """Put each side's tree in ``tmp/<side>``, printing one line per side; returns ``{side: (tree, sha)}``.

    ``refs`` maps a side to its git ref, exported there by ``export_ref``,
    or to ``None`` for a copy of the working tree, whose sha is the commit
    checked out under it.  Callers pass their module's name for
    :func:`export`, so that a test can stand one in.
    """
    out = {}
    for side, ref in refs.items():
        tree = tmp / side
        tree.mkdir()
        if ref is None:
            copy_worktree(ROOT, tree)
            sha = commit_of("HEAD")
            print(f"{side}: copy of the working tree {ROOT}")
        else:
            sha = export_ref(ref, tree)
            print(f"{side}: {ref} = {sha}")
        out[side] = tree, sha
    return out


def tree_hash(tree: Path) -> str:
    """The git tree hash of the files under ``tree``, as ``git add -A`` would stage them.

    The index and objects go to a throwaway repository beside ``tree``, so
    neither ``tree`` nor this repository is touched.
    """
    git = ["git", f"--git-dir={tree}.git", f"--work-tree={tree}"]
    for command in (["init", "-q"], ["add", "-A"], ["write-tree"]):
        out = subprocess.run(git + command, capture_output=True, text=True, check=True).stdout
    return out.strip()


def last_json(stdout: str):
    """The last line of ``stdout`` that parses as a JSON object, or ``None``."""
    for line in reversed(stdout.splitlines()):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            return value
    return None


def run_once(tree: Path, args) -> dict | None:
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    result = last_json(proc.stdout)
    if result is None:
        print(f"no result from {tree} (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
    return result


def quantile(values, q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def summarize(base: list, head: list, better: dict) -> list:
    """One summary per metric of ``better`` (name -> "lower" or "higher") from paired results.

    ``base[i]`` and ``head[i]`` are the parsed results of pair ``i``.  Each
    summary holds both sides' quartiles ``(q1, median, q3)``, the median of
    the ratios head/base and the number of pairs the head wins.
    """
    out = []
    for name, direction in better.items():
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        sign = 1.0 if direction == "lower" else -1.0
        out.append(
            {
                "metric": name,
                "base": tuple(quantile(b, q) for q in (0.25, 0.5, 0.75)),
                "head": tuple(quantile(h, q) for q in (0.25, 0.5, 0.75)),
                "ratio": statistics.median(y / x if x else float("nan") for x, y in zip(b, h)),
                "wins": sum(sign * (y - x) < 0 for x, y in zip(b, h)),
                "pairs": len(b),
            }
        )
    return out


def problems(base: list, head: list) -> list:
    """Why the pairs do not make a valid comparison: failed runs and differing work counters."""
    out = []
    for side, results in (("base", base), ("head", head)):
        for i, r in enumerate(results):
            if r is None:
                out.append(f"{side} run {i} printed no result")
            elif not r.get("correct", False):
                out.append(f"{side} run {i} reports correct: false ({r.get('failed')} failed solves)")
    runs = [r for r in base + head if r is not None]
    for name in COUNTERS:
        values = sorted({r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})})
        if len(values) > 1:
            out.append(f"{name} differs between runs: {values}")
    return out


def report(summaries: list) -> None:
    print(f"{'metric':<16} {'base q1 / p50 / q3':<40} {'head q1 / p50 / q3':<40} {'ratio':>7} {'wins':>7}")
    for s in summaries:
        sides = ["{:.6g} / {:.6g} / {:.6g}".format(*s[k]) for k in ("base", "head")]
        print(f"{s['metric']:<16} {sides[0]:<40} {sides[1]:<40} {s['ratio']:>7.4f} {s['wins']:>3}/{s['pairs']:<3}")


def result_line(sides: dict, args, summaries: list, failures: list) -> str:
    """The run's result as one JSON object: ``sides`` maps base and head to their ``ref``, ``sha`` and ``tree``."""
    metrics = {
        s["metric"]: {"base": list(s["base"]), "head": list(s["head"]), "ratio": s["ratio"], "wins": s["wins"]}
        for s in summaries
    }
    return json.dumps(
        {
            **sides, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "metrics": metrics, "problems": failures,
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    refs = {"base": args.base, "head": args.head}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees, sides = {}, {}
        for side, (tree, sha) in prepare_trees(Path(tmp), refs, export).items():
            trees[side] = tree
            sides[side] = {"ref": refs[side], "sha": sha, "tree": tree_hash(tree)}
        results = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                results[side].append(run_once(trees[side], args))
            print(f"pair {i + 1}/{args.pairs} done ({' first, '.join(order)} second)", flush=True)
    failures = problems(results["base"], results["head"])
    summaries = []
    if not any(r is None for r in results["base"] + results["head"]):
        summaries = summarize(results["base"], results["head"], better)
        report(summaries)
    for line in failures:
        print("FAILED", line)
    print(result_line(sides, args, summaries, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
