"""Time ``mvibench run`` end to end on each benchmark grid spec.

Usage::

    python tools/time_grids.py [spec.json ...]    # default: demos/specs/*.json

Each spec runs in a fresh interpreter (``python -m mvisolve.bench run``,
the console script's entry point, with this checkout's ``src`` first on
``PYTHONPATH``), from the repository root, so its ``output_dir`` is written
there as ``mvibench run`` writes it.  A grid's time is the wall time of
that process, interpreter start and imports included.  The script prints
one line per grid, then one JSON line mapping each grid's name to its wall
seconds.  A grid's output is printed only if it fails.  The exit code is 0
if every grid is VALID (``mvibench run`` exits 0) and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def time_grid(spec: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds of one ``mvibench run`` of ``spec`` in a new process, and the process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "mvisolve.bench", "run", str(spec)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, proc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    specs = [Path(a).resolve() for a in argv] or sorted((ROOT / "demos" / "specs").glob("*.json"))
    seconds = {}
    failed = 0
    for spec in specs:
        wall, proc = time_grid(spec)
        seconds[spec.stem] = round(wall, 3)
        verdict = "VALID" if proc.returncode == 0 else f"FAILED (exit {proc.returncode})"
        print(f"{spec.stem}: {wall:.2f} s, {verdict}", flush=True)
        if proc.returncode != 0:
            failed += 1
            print(proc.stdout + proc.stderr, file=sys.stderr)
    print(json.dumps(seconds))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
