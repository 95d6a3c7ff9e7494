"""Compare two benchmark run directories column by column, ignoring wall time.

Usage::

    python tools/compare_runs.py <dir_a> <dir_b>

Each directory is the output of ``mvibench run``.  The script compares
``report.csv`` and every ``traces/*.csv`` file, skipping the wall-time
columns (``seconds`` in the report, ``elapsed_ns`` in the traces), the only
ones a run does not reproduce.  It prints each report cell that differs,
each trace column that differs (with its first differing row and the
number of differing rows) and each trace file that only one run holds.
Values are compared as written, so equal means bitwise equal.  The exit
code is 0 only if both runs match and hold the same trace files, and 1
otherwise.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

IGNORED = ("seconds", "elapsed_ns")


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV file; the JSON strings of ``report.csv`` escape with a backslash."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh, escapechar="\\"))
    return header, rows


def compare_report(a: Path, b: Path) -> list[str]:
    """One line per differing cell of two ``report.csv`` files, rows in order."""
    (head_a, rows_a), (head_b, rows_b) = read_table(a), read_table(b)
    if head_a != head_b:
        return [f"report.csv: header {head_a} != {head_b}"]
    out = []
    if len(rows_a) != len(rows_b):
        out.append(f"report.csv: {len(rows_a)} rows != {len(rows_b)} rows")
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        cell = "/".join(ra[:3])  # solver, problem and repetition name the cell
        for name, x, y in zip(head_a, ra, rb):
            if name not in IGNORED and x != y:
                out.append(f"report.csv row {i} ({cell}) column {name}: {x} != {y}")
    return out


def compare_trace(name: str, a: Path, b: Path) -> list[str]:
    """One line per differing column of two trace files."""
    (head_a, rows_a), (head_b, rows_b) = read_table(a), read_table(b)
    if head_a != head_b:
        return [f"{name}: header {head_a} != {head_b}"]
    out = []
    if len(rows_a) != len(rows_b):
        out.append(f"{name}: {len(rows_a)} rows != {len(rows_b)} rows")
    for j, column in enumerate(head_a):
        if column in IGNORED:
            continue
        diffs = [i for i, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1) if ra[j] != rb[j]]
        if diffs:
            i = diffs[0]
            out.append(
                f"{name} column {column}: {len(diffs)} rows differ, first row {i}: "
                f"{rows_a[i - 1][j]} != {rows_b[i - 1][j]}"
            )
    return out


def compare_runs(dir_a: Path, dir_b: Path) -> list[str]:
    """Every difference between two run directories, as printable lines."""
    out = compare_report(dir_a / "report.csv", dir_b / "report.csv")
    traces_a = {p.name for p in (dir_a / "traces").glob("*.csv")}
    traces_b = {p.name for p in (dir_b / "traces").glob("*.csv")}
    for name in sorted(traces_a - traces_b):
        out.append(f"traces/{name}: only in {dir_a}")
    for name in sorted(traces_b - traces_a):
        out.append(f"traces/{name}: only in {dir_b}")
    for name in sorted(traces_a & traces_b):
        out.extend(compare_trace(f"traces/{name}", dir_a / "traces" / name, dir_b / "traces" / name))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/compare_runs.py <dir_a> <dir_b>", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, args)
    diffs = compare_runs(dir_a, dir_b)
    for line in diffs:
        print(line)
    n_traces = len(list((dir_a / "traces").glob("*.csv")))
    print(f"{'differ' if diffs else 'match'}: report.csv and {n_traces} trace files, {' and '.join(IGNORED)} ignored")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
