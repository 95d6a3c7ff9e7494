"""Benchmark harness: solver x problem grids, trace files, tables and a CLI.

A run is described by a JSON spec (see :class:`RunSpec`); each
(solver, problem, repetition) cell is executed independently, its full
per-iteration trace written to CSV, and the grid summarized in a report
that is VALID only if no cell recorded an invariant violation or error.
Repetitions re-run the identical cell to stabilize timing; the
human-readable table reports the median time.

CLI subcommands::

    mvibench run <specfile>                 execute a grid, exit 0 iff VALID
    mvibench rate <trace.csv>               decay slope of a trace file

Trace CSV layout: one column per field of
:class:`~mvisolve.solver.IterationRecord`, in declaration order, so the
header is ``k,theta,lam,j,...,speculative``.  Every value is written with 17
significant digits, which prints the integer fields exactly and
round-trips every float, so :func:`read_trace_csv` gives back
``trace.array(name)`` bit for bit.  ``elapsed_ns`` is the iteration's wall
time in nanoseconds (its running sum is the cumulative time) and the only
column a rerun does not reproduce.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import operator
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .baselines import SETTINGS, BaselineConfig, _entry, run_baseline
from .linesearch import LineSearchParams
from .problems import GENERATORS, Problem
from .solver import (
    InertiaSchedule,
    InsufficientTrace,
    IterationRecord,
    IterationTrace,
    SolverConfig,
    StoppingRule,
    slope_of_min_residuals,
    solve,
)

__all__ = [
    "RunSpec",
    "CellResult",
    "RunReport",
    "run",
    "emit_convergence_csv",
    "read_trace_csv",
    "main",
]

_FMT = "{:.17g}"
#: the header of a trace file: the step record's fields, in declaration order
_TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(IterationRecord))
#: a trace row is one format call on the record's fields
_TRACE_ROW = ",".join([_FMT] * len(_TRACE_COLUMNS))
_trace_values = operator.attrgetter(*_TRACE_COLUMNS)


# ---------------------------------------------------------------------------
# trace files


def emit_convergence_csv(trace: IterationTrace, path) -> Path:
    """Write one row per iteration, one column per :class:`IterationRecord` field, in field order."""
    if trace.iterations == 0:
        raise ValueError("refusing to write an empty trace")
    path = Path(path)
    lines = [",".join(_TRACE_COLUMNS)]
    lines += [_TRACE_ROW.format(*_trace_values(rec)) for rec in trace.records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Every column of a trace CSV, as float arrays equal to ``trace.array(name)``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header, *rows = [line.split(",") for line in lines] or [[]]  # an empty file has no columns
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# run configuration


# The key tuples below, the generators' signatures and baselines.SETTINGS
# are the whole spec schema: the builders pick from them, and a key outside
# them raises (see _check_keys).
_FAMILY_PARAMS = {family: inspect.signature(gen).parameters for family, gen in GENERATORS.items()}
#: a list under a plural key gives one cell per value of its generator parameter
_PLURALS = {"seeds": "seed", "cases": "case_id"}
#: the start of each family's cell id, the generator's defaults filled in
_ID_TEMPLATES = {"cs": "cs-d{d}m{m}-seed{seed}", "lpa": "lpa-d{d}m{m}-seed{seed}", "l2": "l2-case{case_id}-n{n}"}
_SPEC_KEYS = ("problems", "solvers", "stop", "output_dir")
_RUN_KEYS = ("repetitions", "max_iters", "check_invariants")
_STOP_KEYS = ("kind", "tol")
_LS_KEYS = tuple(f.name for f in dataclasses.fields(LineSearchParams) if f.name != "warm_start")
_IFB_KEYS = ("gamma", "warm_start", "inertia")


def _pick(options: dict, keys) -> dict:
    return {k: options[k] for k in keys if k in options}


def _check_keys(entry: dict, accepted, where: str) -> None:
    unknown = [k for k in entry if k not in accepted]
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
            f"accepted keys: {', '.join(accepted)}"
        )


def _check_required(entry: dict, required, where: str) -> None:
    missing = [k for k in required if k not in entry]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(map(repr, missing))}")


def _check_unique(named, what: str, key: str) -> None:
    """Raise if two ``(name, entry)`` pairs share a name: their cells would write one trace file."""
    first = {}
    for name, entry in named:
        if name in first:
            raise ValueError(
                f"{what} {first[name]!r} and {entry!r} share the {key} {name!r} and would write one trace file"
            )
        first[name] = entry


def _solver_keys(method: str, options: dict) -> tuple:
    """The option keys the builder of ``method`` reads."""
    if method != "ifb":  # a baseline's settings, its search as the search fields
        settings = SETTINGS[_entry(method, options.get("lambda_mode"))]
        return ("label",) + sum((_LS_KEYS if s == "armijo" else (s,) for s in settings), ())
    # only the constant schedule reads theta
    theta = ("theta",) if options.get("inertia") == "constant" else ()
    return ("label",) + _LS_KEYS + _IFB_KEYS + theta


@dataclass(frozen=True)
class ProblemCell:
    """One problem of the grid: ``GENERATORS[family](**params)``."""

    family: str
    params: dict

    @property
    def cell_id(self) -> str:
        """The family's template, then ``-<name><value>`` per other parameter set off its default.

        ``from_dict`` orders ``params`` as the generator's signature, so the id does too.
        """
        template = _ID_TEMPLATES[self.family]
        defaults = {name: par.default for name, par in _FAMILY_PARAMS[self.family].items()}
        rest = "".join(f"-{k}{v}" for k, v in self.params.items() if v != defaults[k] and "{" + k + "}" not in template)
        return template.format(**{**defaults, **self.params}) + rest


@dataclass(frozen=True)
class SolverEntry:
    method: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        entry = {"method": self.method} | self.options
        _check_keys(self.options, _solver_keys(self.method, self.options), f"solver entry {entry!r}")
        if "inertia" in self.options:  # the schedule's own check names the accepted kinds
            InertiaSchedule(self.options["inertia"], 0.0)

    @property
    def label(self) -> str:
        return self.options.get("label") or self.method


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce a benchmark grid.

    ``stopping_rule`` is built from ``stop`` when the spec loads, so a bad
    stop entry raises before any output is written.  So do a run setting of
    the wrong type, and two solver entries with one label or two problem
    cells with one id, which would share a trace file and a report row.
    """

    problems: tuple[ProblemCell, ...]
    solvers: tuple[SolverEntry, ...]
    stop: dict
    output_dir: str
    repetitions: int = 1
    max_iters: int = 500
    check_invariants: bool = True
    stopping_rule: StoppingRule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("repetitions", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.check_invariants, bool):
            raise ValueError(f"check_invariants must be true or false, got {self.check_invariants!r}")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        if not self.problems:
            raise ValueError("at least one problem is required")
        _check_unique(((s.label, {"method": s.method} | s.options) for s in self.solvers), "solver entries", "label")
        _check_unique(
            ((p.cell_id, {"family": p.family, **p.params}) for p in self.problems), "problem cells", "id"
        )
        _check_keys(self.stop, _STOP_KEYS, f"stop {self.stop!r}")
        object.__setattr__(self, "stopping_rule", StoppingRule(**self.stop))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunSpec":
        _check_keys(raw, _SPEC_KEYS + _RUN_KEYS, "the run spec")
        _check_required(raw, ("problems", "solvers", "output_dir"), "the run spec")
        cells = []
        for p in raw["problems"]:
            _check_required(p, ("family",), f"problem {p!r}")
            family = p["family"]
            if family not in GENERATORS:
                raise ValueError(f"unknown problem family {family!r}")
            params = _FAMILY_PARAMS[family]
            plurals = {many: one for many, one in _PLURALS.items() if one in params}
            _check_keys(p, ("family", *params, *plurals), f"problem {p!r}")
            for many, one in plurals.items():
                if one in p and many in p:  # the plural would silently win
                    raise ValueError(f"problem {p!r} gives both {one!r} and {many!r}; give one of them")
            given = {*p, *(plurals[k] for k in p if k in plurals)}
            missing = [k for k, par in params.items() if par.default is par.empty and k not in given]
            if missing:
                raise ValueError(f"problem {p!r} lacks {', '.join(map(repr, missing))}: the generator gives no default")
            lists = [[(one, v) for v in p[many]] for many, one in plurals.items() if many in p]
            for values in itertools.product(*lists):  # the params in signature order
                cells.append(ProblemCell(family, _pick({**p, **dict(values)}, params)))
        for s in raw["solvers"]:
            _check_required(s, ("method",), f"solver entry {s!r}")
        solvers = tuple(
            SolverEntry(s["method"], {k: v for k, v in s.items() if k != "method"})
            for s in raw["solvers"]
        )
        return cls(
            problems=tuple(cells),
            solvers=solvers,
            stop=raw.get("stop", {}),
            output_dir=raw["output_dir"],
            **_pick(raw, _RUN_KEYS),
        )

    @classmethod
    def from_file(cls, path) -> "RunSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _build_ifb_config(options: dict, stop: StoppingRule, spec: RunSpec) -> SolverConfig:
    cfg = SolverConfig(
        linesearch=LineSearchParams(**_pick(options, _LS_KEYS + ("warm_start",))),
        stop=stop,
        max_iters=spec.max_iters,
        check_invariants=spec.check_invariants,
        **_pick(options, ("gamma",)),
    )
    # a named schedule takes the default schedule's bound (theta is read for "constant" only)
    kind = options.get("inertia", cfg.inertia.kind)
    theta = options.get("theta", cfg.inertia.theta_max)
    return dataclasses.replace(cfg, inertia=InertiaSchedule(kind, theta))


def _build_baseline_config(method: str, options: dict) -> BaselineConfig:
    settings = SETTINGS[_entry(method, options.get("lambda_mode"))]
    if "armijo" in settings:  # the search fields move off the method's default search
        options = {**options, "armijo": dataclasses.replace(settings["armijo"], **_pick(options, _LS_KEYS))}
    return BaselineConfig(method, **_pick(options, ("label",) + tuple(settings)))


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class CellResult:
    """One row of ``report.csv``, whose columns are these fields in order and ``valid``.

    ``forward_evals`` and ``resolvent_evals`` are the run's totals, those of
    its trace.  ``violations`` is the sum of the three per-kind counts that
    follow it.  The defaults are those of a cell that failed before
    producing a trace.
    """

    solver: str
    problem_id: str
    repetition: int
    iterations: int = 0
    forward_evals: int = 0
    resolvent_evals: int = 0
    seconds: float = float("nan")
    final_err: float = float("nan")
    final_dist2: float = float("nan")
    status: str = "error"
    min_lambda: float = float("nan")
    delta_min: float = float("nan")
    delta_max: float = float("nan")
    violations: int = 0
    delta_bound: int = 0
    phi_sandwich: int = 0
    fejer: int = 0
    mode: str = ""  # solver mode labels (inertia kind, warm start, step mode)
    error: str = ""

    @property
    def valid(self) -> bool:
        return self.error == "" and self.violations == 0


def _report_field(name: str, value) -> str:
    """One ``report.csv`` field: floats round-trip, the free-text columns are JSON strings."""
    if name in ("mode", "error"):
        return json.dumps(value)
    if isinstance(value, float):
        return _FMT.format(value)
    return str(value)


@dataclass
class RunReport:
    spec: RunSpec
    cells: list[CellResult]

    @property
    def valid(self) -> bool:
        return all(c.valid for c in self.cells)

    def status_counts(self) -> dict[str, dict[str, int]]:
        """Cells per terminal status, per solver, both in order of first appearance."""
        counts: dict[str, dict[str, int]] = {}
        for c in self.cells:
            by_status = counts.setdefault(c.solver, {})
            by_status[c.status] = by_status.get(c.status, 0) + 1
        return counts

    def aggregated(self) -> list[dict]:
        """Median-over-repetitions table, one row per (solver, problem)."""
        groups: dict[tuple[str, str], list[CellResult]] = {}
        for c in self.cells:
            groups.setdefault((c.solver, c.problem_id), []).append(c)
        out = []
        for (solver, pid), cs in groups.items():
            out.append(
                {
                    "solver": solver,
                    "problem": pid,
                    "iterations": cs[0].iterations,
                    "median_seconds": statistics.median(c.seconds for c in cs),
                    "final_err": cs[0].final_err,
                    "final_dist2": cs[0].final_dist2,
                    "status": cs[0].status,
                    "valid": all(c.valid for c in cs),
                }
            )
        return out

    def write(self, outdir: Path) -> None:
        names = [f.name for f in dataclasses.fields(CellResult)]
        lines = [",".join(names + ["valid"])]
        for c in self.cells:
            lines.append(",".join([_report_field(n, getattr(c, n)) for n in names] + [str(c.valid)]))
        (outdir / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

        width = max((len(r["problem"]) for r in self.aggregated()), default=10) + 2
        txt = [
            f"{'problem':<{width}} {'solver':<14} {'iters':>7} {'med s':>11} "
            f"{'final err':>13} {'dist^2':>13} {'status':>12} {'valid':>6}"
        ]
        for r in self.aggregated():
            txt.append(
                f"{r['problem']:<{width}} {r['solver']:<14} {r['iterations']:>7d} "
                f"{r['median_seconds']:>11.4g} {r['final_err']:>13.4g} "
                f"{r['final_dist2']:>13.4g} {r['status']:>12} {str(r['valid']):>6}"
            )
        # VALID says nothing about convergence: a solver that diverged on
        # every cell stays VALID, so the footer counts each solver's statuses
        txt.append("\nstatus by solver:")
        for solver, counts in self.status_counts().items():
            txt.append(f"  {solver}: " + ", ".join(f"{status} {n}" for status, n in counts.items()))
        overall = "VALID" if self.valid else "INVALID"
        txt.append(f"\noverall: {overall} ({len(self.cells)} cells)")
        (outdir / "report.txt").write_text("\n".join(txt) + "\n", encoding="utf-8")


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cell(
    entry: SolverEntry, problem: Problem, pid: str, rep: int, spec: RunSpec
) -> tuple[CellResult, Optional[IterationTrace]]:
    stop = spec.stopping_rule
    t0 = time.perf_counter()
    try:
        if entry.method == "ifb":
            cfg = _build_ifb_config(entry.options, stop, spec)
            _, trace = solve(problem, problem.u0, problem.u1, cfg)
        else:
            cfg = _build_baseline_config(entry.method, entry.options)
            _, trace = run_baseline(
                cfg,
                problem,
                problem.u0,
                problem.u1,
                stop,
                max_iters=spec.max_iters,
                check_invariants=spec.check_invariants,
            )
        seconds = time.perf_counter() - t0
    except Exception as exc:  # a cell failure must never abort the grid
        seconds = time.perf_counter() - t0
        return CellResult(entry.label, pid, rep, seconds=seconds, error=_error_text(exc)), None
    dmin, dmax = trace.delta_range
    mode = ";".join(f"{k}={v}" for k, v in sorted(trace.labels.items()))
    result = CellResult(
        solver=entry.label,
        problem_id=pid,
        repetition=rep,
        iterations=trace.iterations,
        forward_evals=trace.total_forward_evals,
        resolvent_evals=trace.total_resolvent_evals,
        seconds=seconds,
        final_err=trace.final_err,
        final_dist2=trace.final_dist2,
        status=trace.status.value,
        min_lambda=trace.min_lambda,
        delta_min=dmin,
        delta_max=dmax,
        violations=trace.total_violations,
        **trace.violations,
        mode=mode,
    )
    return result, trace


def run(spec: RunSpec) -> RunReport:
    """Execute the full grid, write traces and the report, return the report.

    A problem whose generator raises (say, an l2 case outside 1..4) gives
    one error cell per solver and repetition, like a solve that raises.
    """
    outdir = Path(spec.output_dir)
    traces_dir = outdir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    (outdir / "spec.json").write_text(
        json.dumps(
            {
                "problems": [{"family": p.family, **p.params} for p in spec.problems],
                "solvers": [{"method": s.method, **s.options} for s in spec.solvers],
                "stop": spec.stop,
                "output_dir": spec.output_dir,
                "repetitions": spec.repetitions,
                "max_iters": spec.max_iters,
                "check_invariants": spec.check_invariants,
            },
            indent=2,
        ),
        encoding="utf-8",
    )

    cells = []
    for cell in spec.problems:
        pid = cell.cell_id
        try:
            problem = GENERATORS[cell.family](**cell.params)
        except Exception as exc:  # a generator that rejects its values fails its cells, not the grid
            error = _error_text(exc)
            cells += [
                CellResult(entry.label, pid, rep, error=error)
                for entry in spec.solvers
                for rep in range(spec.repetitions)
            ]
            continue
        for entry in spec.solvers:
            for rep in range(spec.repetitions):
                result, trace = _run_cell(entry, problem, pid, rep, spec)
                if trace is not None and trace.iterations > 0:
                    emit_convergence_csv(trace, traces_dir / f"{pid}__{entry.label}__rep{rep}.csv")
                cells.append(result)

    report = RunReport(spec=spec, cells=cells)
    report.write(outdir)
    return report


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args) -> int:
    spec = RunSpec.from_file(args.specfile)
    report = run(spec)
    for row in report.aggregated():
        print(
            f"{row['problem']:<28} {row['solver']:<14} iters={row['iterations']:<6d} "
            f"err={row['final_err']:.4g} status={row['status']}"
        )
    print("overall:", "VALID" if report.valid else "INVALID")
    return 0 if report.valid else 1


def _cmd_rate(args) -> int:
    cols = read_trace_csv(args.trace)
    try:
        if "res_wv" not in cols:
            raise InsufficientTrace("no res_wv column")
        slope = slope_of_min_residuals(cols["res_wv"], min_iterations=args.min_iterations)
    except InsufficientTrace as exc:  # one line, not a traceback
        print(f"mvibench rate: {args.trace}: {exc}", file=sys.stderr)
        return 2
    print(f"slope = {slope:.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvibench",
        description="Benchmark harness for monotone-inclusion splitting solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark grid from a JSON spec")
    p_run.add_argument("specfile")
    p_run.set_defaults(fn=_cmd_run)

    p_rate = sub.add_parser("rate", help="decay slope of a trace CSV")
    p_rate.add_argument("trace")
    p_rate.add_argument("--min-iterations", type=int, default=50)
    p_rate.set_defaults(fn=_cmd_rate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
