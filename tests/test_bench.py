import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from _cases import mu_with_cap
from _table import SMALL_PROBLEMS, every_method
from mvisolve import bench
from mvisolve.baselines import SETTINGS, BaselineConfig
from mvisolve.bench import (
    RunSpec,
    _build_baseline_config,
    _build_ifb_config,
    _solver_keys,
    emit_convergence_csv,
    main,
    read_trace_csv,
    run,
)
from mvisolve.problems import GENERATORS, cubic_problem
from mvisolve.linesearch import LineSearchParams
from mvisolve.solver import IterationRecord, InertiaSchedule, SolverConfig, StoppingRule, rate_estimate, solve


def _tiny_spec(tmp_path, **overrides):
    raw = {
        "output_dir": str(tmp_path / "out"),
        "repetitions": 1,
        "max_iters": 60,
        "stop": {"kind": "successive_diff", "tol": 1e-6},
        "problems": [{"family": "cs", "d": 32, "m": 16, "l": 3, "seeds": [0]}],
        "solvers": [{"method": "ifb"}],
        "check_invariants": True,
    }
    raw.update(overrides)
    return raw


def _trace(max_iters=60):
    prob = cubic_problem((2.0, -2.0))
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=max_iters)
    _, tr = solve(prob, prob.u0, prob.u1, cfg)
    return tr


class TestTraceCSV:
    def test_row_count(self, tmp_path):
        tr = _trace(3)
        path = emit_convergence_csv(tr, tmp_path / "t.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3
        assert lines[0] == ",".join(f.name for f in dataclasses.fields(IterationRecord))

    def test_roundtrip_bit_exact(self, tmp_path):
        tr = _trace(40)
        path = emit_convergence_csv(tr, tmp_path / "t.csv")
        cols = read_trace_csv(path)
        np.testing.assert_array_equal(cols["err"], tr.array("err"))
        np.testing.assert_array_equal(cols["res_wv"], tr.array("res_wv"))
        np.testing.assert_array_equal(cols["k"], tr.array("k"))

    @pytest.mark.parametrize("family", list(SMALL_PROBLEMS))
    def test_every_field_of_every_method_roundtrips_bitwise(self, tmp_path, family):
        # the file is the whole record: each column reads back as trace.array(name),
        # bit for bit, with NaN where the record holds NaN
        runs = every_method(SMALL_PROBLEMS[family](), 25)
        names = [f.name for f in dataclasses.fields(IterationRecord)]
        assert {"zw[schedule]", "zw[armijo]", "jx"} <= set(runs)
        for method, solve_it in runs.items():
            _, tr = solve_it()
            cols = read_trace_csv(emit_convergence_csv(tr, tmp_path / f"{method}.csv"))
            assert list(cols) == names, method
            for name in names:
                want, got = tr.array(name), cols[name]
                assert np.array_equal(np.isnan(got), np.isnan(want)), (method, name)
                finite = ~np.isnan(want)
                assert got[finite].tobytes() == want[finite].tobytes(), (method, name)

    def test_slope_from_file_equals_in_memory(self, tmp_path):
        tr = _trace(120)
        path = emit_convergence_csv(tr, tmp_path / "t.csv")
        cols = read_trace_csv(path)
        from mvisolve.solver import slope_of_min_residuals

        assert slope_of_min_residuals(cols["res_wv"]) == rate_estimate(tr)

    def test_empty_trace_rejected(self, tmp_path):
        from mvisolve.solver import IterationTrace

        with pytest.raises(ValueError):
            emit_convergence_csv(IterationTrace("x"), tmp_path / "t.csv")


class TestRun:
    def test_single_cell_report(self, tmp_path):
        spec = RunSpec.from_dict(_tiny_spec(tmp_path))
        report = run(spec)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.solver == "ifb"
        assert cell.violations == 0
        assert report.valid
        outdir = tmp_path / "out"
        assert (outdir / "report.csv").exists()
        assert (outdir / "report.txt").exists()
        assert (outdir / "spec.json").exists()
        assert list((outdir / "traces").glob("*.csv"))

    def test_failed_cell_does_not_abort_grid(self, tmp_path):
        raw = _tiny_spec(
            tmp_path,
            solvers=[{"method": "ifb"}, {"method": "fb", "lam": -1.0}],
        )
        report = run(RunSpec.from_dict(raw))
        assert len(report.cells) == 2
        statuses = {c.solver: c for c in report.cells}
        assert statuses["ifb"].valid
        assert statuses["fb"].status == "error"
        assert not report.valid

    @pytest.mark.parametrize(
        "problem, message",
        [
            ({"family": "l2", "n": 101, "cases": [1, 5]}, "ValueError: unknown case id 5; expected 1..4"),
            ({"family": "cs", "d": 16, "m": 32, "seeds": [0]}, "ValueError: need l <= d and m <= d"),
        ],
        ids=["l2-case", "cs-m-above-d"],
    )
    def test_a_rejecting_generator_gives_error_cells_not_an_abort(self, tmp_path, problem, message):
        raw = _tiny_spec(tmp_path, problems=[problem], solvers=[{"method": "ifb"}, {"method": "tseng"}], repetitions=2)
        report = run(RunSpec.from_dict(raw))
        failed = [c for c in report.cells if c.error]
        assert [(c.solver, c.repetition) for c in failed] == [("ifb", 0), ("ifb", 1), ("tseng", 0), ("tseng", 1)]
        assert all(c.status == "error" and c.error == message and c.iterations == 0 for c in failed)
        # an l2 case the generator accepts still runs, before and after the rejected one
        assert all(c.valid for c in report.cells if not c.error)
        assert len(report.cells) == 4 * len(problem.get("cases", [0]))
        assert not report.valid
        assert "overall: INVALID" in (tmp_path / "out" / "report.txt").read_text()
        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(dict(raw, output_dir=str(tmp_path / "cli"))))
        assert main(["run", str(specfile)]) == 1

    def test_distance_stop_on_a_family_without_reference_is_an_error_cell(self, tmp_path):
        raw = _tiny_spec(
            tmp_path,
            stop={"kind": "distance_to_reference", "tol": 1e-2},
            problems=[
                {"family": "lpa", "d": 32, "m": 16, "l": 3, "seeds": [0]},
                {"family": "cs", "d": 32, "m": 16, "l": 3, "seeds": [0]},
            ],
        )
        report = run(RunSpec.from_dict(raw))
        lpa, cs = report.cells
        assert lpa.status == "error" and "needs a reference point" in lpa.error
        assert cs.error == "" and cs.iterations > 0
        assert not report.valid

    def test_report_counts_each_invariant_kind_beside_the_total(self, tmp_path, monkeypatch):
        def solve_with_violations(*args, **kwargs):
            u, trace = solve(*args, **kwargs)
            trace.violations.update(delta_bound=1, fejer=2)
            return u, trace

        monkeypatch.setattr(bench, "solve", solve_with_violations)
        raw = _tiny_spec(tmp_path, solvers=[{"method": "ifb"}, {"method": "tseng"}])
        report = run(RunSpec.from_dict(raw))
        with open(tmp_path / "out" / "report.csv", newline="") as fh:
            header = next(csv.reader(fh))
            fh.seek(0)
            rows = {row["solver"]: row for row in csv.DictReader(fh)}
        i = header.index("violations")
        assert header[i : i + 4] == ["violations", "delta_bound", "phi_sandwich", "fejer"]
        counts = ("violations", "delta_bound", "phi_sandwich", "fejer", "valid")
        assert [rows["ifb"][c] for c in counts] == ["3", "1", "0", "2", "False"]
        assert [rows["tseng"][c] for c in counts] == ["0", "0", "0", "0", "True"]
        assert not report.valid

    def test_report_gives_each_cells_evaluation_totals_as_its_trace_does(self, tmp_path):
        raw = _tiny_spec(tmp_path, solvers=[{"method": "ifb"}, {"method": "fb", "lam": 0.05}, {"method": "tseng"}])
        run(RunSpec.from_dict(raw))
        with open(tmp_path / "out" / "report.csv", newline="") as fh:
            header = next(csv.reader(fh))
            fh.seek(0)
            rows = list(csv.DictReader(fh))
        i = header.index("iterations")
        assert header[i : i + 3] == ["iterations", "forward_evals", "resolvent_evals"]
        assert len(rows) == 3
        for row in rows:
            trace = read_trace_csv(tmp_path / "out" / "traces" / f"{row['problem_id']}__{row['solver']}__rep0.csv")
            for column in ("forward_evals", "resolvent_evals"):
                assert int(row[column]) == trace[column].sum() > 0, (row["solver"], column)

    def test_grid_determinism_modulo_timing(self, tmp_path):
        raw_a = _tiny_spec(tmp_path, output_dir=str(tmp_path / "a"))
        raw_b = _tiny_spec(tmp_path, output_dir=str(tmp_path / "b"))
        rep_a = run(RunSpec.from_dict(raw_a))
        rep_b = run(RunSpec.from_dict(raw_b))
        for ca, cb in zip(rep_a.cells, rep_b.cells):
            assert ca.iterations == cb.iterations
            assert ca.final_err == cb.final_err
            assert ca.final_dist2 == cb.final_dist2
            assert ca.min_lambda == cb.min_lambda
            assert ca.delta_min == cb.delta_min

    def test_report_footer_counts_statuses_per_solver(self, tmp_path):
        # zw diverges on every cell yet the grid is VALID: only the footer says so
        raw = _tiny_spec(
            tmp_path,
            problems=[{"family": "cs", "d": 32, "m": 16, "l": 3, "seeds": [0, 1]}],
            solvers=[{"method": "ifb"}, {"method": "zw"}],
            repetitions=2,
        )
        report = run(RunSpec.from_dict(raw))
        assert report.valid
        assert report.status_counts() == {"ifb": {"iter_cap": 4}, "zw": {"diverged": 4}}
        txt = (tmp_path / "out" / "report.txt").read_text()
        assert txt.endswith(
            "\n\nstatus by solver:\n  ifb: iter_cap 4\n  zw: diverged 4\n\noverall: VALID (8 cells)\n"
        )
        csv_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 8 and csv_lines[0].startswith("solver,problem_id,")

    def test_multiple_seeds_expand_to_cells(self, tmp_path):
        raw = _tiny_spec(tmp_path)
        raw["problems"][0]["seeds"] = [0, 1, 2]
        report = run(RunSpec.from_dict(raw))
        assert len(report.cells) == 3

    def test_repetitions_share_the_instance(self, tmp_path):
        raw = _tiny_spec(tmp_path, repetitions=3)
        report = run(RunSpec.from_dict(raw))
        assert len(report.cells) == 3
        iters = {c.iterations for c in report.cells}
        errs = {c.final_err for c in report.cells}
        assert len(iters) == 1 and len(errs) == 1  # only timing differs

    def test_contraction_solver_beats_projection_contraction(self, tmp_path):
        # on the same 128-dim recovery instance, to the common error target,
        # the fixed-schedule projection-contraction method never gets there
        # while the backtracked contraction solver does
        raw = _tiny_spec(
            tmp_path,
            problems=[{"family": "cs", "d": 128, "m": 64, "l": 5, "seeds": [1]}],
            solvers=[{"method": "ifb"}, {"method": "zw"}],
            stop={"kind": "distance_to_reference", "tol": 1e-2},
            max_iters=250,
        )
        report = run(RunSpec.from_dict(raw))
        by = {c.solver: c for c in report.cells}
        assert by["ifb"].status == "converged"
        reached = by["zw"].status == "converged"
        assert (not reached) or by["ifb"].iterations <= by["zw"].iterations

    def test_l2_family_cases(self, tmp_path):
        raw = _tiny_spec(
            tmp_path,
            problems=[{"family": "l2", "n": 101, "cases": [1, 2]}],
            stop={"kind": "successive_diff", "tol": 1e-10},
            max_iters=400,
        )
        report = run(RunSpec.from_dict(raw))
        assert len(report.cells) == 2
        assert report.valid

    def test_l2_cell_without_n_is_named_after_its_instance(self, tmp_path):
        spec = RunSpec.from_dict(_tiny_spec(tmp_path, problems=[{"family": "l2", "cases": [2]}]))
        (cell,) = spec.problems
        problem = GENERATORS[cell.family](**cell.params)
        assert cell.cell_id == f"l2-case{problem.metadata['case_id']}-n{problem.metadata['n']}"

    def test_mode_labels_reported(self, tmp_path):
        raw = _tiny_spec(
            tmp_path,
            solvers=[
                {"method": "ifb", "warm_start": True, "label": "ifb-warm"},
                {"method": "zw", "lambda_mode": "armijo", "label": "zw-armijo"},
            ],
        )
        report = run(RunSpec.from_dict(raw))
        modes = {c.solver: c.mode for c in report.cells}
        assert "warm_start=True" in modes["ifb-warm"]
        assert "inertia=experiment" in modes["ifb-warm"]
        assert "lambda_mode=armijo" in modes["zw-armijo"]
        text = (tmp_path / "out" / "report.csv").read_text()
        assert "warm_start=True" in text

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunSpec.from_dict(_tiny_spec(tmp_path, solvers=[]))
        with pytest.raises(ValueError):
            RunSpec.from_dict(_tiny_spec(tmp_path, repetitions=0))


    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"solvers": [{"method": "tseng", "sigam": 0.1}]}, "sigam"),
            ({"solvers": [{"method": "zw", "lamda_mode": "armijo"}]}, "lamda_mode"),
            # theta is read only together with the constant schedule
            ({"solvers": [{"method": "ifb", "theta": 0.3}]}, "theta"),
            ({"problems": [{"family": "cs", "d": 32, "m": 16, "snr": 20.0}]}, "snr"),
            ({"stop": {"kind": "successive_diff", "tolerance": 1e-3}}, "tolerance"),
            ({"max_iter": 10}, "max_iter"),
            ({"solvers": [{"method": "tc", "literal": True}]}, "literal"),
            # the keys of the removed thread pool raise like any other
            ({"workers": 4}, "workers"),
            ({"timing_mode": True}, "timing_mode"),
            # the search's cap follows from mu; its removed count raises too
            ({"solvers": [{"method": "ifb", "max_backtracks": 200}]}, "max_backtracks"),
        ],
        ids=[
            "solver-option", "zw-option", "ifb-theta", "problem", "stop", "top-level", "tc-literal",
            "retired-workers", "retired-timing-mode", "retired-max-backtracks",
        ],
    )
    def test_unknown_spec_keys_raise(self, tmp_path, overrides, key):
        with pytest.raises(ValueError, match=f"unknown key\\(s\\) '{key}' in .*; accepted keys: "):
            RunSpec.from_dict(_tiny_spec(tmp_path, **overrides))

    def test_unknown_key_error_names_the_entry_and_the_accepted_keys(self, tmp_path):
        raw = _tiny_spec(tmp_path, solvers=[{"method": "tseng", "sigam": 0.1}])
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(raw)
        assert str(err.value) == (
            "unknown key(s) 'sigam' in solver entry {'method': 'tseng', 'sigam': 0.1}; "
            "accepted keys: label, s, mu, sigma"
        )

    @pytest.mark.parametrize(
        "entry, accepted",
        [
            ({"method": "tseng", "lam": 5}, "label, s, mu, sigma"),
            ({"method": "fb", "sigma": 0.1}, "label, lam"),
            ({"method": "fb", "sigma": 0.1, "mu": 0.25}, "label, lam"),
            ({"method": "zw", "mu": 0.25}, "label, lambda_mode, lam, gamma"),
            ({"method": "tc", "lam": 0.2}, "label, s, mu, sigma, gamma, mu_tc, theta"),
            ({"method": "jx", "gamma": 1.0}, "label, s, mu, sigma"),
        ],
        ids=["tseng-lam", "fb-sigma", "fb-search", "zw-schedule-mu", "tc-lam", "jx-gamma"],
    )
    def test_baseline_entries_accept_only_the_settings_they_read(self, tmp_path, entry, accepted):
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(_tiny_spec(tmp_path, solvers=[entry]))
        unknown = ", ".join(repr(k) for k in entry if k != "method")
        assert str(err.value) == f"unknown key(s) {unknown} in solver entry {entry!r}; accepted keys: {accepted}"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"method": "zw", "lambda_mode": "armjio"}, "^lambda_mode must be 'schedule' or 'armijo'$"),
            ({"method": "tsneg"}, "^unknown baseline method 'tsneg'$"),
        ],
        ids=["lambda_mode", "method"],
    )
    def test_misspelt_baseline_raises_when_the_spec_loads(self, tmp_path, entry, message):
        with pytest.raises(ValueError, match=message):
            RunSpec.from_dict(_tiny_spec(tmp_path, solvers=[entry]))
        assert not (tmp_path / "out").exists()

    def test_readme_lists_the_keys_each_baseline_accepts(self):
        from pathlib import Path

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        for entry in SETTINGS:
            method, _, mode = entry.rstrip("]").partition("[")
            options = {"lambda_mode": mode} if mode else {}
            rows = [line for line in readme.splitlines() if line.startswith(f"| solver, `{entry}` |")]
            assert len(rows) == 1, entry
            keys = tuple(re.findall(r"`(\w+)`", rows[0].split("|")[2]))
            assert keys == ("method",) + _solver_keys(method, options), entry

    def test_readme_lists_the_keys_each_problem_family_accepts_and_its_example_loads(self, tmp_path):
        from pathlib import Path

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        for family in GENERATORS:
            rows = [line for line in readme.splitlines() if line.startswith(f"| problem, `{family}` |")]
            assert len(rows) == 1, family
            keys = ", ".join(re.findall(r"`(\w+)`", rows[0].split("|")[2]))
            with pytest.raises(ValueError, match=re.escape(f"; accepted keys: {keys}") + "$"):
                RunSpec.from_dict(_tiny_spec(tmp_path, problems=[{"family": family, "unlisted": 0}]))
        example = readme.split("### Run spec schema (JSON)\n\n```json\n")[1].split("```")[0]
        spec = RunSpec.from_dict(json.loads(example))
        assert [p.family for p in spec.problems] == ["cs"] * 3 + ["lpa"] + ["l2"] * 4
        assert len(spec.solvers) == 7

    def test_unknown_inertia_kind_raises_when_the_spec_loads(self, tmp_path):
        raw = _tiny_spec(tmp_path, solvers=[{"method": "ifb", "inertia": "constnat"}])
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(raw)
        assert str(err.value) == "unknown inertia schedule kind 'constnat'; accepted kinds: constant, experiment"
        assert not (tmp_path / "out").exists()
        for kind in InertiaSchedule.KINDS:
            RunSpec.from_dict(_tiny_spec(tmp_path, solvers=[{"method": "ifb", "inertia": kind}]))

    @pytest.mark.parametrize(
        "stop, message",
        [
            ({"kind": "bogus", "tol": 1e-6}, "^unknown stopping rule 'bogus'$"),
            ({"kind": "residual", "tol": -1.0}, "^tolerance must be positive$"),
        ],
        ids=["kind", "tol"],
    )
    def test_a_bad_stop_raises_when_the_spec_loads(self, tmp_path, stop, message):
        with pytest.raises(ValueError, match=message):
            RunSpec.from_dict(_tiny_spec(tmp_path, stop=stop))
        assert not (tmp_path / "out").exists()

    def test_the_stopping_rule_is_built_when_the_spec_loads(self, tmp_path):
        spec = RunSpec.from_dict(_tiny_spec(tmp_path, stop={"kind": "residual", "tol": 1e-4}))
        assert spec.stopping_rule == StoppingRule("residual", 1e-4)
        assert RunSpec.from_dict(_tiny_spec(tmp_path, stop={})).stopping_rule == StoppingRule()

    @pytest.mark.parametrize(
        "problem, missing",
        [
            ({"family": "cs", "m": 16, "seeds": [0]}, "'d'"),
            ({"family": "lpa", "d": 32, "seed": 1}, "'m'"),
            ({"family": "cs", "l": 3}, "'d', 'm'"),
        ],
        ids=["cs-d", "lpa-m", "cs-both"],
    )
    def test_a_problem_without_a_required_parameter_raises_when_the_spec_loads(self, tmp_path, problem, missing):
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(_tiny_spec(tmp_path, problems=[problem]))
        assert str(err.value) == f"problem {problem!r} lacks {missing}: the generator gives no default"
        assert not (tmp_path / "out").exists()
        # an l2 entry may leave its case to the default, and every entry its seed
        RunSpec.from_dict(_tiny_spec(tmp_path, problems=[{"family": "l2"}, {"family": "cs", "d": 32, "m": 16}]))

    def test_two_solver_entries_with_one_label_raise_when_the_spec_loads(self, tmp_path):
        # both would be labelled ifb: one trace file, one merged report row
        solvers = [{"method": "ifb"}, {"method": "ifb", "gamma": 1.0}]
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(_tiny_spec(tmp_path, solvers=solvers))
        assert str(err.value) == (
            "solver entries {'method': 'ifb'} and {'method': 'ifb', 'gamma': 1.0} "
            "share the label 'ifb' and would write one trace file"
        )
        assert not (tmp_path / "out").exists()
        solvers[1]["label"] = "ifb-g1"
        assert [s.label for s in RunSpec.from_dict(_tiny_spec(tmp_path, solvers=solvers)).solvers] == ["ifb", "ifb-g1"]

    @pytest.mark.parametrize(
        "problems, first, second, cell_id",
        [
            (
                [{"family": "lpa", "d": 32, "m": 16, "seeds": [2, 2]}],
                {"family": "lpa", "d": 32, "m": 16, "seed": 2},
                {"family": "lpa", "d": 32, "m": 16, "seed": 2},
                "lpa-d32m16-seed2",
            ),
            (
                [{"family": "l2", "cases": [3]}, {"family": "l2", "n": 1001, "case_id": 3}],
                {"family": "l2", "case_id": 3},
                {"family": "l2", "case_id": 3, "n": 1001},
                "l2-case3-n1001",
            ),
        ],
        ids=["lpa-repeated-seed", "l2-default-n"],
    )
    def test_two_problem_cells_with_one_id_raise_when_the_spec_loads(self, tmp_path, problems, first, second, cell_id):
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(_tiny_spec(tmp_path, problems=problems))
        assert str(err.value) == (
            f"problem cells {first!r} and {second!r} share the id {cell_id!r} and would write one trace file"
        )
        assert not (tmp_path / "out").exists()

    def test_an_l_sweep_at_one_seed_writes_one_trace_per_cell(self, tmp_path):
        problems = [{"family": "cs", "d": 64, "m": 32, "l": l, "seed": 1} for l in (4, 8)]
        spec = RunSpec.from_dict(_tiny_spec(tmp_path, problems=problems))
        assert [p.cell_id for p in spec.problems] == ["cs-d64m32-seed1-l4", "cs-d64m32-seed1-l8"]
        run(spec)
        traces = sorted(p.name for p in (tmp_path / "out" / "traces").iterdir())
        assert traces == ["cs-d64m32-seed1-l4__ifb__rep0.csv", "cs-d64m32-seed1-l8__ifb__rep0.csv"]

    def test_a_non_integer_seed_reaches_the_generator_and_fails_its_cells(self, tmp_path):
        raw = _tiny_spec(tmp_path, problems=[{"family": "cs", "d": 32, "m": 16, "seeds": [1.5]}])
        (cell,) = run(RunSpec.from_dict(raw)).cells
        assert cell.problem_id == "cs-d32m16-seed1.5"
        assert cell.error.startswith("TypeError: ") and not cell.valid

    @pytest.mark.parametrize(
        "problem, cell_id",
        [
            # a parameter set to its default, or left to it, is not named
            ({"family": "cs", "d": 64, "m": 32}, "cs-d64m32-seed0"),
            ({"family": "cs", "d": 64, "m": 32, "l": 10, "snr_db": 40, "rho": None, "seed": 2}, "cs-d64m32-seed2"),
            ({"family": "cs", "rho": 0.5, "snr_db": 20.0, "d": 64, "m": 32, "seed": 2}, "cs-d64m32-seed2-snr_db20.0-rho0.5"),
            ({"family": "lpa", "d": 64, "m": 32, "alpha": 1.25, "mu": 0.1, "seed": 3}, "lpa-d64m32-seed3-mu0.1-alpha1.25"),
            ({"family": "l2"}, "l2-case1-n1001"),
            ({"family": "l2", "n": 101, "case_id": 4}, "l2-case4-n101"),
        ],
        ids=["cs-defaults", "cs-defaults-named", "cs-snr-rho", "lpa-mu-alpha", "l2-defaults", "l2-n"],
    )
    def test_a_cell_id_names_each_parameter_set_off_its_default_in_signature_order(self, tmp_path, problem, cell_id):
        (cell,) = RunSpec.from_dict(_tiny_spec(tmp_path, problems=[problem])).problems
        assert cell.cell_id == cell_id

    @pytest.mark.parametrize("key", ["problems", "solvers", "output_dir"])
    def test_a_spec_without_a_required_key_raises_a_value_error_naming_it(self, tmp_path, key):
        raw = _tiny_spec(tmp_path)
        del raw[key]
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(raw)
        assert str(err.value) == f"the run spec lacks {key!r}"

    def test_an_entry_without_its_method_or_family_raises_a_value_error_naming_it(self, tmp_path):
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(_tiny_spec(tmp_path, solvers=[{"gamma": 1.0}]))
        assert str(err.value) == "solver entry {'gamma': 1.0} lacks 'method'"
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(_tiny_spec(tmp_path, problems=[{"d": 32, "m": 16}]))
        assert str(err.value) == "problem {'d': 32, 'm': 16} lacks 'family'"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"check_invariants": "no"}, "check_invariants must be true or false, got 'no'"),
            ({"check_invariants": 1}, "check_invariants must be true or false, got 1"),
            ({"max_iters": 0}, "max_iters must be a positive integer, got 0"),
            ({"max_iters": "5"}, "max_iters must be a positive integer, got '5'"),
            ({"max_iters": 5.0}, "max_iters must be a positive integer, got 5.0"),
            ({"max_iters": True}, "max_iters must be a positive integer, got True"),
            ({"repetitions": "2"}, "repetitions must be a positive integer, got '2'"),
            ({"repetitions": -1}, "repetitions must be a positive integer, got -1"),
        ],
        ids=["check-string", "check-int", "iters-zero", "iters-string", "iters-float", "iters-bool", "reps-string", "reps-negative"],
    )
    def test_a_run_setting_of_the_wrong_type_raises_when_the_spec_loads(self, tmp_path, overrides, message):
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(_tiny_spec(tmp_path, **overrides))
        assert str(err.value) == message
        assert not (tmp_path / "out").exists()

    def test_unknown_family_raises_when_the_spec_loads(self, tmp_path):
        with pytest.raises(ValueError, match="unknown problem family 'sc'"):
            RunSpec.from_dict(_tiny_spec(tmp_path, problems=[{"family": "sc", "d": 32, "m": 16}]))

    @pytest.mark.parametrize(
        "problem, one, many",
        [
            ({"family": "cs", "d": 32, "m": 16, "seed": 1, "seeds": [2, 3]}, "seed", "seeds"),
            ({"family": "lpa", "d": 32, "m": 16, "seed": 1, "seeds": [2]}, "seed", "seeds"),
            ({"family": "l2", "n": 101, "case_id": 3, "cases": [1]}, "case_id", "cases"),
        ],
        ids=["cs-seeds", "lpa-seeds", "l2-cases"],
    )
    def test_a_singular_key_beside_its_plural_raises(self, tmp_path, problem, one, many):
        # the plural would expand the cells and leave the singular unread
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict(_tiny_spec(tmp_path, problems=[problem]))
        assert str(err.value) == f"problem {problem!r} gives both {one!r} and {many!r}; give one of them"
        alone = {k: v for k, v in problem.items() if k != many}
        assert len(RunSpec.from_dict(_tiny_spec(tmp_path, problems=[alone])).problems) == 1

    def test_written_spec_reproduces_the_report(self, tmp_path):
        raw = _tiny_spec(
            tmp_path,
            problems=[
                {"family": "cs", "d": 32, "m": 16, "l": 3, "seeds": [0, 1]},
                {"family": "lpa", "d": 32, "m": 16, "l": 3, "seeds": [2]},
                {"family": "l2", "n": 101, "cases": [2]},
            ],
            solvers=[
                {"method": "ifb", "warm_start": True, "label": "ifb-warm"},
                {"method": "ifb", "inertia": "constant", "theta": 0.1, "label": "ifb-c"},
                {"method": "fb", "lam": 0.05},
                {"method": "tseng", "sigma": 0.8},
                {"method": "zw", "gamma": 0.9},
                {"method": "zw", "lambda_mode": "armijo", "label": "zw-armijo"},
                {"method": "tc", "mu_tc": 0.25},
                {"method": "jx"},
            ],
            repetitions=2,
        )
        run(RunSpec.from_dict(raw))
        written = json.loads((tmp_path / "out" / "spec.json").read_text())
        run(RunSpec.from_dict(dict(written, output_dir=str(tmp_path / "again"))))

        def report(outdir):
            with open(outdir / "report.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                del row["seconds"]
            return rows

        first = report(tmp_path / "out")
        assert len(first) == 4 * 8 * 2
        assert report(tmp_path / "again") == first


class TestConfigBuilders:
    """The bench states no default of its own: an empty option set is the plain config."""

    METHODS = ("fb", "tseng", "zw", "tc", "jx")

    def _spec(self, tmp_path):
        return RunSpec.from_dict(_tiny_spec(tmp_path, max_iters=77, check_invariants=False))

    def test_empty_options_give_the_dataclass_defaults(self, tmp_path):
        spec = self._spec(tmp_path)
        stop = StoppingRule("residual", 1e-5)
        assert _build_ifb_config({}, stop, spec) == SolverConfig(
            stop=stop, max_iters=77, check_invariants=False
        )
        for method in self.METHODS:
            assert _build_baseline_config(method, {}) == BaselineConfig(method)

    def test_ifb_overrides(self, tmp_path):
        spec = self._spec(tmp_path)
        stop = StoppingRule()
        cfg = _build_ifb_config({"sigma": 0.5, "gamma": 1.5, "warm_start": True}, stop, spec)
        assert cfg == SolverConfig(
            gamma=1.5,
            linesearch=LineSearchParams(sigma=0.5, warm_start=True),
            stop=stop,
            max_iters=77,
            check_invariants=False,
        )
        # a constant schedule defaults to the default schedule's bound
        cfg = _build_ifb_config({"inertia": "constant"}, stop, spec)
        assert cfg.inertia == InertiaSchedule("constant", SolverConfig().inertia.theta_max)
        cfg = _build_ifb_config({"inertia": "constant", "theta": 0.25}, stop, spec)
        assert cfg.inertia == InertiaSchedule("constant", 0.25)

    def test_baseline_overrides(self, tmp_path):
        options = {
            "fb": ({"lam": 0.5}, {"lam": 0.5}),
            "tseng": ({"mu": 0.25}, {"armijo": LineSearchParams(mu=0.25)}),
            "zw": ({"lambda_mode": "armijo", "gamma": 1.0},
                   {"lambda_mode": "armijo", "gamma": 1.0}),
            # only the overridden search field moves off the method's defaults
            "tc": ({"s": 4.0, "mu_tc": 0.25},
                   {"armijo": LineSearchParams(s=4.0, mu=0.5, sigma=0.5), "mu_tc": 0.25}),
            "jx": ({"mu": mu_with_cap(9), "label": "proj"},
                   {"armijo": LineSearchParams(mu=mu_with_cap(9)), "label": "proj"}),
        }
        for method, (opts, fields) in options.items():
            assert _build_baseline_config(method, opts) == BaselineConfig(method, **fields)


class TestShippedSpecs:
    def test_shipped_spec_files_load(self):
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parent.parent / "demos" / "specs"
        files = sorted(specs_dir.glob("*.json"))
        assert len(files) >= 3
        for f in files:
            spec = RunSpec.from_file(f)
            assert spec.solvers and spec.problems

    def test_the_shipped_grids_name_their_cells(self):
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parent.parent / "demos" / "specs"
        ids = {
            name: [p.cell_id for p in RunSpec.from_file(specs_dir / f"{name}.json").problems]
            for name in ("recovery_table", "power_penalty_table", "integral_table")
        }
        assert ids == {
            "recovery_table": [f"cs-d512m256-seed{s}" for s in (1, 2, 3)] + [f"cs-d1024m512-seed{s}-l20" for s in (1, 2, 3)],
            "power_penalty_table": [f"lpa-d512m256-seed{s}" for s in (1, 2, 3)]
            + [f"lpa-d1024m512-seed{s}-l20" for s in (1, 2, 3)],
            "integral_table": [f"l2-case{c}-n1001" for c in (1, 2, 3, 4)],
        }

    def test_integral_spec_runs_scaled_down(self, tmp_path):
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parent.parent / "demos" / "specs"
        raw = json.loads((specs_dir / "integral_table.json").read_text())
        raw["output_dir"] = str(tmp_path / "out")
        raw["repetitions"] = 1
        raw["problems"] = [{"family": "l2", "n": 101, "cases": [1]}]
        report = run(RunSpec.from_dict(raw))
        assert report.valid
        by = {c.solver: c.status for c in report.cells}
        assert by["ifb"] == "converged"


class TestCLI:
    def test_run_subcommand_exit_codes(self, tmp_path, capsys):
        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(_tiny_spec(tmp_path)))
        assert main(["run", str(specfile)]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out

    def test_run_subcommand_invalid_exit(self, tmp_path, capsys):
        raw = _tiny_spec(tmp_path, solvers=[{"method": "fb", "lam": -1.0}])
        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(raw))
        assert main(["run", str(specfile)]) == 1

    def test_rate_subcommand(self, tmp_path, capsys):
        tr = _trace(120)
        path = tmp_path / "trace.csv"
        emit_convergence_csv(tr, path)
        assert main(["rate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "slope" in out

    def test_rate_on_a_short_trace_or_one_without_res_wv_exits_2_with_one_line(self, tmp_path, capsys):
        path = emit_convergence_csv(_trace(5), tmp_path / "short.csv")
        assert main(["rate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mvibench rate: {path}: need at least 50 recorded residuals, got 5\n"
        assert main(["rate", str(path), "--min-iterations", "5"]) == 0
        capsys.readouterr()
        for bare, text in [(tmp_path / "bare.csv", "k,err\n1,0.5\n2,0.25\n"), (tmp_path / "empty.csv", "")]:
            bare.write_text(text)
            assert main(["rate", str(bare)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"mvibench rate: {bare}: no res_wv column\n")

    def test_the_docs_name_only_real_subcommands(self, capsys):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        docs = [root / "README.md", *sorted((root / "demos").glob("*.py"))]
        words = {w for f in docs for w in re.findall(r"\bmvibench\s+([\w-]+)", f.read_text(encoding="utf-8"))}
        assert {"run", "rate"} <= words
        for word in sorted(words):
            with pytest.raises(SystemExit) as exc:
                main([word, "--help"])
            assert exc.value.code == 0, f"mvibench {word}"
