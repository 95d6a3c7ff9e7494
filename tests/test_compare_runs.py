import importlib.util
from pathlib import Path

from mvisolve.bench import RunSpec, run

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _PATH)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def _run(outdir, max_iters):
    run(
        RunSpec.from_dict(
            {
                "output_dir": str(outdir),
                "max_iters": max_iters,
                "stop": {"kind": "iter_cap_only"},
                "problems": [{"family": "cs", "d": 32, "m": 16, "l": 3, "seeds": [0]}],
                "solvers": [{"method": "ifb"}, {"method": "tc"}],
            }
        )
    )
    return outdir


def test_identical_runs_match(tmp_path, capsys):
    a, b = _run(tmp_path / "a", 8), _run(tmp_path / "b", 8)
    assert compare_runs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "match: report.csv and 2 trace files, seconds and elapsed_ns ignored\n"


def test_a_different_iteration_cap_names_the_column(tmp_path, capsys):
    a, b = _run(tmp_path / "a", 8), _run(tmp_path / "b", 9)
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "report.csv row 1 (ifb/cs-d32m16-seed0-l3/0) column iterations: 8 != 9" in out
    assert out.splitlines()[-1] == "differ: report.csv and 2 trace files, seconds and elapsed_ns ignored"
    # the traces differ in length, not in the rows both runs hold
    assert "traces/cs-d32m16-seed0-l3__ifb__rep0.csv: 8 rows != 9 rows" in out
    assert " column k:" not in out


def test_a_missing_trace_file_is_a_difference(tmp_path, capsys):
    a, b = _run(tmp_path / "a", 8), _run(tmp_path / "b", 8)
    (b / "traces" / "cs-d32m16-seed0-l3__tc__rep0.csv").unlink()
    assert compare_runs.main([str(a), str(b)]) == 1
    assert "traces/cs-d32m16-seed0-l3__tc__rep0.csv: only in" in capsys.readouterr().out
