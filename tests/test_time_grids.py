import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "time_grids.py"
_spec = importlib.util.spec_from_file_location("time_grids", _PATH)
time_grids = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_grids)


def _write_spec(tmp_path, name, **overrides):
    raw = {
        "output_dir": str(tmp_path / name),
        "repetitions": 1,
        "max_iters": 20,
        "stop": {"kind": "successive_diff", "tol": 1e-6},
        "problems": [{"family": "cs", "d": 32, "m": 16, "l": 3, "seeds": [0]}],
        "solvers": [{"method": "ifb"}],
        "check_invariants": True,
        **overrides,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


def test_each_grid_is_timed_and_the_last_line_holds_the_seconds(tmp_path, capsys):
    specs = [_write_spec(tmp_path, "first"), _write_spec(tmp_path, "second")]
    assert time_grids.main([str(p) for p in specs]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["first", "second"]
    assert all(line.endswith(" s, VALID") for line in lines[:-1])
    seconds = json.loads(lines[-1])
    assert list(seconds) == ["first", "second"] and all(s > 0 for s in seconds.values())
    assert (tmp_path / "first" / "report.csv").exists()


def test_a_failing_grid_exits_1_and_shows_its_output(tmp_path, capsys):
    specs = [_write_spec(tmp_path, "bad", solvers=[{"method": "ifb", "max_backtracks": 200}]), _write_spec(tmp_path, "good")]
    assert time_grids.main([str(p) for p in specs]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0].startswith("bad: ") and "FAILED" in out.splitlines()[0]
    assert out.splitlines()[1].endswith(" s, VALID")
    assert "unknown key(s) 'max_backtracks'" in err
    assert list(json.loads(out.splitlines()[-1])) == ["bad", "good"]
