"""The digests and the comparison of ``tools/digest.py``, on real solves and synthetic digests."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import digest  # noqa: E402

from mvisolve.problems import cubic_problem  # noqa: E402
from mvisolve.solver import SolverConfig, StoppingRule, solve  # noqa: E402

COLUMNS = ["lam", "res_wv", "forward_evals"]


def _solved(max_iters=5):
    problem = cubic_problem((2.0, -2.0))
    cfg = SolverConfig(stop=StoppingRule("iter_cap_only"), max_iters=max_iters, check_invariants=True)
    return solve(problem, problem.u0, problem.u1, cfg)


def test_cell_digest_records_the_outcome_and_one_hash_per_column():
    u, trace = _solved()
    cell = digest.cell_digest(u, trace, COLUMNS, array_equal=False)
    assert cell["status"] == "iter_cap" and cell["iterations"] == 5
    assert cell["forward_evals"] == trace.total_forward_evals
    assert cell["resolvent_evals"] == trace.total_resolvent_evals
    assert {k: v for k, v in cell.items() if k.startswith("violations.")} == {
        "violations.delta_bound": 0, "violations.phi_sandwich": 0, "violations.fejer": 0,
    }
    assert cell["final_iterate"] == digest.sha1_of(u, False)
    assert sorted(k for k in cell if k.startswith("column.")) == sorted(f"column.{c}" for c in COLUMNS)
    # the same run digests alike, one iteration more does not
    assert digest.cell_digest(*_solved(), COLUMNS, array_equal=False) == cell
    longer = digest.cell_digest(*_solved(6), COLUMNS, array_equal=False)
    assert longer["final_iterate"] != cell["final_iterate"]
    assert longer["column.lam"] != cell["column.lam"]


def test_array_equal_hashes_ignore_the_sign_of_zero_only():
    x, y = np.array([0.0, 1.5]), np.array([-0.0, 1.5])
    assert digest.sha1_of(x, False) != digest.sha1_of(y, False)
    assert digest.sha1_of(x, True) == digest.sha1_of(y, True)
    assert digest.sha1_of(x, True) != digest.sha1_of(np.array([0.0, np.nextafter(1.5, 2.0)]), True)
    # integer columns hash as float64
    assert digest.sha1_of(np.array([1, 2]), False) == digest.sha1_of(np.array([1.0, 2.0]), False)


def test_differences_lists_each_differing_field_and_missing_cell():
    base = {"a/ifb": {"status": "converged", "iterations": 3}, "b/fb": {"status": "converged"}}
    head = {"a/ifb": {"status": "converged", "iterations": 4, "raised": "x"}, "c/tc": {"status": "iter_cap"}}
    assert digest.differences(base, head) == [
        ("a/ifb", "iterations", 3, 4),
        ("a/ifb", "raised", None, "x"),
        ("b/fb", "cell", True, False),
        ("c/tc", "cell", False, True),
    ]
    assert digest.differences(base, base) == []


def test_parse_args():
    args = digest.parse_args(["--base", "HEAD", "--seeds", "1,3"])
    assert args.seeds == [1, 3] and not args.array_equal
    assert digest.parse_args(["--base", "HEAD", "--array-equal"]).array_equal
    assert digest.parse_args(["--tree", "."]).seeds == [1, 2]
    bad = [
        ["--base", "HEAD", "--seeds", "1,x"],
        ["--base", "HEAD", "--seeds", "-1"],
        ["--base", "HEAD", "--tree", "."],
        ["--tree", ".", "--head", "HEAD"],
        ["--seeds", "1"],
    ]
    for argv in bad:
        with pytest.raises(SystemExit):
            digest.parse_args(argv)


def test_the_comparison_exits_1_on_any_difference_or_failed_tree(monkeypatch, capsys):
    digests = {
        "base": {"a/ifb": {"final_iterate": "1", "status": "converged"}},
        "head": {"a/ifb": {"final_iterate": "2", "status": "converged"}},
    }
    monkeypatch.setattr(digest, "export", lambda ref, dest: ref)
    monkeypatch.setattr(digest, "run_tree", lambda tree, args: digests[tree.name])
    assert digest.main(["--base", "x", "--head", "y"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS a/ifb final_iterate: base 1 head 2" in out
    assert "1 cells, 1 differing fields" in out
    digests["head"] = digests["base"]
    assert digest.main(["--base", "x", "--head", "y"]) == 0
    assert "1 cells, 0 differing fields" in capsys.readouterr().out
    monkeypatch.setattr(digest, "run_tree", lambda tree, args: None)  # a tree's process failed
    assert digest.main(["--base", "x", "--head", "y"]) == 1
