"""The statistics and the gate of ``tools/ab.py``, on synthetic perfbench results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"panel_s.p50": "lower", "iters_per_s": "higher", "forward_evals": "lower"}


def _result(panel, iters_per_s, forward_evals=100, resolvent_evals=50, correct=True):
    values = {
        "panel_s.p50": panel,
        "iters_per_s": iters_per_s,
        "forward_evals": forward_evals,
        "resolvent_evals": resolvent_evals,
    }
    return {"correct": correct, "failed": 0, "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def _by_metric(summaries):
    return {s["metric"]: s for s in summaries}


@pytest.mark.parametrize(
    "values, q, expected",
    [([3.0, 1.0, 2.0], 0.5, 2.0), ([1.0, 2.0, 3.0, 4.0], 0.25, 1.75), ([1.0, 2.0, 3.0, 4.0], 0.75, 3.25),
     ([5.0], 0.25, 5.0), ([1.0, 3.0], 0.5, 2.0)],
)
def test_quantile_interpolates_between_order_statistics(values, q, expected):
    assert ab.quantile(values, q) == expected


def test_summary_of_a_faster_head():
    base = [_result(1.0, 100.0), _result(1.2, 90.0), _result(1.1, 95.0), _result(0.9, 110.0)]
    head = [_result(0.9, 110.0), _result(1.08, 99.0), _result(1.21, 90.0), _result(0.81, 121.0)]
    s = _by_metric(ab.summarize(base, head, BETTER))
    panel = s["panel_s.p50"]
    assert panel["base"] == (0.975, 1.05, 1.125)
    assert panel["head"] == pytest.approx((0.8775, 0.99, 1.1125))
    # per-pair ratios 0.9, 0.9, 1.1, 0.9: the third pair is a loss
    assert panel["ratio"] == pytest.approx(0.9)
    assert (panel["wins"], panel["pairs"]) == (3, 4)
    rate = s["iters_per_s"]  # higher is better: the same three pairs win
    assert rate["ratio"] == pytest.approx(1.1)
    assert rate["wins"] == 3


def test_ties_are_not_wins():
    base = [_result(1.0, 100.0), _result(1.0, 100.0)]
    s = _by_metric(ab.summarize(base, [_result(1.0, 100.0)] * 2, BETTER))
    assert [s[m]["wins"] for m in BETTER] == [0, 0, 0]
    assert s["forward_evals"]["ratio"] == 1.0


def test_valid_pairs_have_no_problems():
    assert ab.problems([_result(1.0, 1.0)] * 2, [_result(0.9, 1.1)] * 2) == []


def test_an_incorrect_run_is_a_problem():
    found = ab.problems([_result(1.0, 1.0)], [_result(0.9, 1.1, correct=False)])
    assert found == ["head run 0 reports correct: false (0 failed solves)"]


def test_a_missing_result_is_a_problem():
    assert ab.problems([None], [_result(0.9, 1.1)]) == ["base run 0 printed no result"]


@pytest.mark.parametrize("name, base_value", [("forward_evals", 100), ("resolvent_evals", 50)])
def test_differing_work_counters_are_a_problem(name, base_value):
    head = _result(0.9, 1.1, **{name: 101})
    assert ab.problems([_result(1.0, 1.0)], [head]) == [f"{name} differs between runs: [{base_value}, 101]"]


def test_last_json_skips_text_and_earlier_results():
    out = 'manifest {"a": 1}\n{"correct": false}\nfailed_frac 0.0\n{"correct": true}\n'
    assert ab.last_json(out) == {"correct": True}
    assert ab.last_json("no result\n[1, 2]\n") is None


def test_copied_working_tree_holds_uncommitted_edits_and_no_git(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    dest.mkdir()
    (repo / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("")
    (repo / ".gitignore").write_text("*.log\n")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    (repo / "pkg" / "mod.py").write_text("x = 2\n")  # an edit not in the index
    (repo / "gone.py").unlink()  # a tracked file deleted on disk
    (repo / "new.py").write_text("y = 3\n")  # untracked, not ignored
    (repo / "run.log").write_text("ignored\n")
    ab.copy_worktree(repo, dest)
    assert (dest / "pkg" / "mod.py").read_text() == "x = 2\n"
    assert (dest / "new.py").read_text() == "y = 3\n"
    assert sorted(p.name for p in dest.iterdir()) == [".gitignore", "new.py", "pkg"]
    # the copy's tree hash is the tree the working tree would commit
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    staged = subprocess.run(["git", "-C", str(repo), "write-tree"], capture_output=True, text=True, check=True)
    assert ab.tree_hash(dest) == staged.stdout.strip()
    assert sorted(p.name for p in dest.iterdir()) == [".gitignore", "new.py", "pkg"]


def test_the_last_line_is_one_json_result_naming_every_end_to_end_metric(monkeypatch, capsys):
    spec = json.loads((ab.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    runs = iter(range(100))

    def run_once(tree, args):
        value = 1.0 + next(runs)
        metrics = {name: {"value": value, "unit": "x"} for name in names}
        metrics.update({name: {"value": 7, "unit": "count"} for name in ab.COUNTERS})
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setattr(ab, "export", lambda ref, dest: "b" * 40)
    monkeypatch.setattr(ab, "commit_of", lambda ref: "h" * 40)
    monkeypatch.setattr(ab, "copy_worktree", lambda root, dest: None)
    argv = ["--base", "parent", "--workload", "integral", "--pairs", "3", "--seconds", "2.5", "--seed", "4"]
    assert ab.main(argv) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    empty_tree = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"  # nothing was copied or exported
    assert line["base"] == {"ref": "parent", "sha": "b" * 40, "tree": empty_tree}
    assert line["head"] == {"ref": None, "sha": "h" * 40, "tree": empty_tree}  # the copy of the working tree
    assert (line["workload"], line["seed"], line["seconds"], line["pairs"]) == ("integral", 4, 2.5, 3)
    assert sorted(line["metrics"]) == sorted(names)
    for name in names:
        assert set(line["metrics"][name]) == {"base", "head", "ratio", "wins"}
        assert len(line["metrics"][name]["base"]) == len(line["metrics"][name]["head"]) == 3
    assert line["problems"] == []
