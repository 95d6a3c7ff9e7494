import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os


def f(a,
      b):
    """Function docstring."""
    x = (a +  # a trailing comment keeps its line
         b)
    s = """a string that is
not a docstring"""
    return x, s, os
'''


def test_fixture_counts_only_code_lines():
    # import, the two-line def, the two-line assignment, the two-line
    # string and the return: 8 lines
    assert count_lines.docstring_lines(SOURCE) == {1, 2, 10}
    assert count_lines.executable_lines(SOURCE) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert count_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].endswith("total")
