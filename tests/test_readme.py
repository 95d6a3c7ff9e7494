"""The README's Quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # later blocks use the names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["trace"].status.value == "converged"
    assert namespace["trace"].invariants_checked and namespace["trace"].total_violations == 0
