"""Count executable lines of Python source: lines that are not docstring, comment or blank.

A line counts when a token other than a comment or layout token starts,
ends or continues on it, so every line of a statement spread over several
lines counts, and so does every line of a multi-line string that is not a
docstring.  Docstrings are the string-constant first statements of the
module, classes and functions, found from the AST.

Usage::

    python tools/count_lines.py [path ...]    # default: src/mvisolve

Each path is a ``.py`` file or a directory searched recursively; the script
prints one count per module and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable_lines(source: str) -> int:
    """Number of lines carrying code, docstrings, comments and blank lines excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:]) or ["src/mvisolve"]]
    files = [f for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        n = executable_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
