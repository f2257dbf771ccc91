"""Print the code lines of every Python module under a source directory.

A line counts when a token of code starts on it or spans it.  Comments,
blank lines and docstrings (the leading string of a module, class or
function body, found with ``ast``) are left out; every other string,
multi-line ones included, counts.  One line ``N  path`` is printed per
module, sorted by path, and a last line ``N  total``.

    python3 tools/code_lines.py            # src/ of this checkout
    python3 tools/code_lines.py ../base/src

The count is a report for comparing two trees, not a gate.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of lines of source that hold code other than a docstring."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print(f"error: no Python modules under {root}", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:5d}  {path.relative_to(root).as_posix()}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
