"""Print the size of the source tree: every line, and the code lines.

Usage: ``python tools/loc.py [DIR]`` (default ``src``), or ``make loc``.
Code lines are the lines holding a token other than a comment, with
string-only expression statements (docstrings) left out; blank lines hold
no token.  These are the two numbers each ``CHANGES.md`` entry reports.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def count(text: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one Python source."""
    docstrings = {
        line
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    code = {
        line
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type not in _LAYOUT
        for line in range(token.start[0], token.end[0] + 1)
    }
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> None:
    root = pathlib.Path(argv[0] if argv else "src")
    lines = code = 0
    for path in sorted(root.rglob("*.py")):
        file_lines, file_code = count(path.read_text(encoding="utf-8"))
        lines += file_lines
        code += file_code
    print(f"{root}: {lines} lines, {code} code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
