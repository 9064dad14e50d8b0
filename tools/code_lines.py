"""Code lines of each ``src/drcontract`` module and their total.

Run from the root of a checkout:

    python tools/code_lines.py

It counts the checkout it sits in, so another checkout's copy counts that
checkout.

A code line is a line that holds part of a token of code. Blank lines,
comment-only lines and the lines of a docstring (the string that opens a
module, class or function body, found with ``ast``) do not count, so
reformatting a comment or a docstring leaves the count as it is.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    src = Path(__file__).resolve().parents[1] / "src" / "drcontract"
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
