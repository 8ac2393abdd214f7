"""Count the code lines and physical lines of Python modules.

A code line is a line that holds part of a token other than a comment,
once blank lines and docstrings (the leading string of a module, class
or function) are left out. Physical lines are all lines of the file.
Uses only the standard library.

Usage: python tools/code_lines.py [DIRECTORY_OR_FILE ...]   (default src/plbench)
"""
from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, physical lines) of one Python file."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(source, str(path)))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings), len(source.splitlines())


def main(argv: list[str]) -> None:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "plbench"]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    total_code = total_physical = 0
    print(f"{'code':>6} {'physical':>8}  module")
    for f in files:
        code, physical = count(f)
        total_code += code
        total_physical += physical
        print(f"{code:>6} {physical:>8}  {os.path.relpath(f)}")
    print(f"{total_code:>6} {total_physical:>8}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
