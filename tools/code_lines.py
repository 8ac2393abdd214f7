"""Count the code lines, physical lines, public names and public methods of
Python modules.

A code line is a line that holds part of a token other than a comment,
once blank lines and docstrings (the leading string of a module, class
or function) are left out. Physical lines are all lines of the file.
Public names are the module-level ``def`` and ``class`` names and
assignment targets that do not start with ``_``; imported names are not
counted. Public methods are the ``def`` names that do not start with
``_`` in the body of a module-level public class, so that a method cut
from the API shows. Uses only the standard library.

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


def public_names(tree: ast.Module) -> set[str]:
    """The public names a parsed module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {name for name in names if not name.startswith("_")}


def public_methods(tree: ast.Module) -> int:
    """The number of public methods of the public classes a parsed module
    defines at its top level."""
    classes = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    return sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_") for cls in classes for node in cls.body)


def count(path: Path) -> tuple[int, int, int, int]:
    """(code lines, physical lines, public names, public methods) of one
    Python file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    docstrings = docstring_lines(tree)
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return (len(code - docstrings), len(source.splitlines()), len(public_names(tree)),
            public_methods(tree))


def main(argv: list[str]) -> None:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "plbench"]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    totals = [0, 0, 0, 0]
    print(f"{'code':>6} {'physical':>8} {'public':>6} {'methods':>7}  module")
    for f in files:
        counts = count(f)
        totals = [a + b for a, b in zip(totals, counts)]
        print("{:>6} {:>8} {:>6} {:>7}  ".format(*counts) + os.path.relpath(f))
    print("{:>6} {:>8} {:>6} {:>7}  total".format(*totals))


if __name__ == "__main__":
    main(sys.argv[1:])
