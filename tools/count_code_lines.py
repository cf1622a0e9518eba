#!/usr/bin/env python
"""Count code-only lines: the number a simplicity PR reports in CHANGES.md.

A physical line counts when it holds at least one token that is not a
comment, a blank/continuation newline, or part of a docstring
(``tokenize`` for the tokens, ``ast`` for which string literals are
docstrings).  Reformatting comments or docstrings therefore moves
nothing; only code does.

Usage: python tools/count_code_lines.py [file.py ...]

Prints the ``src/repro`` total, then one line per file named on the
command line (paths relative to the repo root or absolute).
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO_ROOT, "src", "repro")

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module/class/function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            doc = body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_file(path: str) -> int:
    """Code-only line count of one python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    doc_lines = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and doc_lines.issuperset(span):
            continue
        code.update(span)
    return len(code)


def count_tree(root: str = PACKAGE) -> int:
    """Code-only line count of every ``*.py`` under ``root``."""
    total = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                total += count_file(os.path.join(dirpath, name))
    return total


def main(argv: list[str]) -> int:
    print(f"src/repro {count_tree()}")
    for arg in argv:
        path = arg if os.path.isabs(arg) else os.path.join(REPO_ROOT, arg)
        print(f"{arg} {count_file(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
