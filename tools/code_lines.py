"""Count the code lines of dsslab's modules, for measuring a simplicity claim.

Usage: python tools/code_lines.py TREE

Prints one `<lines> <module>` row per module of TREE/src/dsslab, in name
order, then `<lines> total`. A code line is a source line that holds at
least one token other than a comment: blank lines, comment lines and the
lines of docstrings (the leading string of a module, class or function)
do not count. Uses the standard library's ast and tokenize only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file at path."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    total = 0
    for path in sorted((Path(argv[1]) / "src" / "dsslab").glob("*.py")):
        lines = code_lines(path)
        total += lines
        print(lines, path.stem)
    print(total, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
