"""Count the total and code lines of Python sources.

A code line holds a token other than a comment, NL, NEWLINE, INDENT, DEDENT
or ENDMARKER, outside module, class and function docstrings.  Blank lines,
comment lines and docstring lines are not code.

    python tools/loc.py src/qbm          # each file, then the total
    python tools/loc.py a.py b/          # files and directories alike
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
    tokenize.ENCODING,  # the stream's first token, on no line
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """Start (line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = _docstrings(ast.parse(text, str(path)))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docs):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv:
        p = Path(arg)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = code = 0
    for f in files:
        t, c = count(f)
        total, code = total + t, code + c
        print(f"{t:7d} {c:7d}  {f}")
    print(f"{total:7d} {code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
