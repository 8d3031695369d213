"""tools/loc.py counts what the design metric reads: total lines, and code
lines without docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

SOURCE = '''"""A module docstring
over two lines."""

# a comment line


def f(a, b):
    """A function docstring."""
    x = max(  # a comment after code
        a,
        b,
    )
    s = """a string
that is no docstring"""
    return x, s
'''


def test_count_skips_docstrings_comments_and_blank_lines(tmp_path):
    spec = importlib.util.spec_from_file_location("loc", LOC)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    path = tmp_path / "module.py"
    path.write_text(SOURCE, encoding="utf-8")
    # code: def, the four lines of the call, the string's two and the return
    assert loc.count(path) == (15, 8)
