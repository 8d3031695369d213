"""The README's library examples run as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
