"""The repo's pytest settings turn warnings into errors; a failing property
test must still be reported as a failure, not end the session."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    args = ["-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider", "test_fails.py"]
    run = subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
