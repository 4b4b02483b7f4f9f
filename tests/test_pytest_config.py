"""The repository's pytest configuration, run on a test file of its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the failing test comes first: before the config ignored libcst's warning,
# the run stopped there
GIVEN_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_given_test_is_reported_with_its_example(tmp_path):
    # hypothesis imports libcst to report a failing @given test, and libcst
    # raises a DeprecationWarning, which the config turns into errors
    (tmp_path / "test_given.py").write_text(GIVEN_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out
