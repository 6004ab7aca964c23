"""A failing Hypothesis property must report its falsifying example.

The suite turns DeprecationWarnings into errors (``pyproject.toml``).
When a property fails, Hypothesis imports libcst to print a patch, and
libcst warns about ``mypy_extensions.TypedDict``; unless that one
third-party warning is ignored, pytest ends in an INTERNALERROR and the
example is lost.  This runs a deliberately failing property under the
repository's pytest configuration in a subprocess.
"""

import pathlib
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(min_value=0))
def test_never_holds(n):
    assert n < 0
'''


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_failing.py"),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = completed.stdout + completed.stderr
    assert completed.returncode == 1, output  # tests failed, no INTERNALERROR
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
