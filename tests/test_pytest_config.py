"""The test suite's own configuration, as `pyproject.toml` sets it."""

import os
import subprocess
import sys

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_runs():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    """Under the suite's settings (every warning an error) a failing
    hypothesis test is reported as one failure with its falsifying
    example, and the tests after it still run."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    config = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", config, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "PASSED test_probe.py::test_runs" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
