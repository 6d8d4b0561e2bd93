"""The suite's pytest configuration reports a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_shows_its_example(tmp_path):
    # with warnings as errors, a warning raised in hypothesis's report hook
    # ends the run in INTERNALERROR (exit 3) and hides the example
    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "-p", "no:cacheprovider", "test_fails.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
