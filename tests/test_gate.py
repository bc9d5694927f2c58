"""The suite's pytest settings report every failure: a failing property is named and later tests still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_property_fails(x):
    assert x < 0


def test_after_the_failure_still_runs():
    pass
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # the suite's own settings, warnings-as-errors included, in a session of its own
    text = PYPROJECT.read_text(encoding="utf-8")
    section = text.split("[tool.pytest.ini_options]", 1)[1].split("\n[", 1)[0]
    (tmp_path / "pyproject.toml").write_text("[tool.pytest.ini_options]" + section, encoding="utf-8")
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout
    assert "FAILED test_planted.py::test_planted_property_fails" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
