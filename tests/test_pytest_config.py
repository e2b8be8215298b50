"""The repository's pytest configuration, run on a throwaway test file."""

import pathlib
import shutil
import subprocess
import sys

FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5


def test_later():
    pass
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    """Under filterwarnings = error, a failing hypothesis test still ends
    as one failure: the report shows the falsifying example and the tests
    after it run. (hypothesis's report imports libcst, whose older
    releases warn on import; without the ignore that warning ended the
    session with INTERNALERROR.)"""
    shutil.copy(pathlib.Path(__file__).parents[1] / "pyproject.toml",
                tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout and "x=5" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
