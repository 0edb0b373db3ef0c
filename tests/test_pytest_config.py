"""The suite's own pytest configuration, run on a throwaway test file.

pyproject.toml turns every DeprecationWarning into an error.  On a
failing property test hypothesis imports libcst to write its patch, and
that import warns about mypy_extensions.TypedDict inside a pytest hook,
where an error aborts the whole session.  The one ignore for that
warning lets such a failure report like any other.  conftest.py loads
one hypothesis profile for the whole suite; its settings are pinned
here.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st


    @settings(database=None, derandomize=True)
    @given(st.integers())
    def test_fails(n):
        assert n < 10


    def test_after():
        pass
""")


def test_failing_property_test_reports_and_the_next_one_runs(tmp_path):
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    before = sorted(p.name for p in ROOT.iterdir())
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout
    assert sorted(p.name for p in ROOT.iterdir()) == before


def test_hypothesis_profile_is_derandomized_without_deadline():
    # the property tests' tolerances hold on these fixed draws; a random
    # seed would test other examples on every run
    assert settings.default.derandomize is True
    assert settings.default.deadline is None
