"""The suite's own pytest configuration lets a failing test fail: the run goes on and exits 1."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_crash_the_run(tmp_path):
    # hypothesis's failure report imports libcst, which warns a DeprecationWarning on import;
    # under "error::DeprecationWarning" alone that ended the run with INTERNALERROR, exit 3
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(x):
            assert False

        def test_runs_after_it():
            pass
        """))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
