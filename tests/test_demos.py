"""Smoke test: every demo script runs to completion and prints something,
and the README's quick tour prints what it shows."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demos write relative paths (06 creates ./figure_data/), so run in tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_examples():
    # a closing code fence would read as expected output of the last example
    text = re.sub(r"^```.*$", "", (ROOT / "README.md").read_text(), flags=re.M)
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", "README.md", 0)
    result = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE).run(test)
    assert result.attempted > 0
    assert result.failed == 0
