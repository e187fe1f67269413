"""Smoke test: every narrative demo, and the README's quick start, runs to
completion against the source tree."""

import re
from pathlib import Path

import pytest

from test_golden import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = run_python(tmp_path, str(demo))
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    quick_start = readme[readme.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    done = run_python(tmp_path, "-c", block)
    assert done.returncode == 0, done.stderr
    # the block's comments promise these printed values
    lines = done.stdout.decode().splitlines()
    assert lines[0].endswith(" Verdict.ANTICOMMUTE") and lines[1:] == ["True", "True"]
