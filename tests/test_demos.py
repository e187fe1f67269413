"""Smoke test: every narrative demo, and the README's quick start, runs to
completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = _run([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    quick_start = readme[readme.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    done = _run(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr
    # the block's comments promise these printed values
    lines = done.stdout.splitlines()
    assert lines[0].endswith(" Verdict.ANTICOMMUTE") and lines[1:] == ["True", "True"]
