"""Every demo script, and README's library quick start, runs to completion with
RuntimeWarnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def quick_start() -> str:
    """The Python block under README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


# Each case: the interpreter arguments after the warning filter, and the first stdout line, if pinned.
CASES = [pytest.param([str(demo)], None, id=demo.name) for demo in DEMOS]
CASES.append(pytest.param(["-c", quick_start()], "pass", id="README-quick-start"))


@pytest.mark.parametrize("args, first_line", CASES)
def test_demo_exits_zero(args, first_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-W", "error::RuntimeWarning", *args]
    result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if first_line is not None:
        assert result.stdout.splitlines()[0] == first_line
