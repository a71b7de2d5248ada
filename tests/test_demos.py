"""Every demo script runs to completion, with RuntimeWarnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(demo)]
    result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
