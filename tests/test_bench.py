"""The benchmark harness runs end to end on a short series workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_series_long_smoke():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series-long", "--seed", "0",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
