"""The benchmark harness runs end to end on short workloads."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload: str) -> dict:
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_bench_series_long_smoke():
    result = run_bench("series-long")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_bench_spectrum_mid_smoke():
    # Every spectrum report must pass against the oracle, on a disconnected
    # input too, so a wrong oracle fails here.
    result = run_bench("spectrum-mid")
    assert result["correct"] is True
    assert result["failed"] == 0
