"""Smoke test of the benchmark's traced run.

``bench/tracing.py`` wraps package functions and reads their return values,
so a change to what a wrapped function returns breaks every traced spec
without breaking any library test.  One short traced ``reference`` run
catches that.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_reference_run():
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["muntz.basis_batch.total_s"]["value"] > 0.0
    assert metrics["trace.accounted_share"]["value"] >= 0.99
