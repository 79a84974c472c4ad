"""The benchmark's own self-test, run so that a change to ``fada`` that drops
a name the benchmark calls or patches fails here rather than in a benchmark
run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout.splitlines()
