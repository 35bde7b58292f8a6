"""The benchmark harness still runs against the library: perfbench traces
functions by name and calls constructions and probes with fixed signatures, so
a renamed function or a changed signature shows up here, not only in a full
benchmark run. The self-test runs every workload at tiny size (a few seconds).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
