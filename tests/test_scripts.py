"""The scripts in scripts/ run at small size, exit 0 and print their headline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, headline", [
    ("run_dimension_suite.py", ["--fs-qh-depth", "2", "--fs-cantor-depth", "2"],
     "set                    n    dim_E    dim_H        targets   band    time"),
    ("run_density_panels.py", ["--level", "3"], "ex1 fixed-fraction rho=r/8: min ratio "),
    ("run_sandwich_audit.py", ["--samples", "2000"], "inner inclusion:   0 violations / "),
], ids=["dimension-suite", "density-panels", "sandwich-audit"])
def test_script_runs(script, args, headline):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                  if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(headline)
