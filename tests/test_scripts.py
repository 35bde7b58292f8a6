"""The scripts in scripts/ run at small size, exit 0 and print their headline."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PANELS = ["ex1 fixed-fraction rho=r/8: min ratio ", "ex1 shrinking rho=r^1.5:   min ratio ",
          "ex2 quadratic rho=Mr^2:    min ratio ", "tseg linear rho=r/4:       max ratio "]


@pytest.mark.parametrize("script, args, headline", [
    ("run_dimension_suite.py", ["--fs-qh-depth", "2", "--fs-cantor-depth", "2"],
     "set                    n    dim_E    dim_H        targets   band    time"),
    ("run_density_panels.py", ["--level", "3"], PANELS[0]),
    ("run_density_panels.py", ["--level", "3", "--M", "8"], PANELS[0]),
    ("run_sandwich_audit.py", ["--samples", "2000"], "inner inclusion:   0 violations / "),
], ids=["dimension-suite", "density-panels", "density-panels-M8", "sandwich-audit"])
def test_script_runs(script, args, headline):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                  if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(headline)
    if script == "run_density_panels.py":
        # each panel line ends with how many of its radii are resolved
        lines = proc.stdout.splitlines()
        assert len(lines) == len(PANELS)
        for line, prefix in zip(lines, PANELS):
            assert line.startswith(prefix)
            k, n = map(int, re.fullmatch(r".*; resolved radii (\d+)/(\d+)", line).groups())
            assert 0 <= k <= n > 0
        # on the t-axis segment every band is far below the ratio
        assert lines[-1].endswith("; resolved radii 9/9")


@pytest.mark.parametrize("correct", [True, False], ids=["correct", "wrong-output"])
def test_bench_writes_no_record_of_a_wrong_output(tmp_path, monkeypatch, correct):
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "run", lambda w, t: {
        "record": {}, "result": {"correct": correct or (w, t) != ("density", 1)}})
    monkeypatch.setattr(sys, "argv", ["bench.py", "--tag", "t"])
    if correct:
        bench.main()
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_t.json"]
    else:
        with pytest.raises(SystemExit) as exc:
            bench.main()
        assert "density.trace1" in str(exc.value.code)
        assert not any(tmp_path.iterdir())


def test_bench_pairs_smoke():
    # one pair of zero-second density runs: HEAD exported against the working tree
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "HEAD",
                           "--workload", "density", "--pairs", "1", "--seconds", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [["pair", "1", "rev"], ["pair", "1", "tree"]]
    assert all("correct=True" in line for line in lines[:2])
    assert lines[2] == "density seed 0: HEAD against the working tree, 1 pairs of 0 s runs"
    assert lines[3].split() == ["metric", "rev", "median", "tree", "median", "rev", "q1", "rev",
                                "q3", "wins"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[4:]}
    assert set(rows) == {"wall_s", "ops_per_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac"}
    assert all(len(row) == 5 and row[-1] in ("0/1", "1/1") for row in rows.values())
    assert rows["ok_frac"][:2] == ["1", "1"]
