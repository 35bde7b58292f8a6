"""The scripts in scripts/ run at small size, exit 0 and print their headline."""

import importlib.util
import math
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
    # a zero-second run holds one body, three set-up rounds before it and at
    # least one after it
    for line in lines[:2]:
        fields = dict(f.split("=") for f in line.split()[3:])
        assert fields["bodies"] == "1" and int(fields["setups"]) >= 4
        assert set(fields) >= {"wall_s", "setup_s"}
    assert lines[2] == "density seed 0: HEAD against the working tree, 1 pairs of 0 s runs"
    assert lines[3].split() == ["metric", "rev", "median", "tree", "median", "rev", "q1", "rev",
                                "q3", "ratio", "wins"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[4:]}
    assert set(rows) == {"wall_s", "ops_per_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac"}
    assert all(len(row) == 6 and row[-1] in ("0/1", "1/1") for row in rows.values())
    # the ratio column is the working tree's value over REV's, here of one pair
    for row in rows.values():
        rev, tree, ratio = float(row[0]), float(row[1]), float(row[4])
        if rev:
            assert ratio == pytest.approx(tree / rev, rel=1e-3)
        else:
            assert math.isnan(ratio)
    assert rows["ok_frac"][:2] == ["1", "1"] and rows["ok_frac"][4] == "1.0000"


def test_bench_pairs_reports_why_a_command_failed():
    # a bad REV ends the script with git's own message and no traceback
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           "no-such-rev", "--workload", "density", "--pairs", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout
    lines = proc.stderr.splitlines()
    assert lines[0] == "git archive --format=tar no-such-rev exited 128:"
    assert "Traceback" not in proc.stderr
    assert any("no-such-rev" in line for line in lines[1:]), proc.stderr


def test_bench_pairs_copies_the_working_tree(tmp_path):
    # tracked files as on disk and untracked ones are copied; ignored files and
    # tracked files deleted from the tree are not
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    tree = tmp_path / "tree"
    (tree / "pkg").mkdir(parents=True)
    subprocess.run(["git", "init", "-q"], cwd=tree, check=True)
    files = {".gitignore": ".perfbench_tmp/\n", "kept.py": "a", "gone.py": "b",
             "pkg/tracked.py": "c"}
    for name, text in files.items():
        (tree / name).write_text(text)
    subprocess.run(["git", "add", "."], cwd=tree, check=True)
    (tree / "gone.py").unlink()
    (tree / "kept.py").write_text("a, edited")
    (tree / "pkg" / "new.py").write_text("d")
    (tree / ".perfbench_tmp").mkdir()
    (tree / ".perfbench_tmp" / "fs.csv").write_text("e")
    dest = tmp_path / "copy"
    bench_pairs.copy_tree(dest, tree)
    got = {p.relative_to(dest).as_posix(): p.read_text() for p in dest.rglob("*") if p.is_file()}
    assert got == {".gitignore": ".perfbench_tmp/\n", "kept.py": "a, edited",
                   "pkg/tracked.py": "c", "pkg/new.py": "d"}
