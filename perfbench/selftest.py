#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

It checks that:

* every workload, untraced and traced, emits exactly the metrics that
  BENCHMARK.json names;
* a run checked against references recorded from an identical run fails
  nothing, under the default seed and under another seed;
* a corrupted reference digest makes operations fail (error_frac > 0);
* run.py exits nonzero, printing no result, without the heislab sources.

Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

def corrupt(refs: dict) -> dict:
    """A copy of refs with the first digest found flipped in its last hex digit."""
    bad = copy.deepcopy(refs)

    def flip(node):
        if isinstance(node, str) and len(node) == 64:
            return node[:-1] + ("0" if node[-1] != "0" else "1"), True
        if isinstance(node, dict):
            for k, v in node.items():
                node[k], done = flip(v)
                if done:
                    return node, True
        if isinstance(node, list):
            for i, v in enumerate(node):
                node[i], done = flip(v)
                if done:
                    return node, True
        return node, False

    bad, done = flip(bad)
    if not done:
        raise ValueError("no digest to corrupt")
    return bad


def without_sources_exits_nonzero() -> list[str]:
    """Copy BENCHMARK.json and the benchmark alone into a temporary directory
    inside the checkout and run it there."""
    run.TMP_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.TMP_ROOT))
    try:
        shutil.copy(run.BENCHMARK, bare / run.BENCHMARK.name)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "nets", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.TMP_ROOT.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    end_to_end, per_layer = set(run.units("end_to_end")), set(run.units("per_layer"))
    failures: list[str] = []
    for workload in ("nets", "density", "pipeline"):
        _, record = run.run(workload, 0, 0, False, size="tiny")
        refs = record["observed"]
        for seed in (0, 1):
            for trace, want in ((False, end_to_end), (True, per_layer)):
                result, record = run.run(workload, seed, 0, trace, size="tiny", refs=refs)
                tag = f"{workload} seed {seed} trace {int(trace)}"
                got = set(result["metrics"])
                if got != want:
                    failures.append(f"{tag}: missing {sorted(want - got)}, "
                                    f"extra {sorted(got - want)}")
                if result["failed"] or not result["correct"]:
                    failures.append(f"{tag}: {result['failed']} failed: {record['problems'][:3]}")
        result, _ = run.run(workload, 0, 0, False, size="tiny", refs=corrupt(refs))
        error_frac = 1.0 - result["metrics"]["ok_frac"]["value"]
        if not (error_frac > 0 and result["failed"] > 0 and not result["correct"]):
            failures.append(f"{workload}: corrupted digest left error_frac at {error_frac}")
        print(f"{workload}: ok" if not failures else f"{workload}: {len(failures)} failures so far")
    failures += without_sources_exits_nonzero()
    for f in failures:
        print("FAIL", f)
    print("selftest passed" if not failures else f"selftest failed ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
