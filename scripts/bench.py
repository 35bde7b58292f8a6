#!/usr/bin/env python3
"""Record the benchmark at the checked-out commit into BENCH_<tag>.json.

    python3 scripts/bench.py --tag pr-name

Runs the frozen ``perfbench/run.py`` on ``nets``, ``density`` and
``pipeline`` at seed 0, once with ``--trace 0`` and once with ``--trace 1``,
and keeps each run's record line and result line. The file is a record of
one commit, not a proof of a gain: host speed drifts, so a claimed gain
still needs alternating parent/change pairs. A run that reports
``correct: false`` times a wrong output, so the script then exits non-zero,
naming the run, and writes no file.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("nets", "density", "pipeline")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "30", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    record, result = out.stdout.strip().splitlines()[-2:]
    return {"record": json.loads(record)["record"], "result": json.loads(result)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    args = ap.parse_args()

    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "heislab").glob("*.py")))
    runs = {f"{w}.trace{t}": run(w, t) for w in WORKLOADS for t in (0, 1)}
    wrong = [name for name, r in runs.items() if r["result"].get("correct") is not True]
    if wrong:
        sys.exit(f"not recorded: perfbench reports correct: false for {', '.join(wrong)}")
    out = {"tag": args.tag, "commit": git.stdout.strip(), "src_heislab_lines": src_lines,
           "seed": 0, "runs": runs}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
