#!/usr/bin/env python3
"""Alternating benchmark pairs: a commit against the working tree.

    python3 scripts/bench_pairs.py HEAD --workload nets --pairs 10 --seed 0 --seconds 10

Exports REV's committed files into a temporary directory and runs the frozen
``perfbench/run.py --trace 0`` there and in the working tree, once each per
pair, with the side that runs first alternating from pair to pair. Prints
every run's end-to-end metrics, then per metric REV's and the working tree's
medians, REV's quartiles and in how many pairs the working tree was better.
A claimed gain needs the working tree better in at least nine of ten pairs
and a gap between the medians wider than REV's interquartile range; host
speed drifts, so only pairs run side by side can show one.

REV is exported with ``git archive``, so it holds exactly the committed files
and leaves nothing in the repository. A run that reports ``correct: false``
makes the script exit non-zero after the summary.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """Write REV's committed files under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    # the "data" filter exists from Python 3.10.12 and 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of the checkout at root: its last line."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(metrics: list[dict], runs: list[tuple[dict, dict]]) -> list[str]:
    """Per metric: both medians, REV's quartiles and the working tree's wins."""
    lines = [f"{'metric':<12} {'rev median':>12} {'tree median':>12} {'rev q1':>12} "
             f"{'rev q3':>12}  wins"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(r["metrics"][name]["value"], t["metrics"][name]["value"]) for r, t in runs
                 if name in r.get("metrics", {}) and name in t.get("metrics", {})]
        if not pairs:
            continue
        rev, tree = [p[0] for p in pairs], [p[1] for p in pairs]
        wins = sum(t < r if lower else t > r for r, t in pairs)
        q1, q3 = quartiles(rev)
        medians = statistics.median(rev), statistics.median(tree)
        lines.append(f"{name:<12} {medians[0]:>12.6g} {medians[1]:>12.6g} {q1:>12.6g} "
                     f"{q3:>12.6g}  {wins}/{len(pairs)}")
    return lines


def describe(result: dict) -> str:
    values = " ".join(f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items())
    return f"correct={result.get('correct')} {values}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", metavar="REV", help="the commit to compare the working tree with")
    ap.add_argument("--workload", required=True, choices=["nets", "density", "pipeline"])
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        rev_root = Path(tmp)
        export(args.rev, rev_root)
        for i in range(args.pairs):
            sides = [("rev", rev_root), ("tree", ROOT)]
            result = {}
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                result[side] = run(root, args.workload, args.seed, args.seconds)
                print(f"pair {i + 1} {side:<4} {describe(result[side])}", flush=True)
            runs.append((result["rev"], result["tree"]))
    print(f"{args.workload} seed {args.seed}: {args.rev} against the working tree, "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(summary(metrics, runs)))
    wrong = sum(r.get("correct") is not True for pair in runs for r in pair)
    if wrong:
        print(f"{wrong} runs report correct: false", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
