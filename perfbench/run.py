#!/usr/bin/env python3
"""heislab benchmark: one workload per process, run against the checkout's
``src/heislab`` without installing it.

    python3 perfbench/run.py --workload nets --seed 0 --seconds 10 --trace 0

The body is repeated while another run of it is expected to end within
``--seconds`` of body time (it runs at least once). With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of one traced body run after the untraced
ones. The line before it is a record of the environment, input sizes and
every measured sample. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
BENCHMARK = ROOT / "BENCHMARK.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

# HEISLAB_THREADS, so that net_counts runs its worker pool as it does by
# default on a 2-CPU host; capped at the CPUs this process may use
THREADS = 2
# Set-up is timed in rounds spread over the run, so that setup_s samples the
# host over the same stretch of time as the bodies: SETUP_REPEATS times before
# the first body, then after each body for SETUP_SHARE of that body's wall
# time, and at least once. setup_s is the median of all of them.
SETUP_REPEATS = 3
SETUP_SHARE = 0.1

HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, from <sys/personality.h>


def units(section: str) -> dict[str, str]:
    """Unit of each metric of a BENCHMARK.json section."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def pin_environment() -> int:
    """Fix the thread counts before numpy loads; returns HEISLAB_THREADS."""
    threads = max(1, min(THREADS, len(os.sched_getaffinity(0))))
    os.environ["HEISLAB_THREADS"] = str(threads)
    # numpy's BLAS is not on any measured path; keep its pool from competing
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return threads


def no_address_randomization() -> None:
    """Ask that programs this process executes get the same address-space
    layout every time. Under random layouts the density set-up time fell into
    two modes, about 0.33 s and 0.50 s, one per process, so the median of
    ten runs depended on how many landed in each. Where the kernel refuses,
    the layout stays random."""
    import ctypes
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def fixed_address_layout() -> bool | None:
    try:
        return bool(int(Path("/proc/self/personality").read_text(), 16) & ADDR_NO_RANDOMIZE)
    except (OSError, ValueError):
        return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cache_bytes(level: int) -> int | None:
    """Size of the first CPU's data or unified cache at ``level``, as Linux
    reports it; None where it does not."""
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() in ("Data", "Unified")):
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * scale[size[-1]] if size[-1] in scale else int(size)
        except (OSError, ValueError):
            return None
    return None


def environment(threads: int) -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "HEISLAB_THREADS": threads,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "fixed_address_layout": fixed_address_layout(),
        "git_commit": git_commit(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "machine": platform.machine(),
    }


class Tally:
    """Attempted and failed operations over every body run, with the reasons."""

    def __init__(self, refs: dict | None, seed: int):
        from workloads import DEFAULT_SEED
        self.refs = refs
        self.default = seed == DEFAULT_SEED
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.observed: dict = {}

    def add(self, groups) -> None:
        for g in groups:
            self.observed[g.name] = g.value
            problems = list(g.problems)
            if self.refs is not None and (self.default or g.fixed):
                want = self.refs.get(g.name)
                if want != g.value:
                    problems.append(f"{g.name}: {g.value!r} differs from reference {want!r}")
            self.attempted += g.ops
            if problems:
                self.failed += g.ops
                self.problems.extend(problems)


def set_up(wl, seed: int, setups: list[float], count: int, seconds: float):
    """Build the inputs at least ``count`` times and for at least ``seconds``,
    appending each set-up time to ``setups``; returns the last input set."""
    spent, n, inputs = 0.0, 0, None
    while n < count or spent < seconds:
        inputs = None  # one input set alive at a time
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        setups.append(time.perf_counter() - t0)
        spent, n = spent + setups[-1], n + 1
    return inputs


def measure_body(wl, inputs, tally: Tally, trace: bool):
    """Run the body once in its own temporary directory and check its outputs.

    Returns (wall, cpu, instrument); only the body itself is timed."""
    from instrument import Instrument
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        with Instrument(trace=trace, expected_clouds=wl.expected_clouds(inputs)) as inst:
            gc.collect()
            inst.body_start = len(inst.spans)
            c0, t0 = time.process_time(), time.perf_counter()
            out = wl.body(inputs, workdir)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        tally.add(wl.groups(inputs, out, inst, workdir))
        return wall, cpu, inst
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        refs: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, record)."""
    threads = pin_environment()
    from instrument import Instrument, layer_metrics
    from workloads import NET_TAGS, WORKLOADS

    wl = WORKLOADS[workload](size)
    tally = Tally(refs, seed)
    setups: list[float] = []
    inputs = set_up(wl, seed, setups, SETUP_REPEATS if not trace else 1, 0.0)

    # bodies are run while one more is expected to end within --seconds
    walls, cpus = [], []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        wall, cpu, _ = measure_body(wl, inputs, tally, trace=False)
        walls.append(wall)
        cpus.append(cpu)
        if not trace:
            inputs = None  # one input set alive at a time
            inputs = set_up(wl, seed, setups, 1, SETUP_SHARE * wall)
    record = {"workload": workload, "seed": seed, "size": size, "trace": int(trace),
              "env": environment(threads), "setup_s": setups, "wall_s": walls, "cpu_s": cpus}

    if trace:
        # set-up runs once more under the trace, so its builds are counted
        with Instrument(trace=True) as inst:
            wl.setup(seed)
        setup_spans = inst.spans
        wall, _, inst = measure_body(wl, inputs, tally, trace=True)
        offset = len(setup_spans)
        for s in inst.spans:
            if s.parent is not None:
                s.parent += offset
        values = layer_metrics(setup_spans + inst.spans, offset + inst.body_start, wall,
                               NET_TAGS)
        values["trace.overhead_s"] = wall - statistics.median(walls)
        record["traced_wall_s"] = wall
    else:
        values = {
            "wall_s": statistics.median(walls),
            "ops_per_s": (tally.attempted - tally.failed) / sum(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        }
    record["sizes"] = wl.sizes(inputs)
    record["error_frac"] = tally.failed / tally.attempted
    record["problems"] = tally.problems[:20]
    if refs is None:
        record["observed"] = tally.observed
    unit = units("per_layer" if trace else "end_to_end")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()}}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["nets", "density", "pipeline"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "heislab" / "__init__.py").is_file():
        print(f"error: no heislab sources under {SRC}", file=sys.stderr)
        return 2
    for needed in (REFERENCES, BENCHMARK):
        if not needed.is_file():
            print(f"error: missing {needed}", file=sys.stderr)
            return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # one hash seed for every run, so that dict and set layouts, and with
        # them the allocator's fragmentation, repeat from run to run: under
        # random hash seeds the pipeline's peak_rss_mb moved by up to 19%
        # between runs of the same inputs
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        no_address_randomization()
        os.execv(sys.executable, [sys.executable, *sys.argv])
    refs = json.loads(REFERENCES.read_text())[args.workload]
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), refs=refs)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
