#!/usr/bin/env python3
"""Record the reference outputs in perfbench/references.json.

    python3 perfbench/make_references.py

Run once, on the commit that defined the benchmark, at the default seed and
full size. The references are the contract later changes are checked
against: never run this again to absorb a change in the outputs.
"""

import json
import sys

import run


def main() -> int:
    refs = {}
    for workload in ("nets", "density", "pipeline"):
        result, record = run.run(workload, seed=0, seconds=0, trace=False)
        if record["problems"]:
            print("\n".join(record["problems"]), file=sys.stderr)
            return 1
        refs[workload] = record["observed"]
        print(f"{workload}: {len(refs[workload])} groups, {result['attempted']} operations")
    run.REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
