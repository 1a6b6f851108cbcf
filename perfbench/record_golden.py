"""Record the result digests run.py checks every op against.

    python3 perfbench/record_golden.py 0 1 2 ...

For each seed, runs one cold sweep of each sweep workload and one report
fill, and stores the cell digests, and the report body and stored-cells
digests, in ``perfbench/golden.json``.  Re-record only when a change is meant to
alter simulated results or the serialized result layout.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, run_child
import spec

GOLDEN = os.path.join(HERE, "golden.json")


def record(seed: int) -> dict:
    entry = {}
    for wl in spec.WORKLOADS.values():
        tag = f"golden-{wl.name}-{seed}"
        if wl.kind == "sweep":
            result = run_child("sweep", wl, seed, tag)
            cells = len(wl.workloads) * 4
            if result["error"] or len(result["digests"]) != cells:
                raise SystemExit(f"{wl.name} seed {seed}: {result['error']}")
            entry[wl.name] = dict(sorted(result["digests"].items()))
        else:
            result = run_child("report", wl, seed, tag, ops=1)
            if result["failed"]:
                raise SystemExit(f"{wl.name} seed {seed}: {result['errors']}")
            entry[wl.name] = result["fill"]
    return entry


def main(argv) -> None:
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    for seed in (int(a) for a in argv):
        golden[str(seed)] = record(seed)
        with open(GOLDEN, "w") as fh:
            json.dump(dict(sorted(golden.items(), key=lambda kv: int(kv[0]))),
                      fh, indent=1)
            fh.write("\n")
        print(f"seed {seed} recorded", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
