"""Record the reference answers that later runs are checked against.

Usage, from the root of a checkout whose results are trusted:

    python3 perfbench/record.py

Runs one untraced pass of every workload for every seed in
``workloads.SHIPPED_SEEDS`` and writes ``perfbench/reference.json``.  A
pass whose answers fail the invariant checks is not recorded.  Answers
declared seed-free must agree across all seeds and are stored once.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    seeds: dict = {}
    seed_free: dict = {}
    for workload in workloads.WORKLOADS:
        per_seed = {}
        for seed in workloads.SHIPPED_SEEDS:
            inputs = workloads.make_inputs(workload, seed)
            result = run.run_pass(workload, inputs, False, root)
            bad = workloads.check(workload, inputs, result["answers"], result["raised"], {})
            if bad:
                print(f"{workload} seed {seed}: not recorded, failed {bad}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = result["answers"]
            print(f"{workload} seed {seed}: {len(result['answers'])} answers")
        fixed = {}
        for qid in workloads.SEED_FREE[workload]:
            first = per_seed["0"][qid]
            if not all(workloads.matches(a[qid], first) for a in per_seed.values()):
                print(f"{workload}: {qid} is declared seed-free but varies", file=sys.stderr)
                return 1
            fixed[qid] = first
            for answers in per_seed.values():
                del answers[qid]
        seed_free[workload] = fixed
        seeds[workload] = per_seed
    doc = {"float_tolerance": workloads.FLOAT_TOL, "seed_free": seed_free, "seeds": seeds}
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
