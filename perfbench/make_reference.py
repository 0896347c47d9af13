"""Records the reference facts that run.py compares results against.

    python3 perfbench/make_reference.py --workload orbit-deep --seeds 0-39

Run it from the root of a checkout whose ffdyn is trusted. For each seed it
runs the batch once, refuses to record a seed on which any task fails the
checks that need no reference, and merges the facts of checks.facts() into
perfbench/reference/<workload>.json. Only facts are stored, never bytes or
timings, so later changes that keep the mathematics keep passing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import checks
import run
import workloads


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", required=True, help="a seed or a range like 0-39")
    args = ap.parse_args()
    path = os.path.join(run.HERE, "reference", f"{args.workload}.json")
    with open(path) as fh:
        ref = json.load(fh)
    for seed in _seeds(args.seeds):
        tasks = workloads.generate(args.workload, seed)
        r = run.Run(os.getcwd())
        results = run.run_pass(r, tasks)["results"]
        seed_facts = {}
        for task in tasks:
            result = results.get(task["id"], {"code": "timeout"})
            problems = checks.check(task, result)
            if problems:
                print(f"seed {seed} task {task['id']}: {problems}", file=sys.stderr)
                return 1
            seed_facts[str(task["id"])] = checks.facts(task, result)
        ref["seeds"][str(seed)] = seed_facts
        print(f"seed {seed}: {len(seed_facts)} tasks recorded", flush=True)
    ref["seeds"] = dict(sorted(ref["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
