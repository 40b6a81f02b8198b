#!/usr/bin/env python3
"""Record a baseline: one untraced and one traced run of every workload.

    python3 erpibench/baseline.py [--seed N] [--seconds S] [--out FILE]

Runs erpibench/run.py for each workload with --trace 0 and --trace 1 and
writes the parsed results, with the machine's core count, to FILE (default
erpibench/baseline/baseline.json). Exits non-zero if any run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"baseline: {' '.join(cmd)} failed with exit code {done.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline", "baseline.json"))
    args = parser.parse_args()
    doc = {"seed": args.seed, "seconds": args.seconds, "cores": os.cpu_count(), "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        doc["workloads"][workload] = {
            "untraced": run(workload, args.seed, args.seconds, 0),
            "traced": run(workload, args.seed, args.seconds, 1),
        }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as out:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"baseline written to {args.out}")


if __name__ == "__main__":
    main()
