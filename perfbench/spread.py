#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against the bounds.

Usage (from the repository root):

    python3 perfbench/spread.py <workload> [<workload> ...] [--runs N] [--first-seed S]

Runs `perfbench/run.py --trace 0` once per seed (seeds S .. S+N-1,
default 1 .. 10) for each workload, then prints, per end-to-end metric of
BENCHMARK.json, the median, the quartiles (`statistics.quantiles(n=4)`),
the interquartile distance as a share of the median, and that share
against the metric's bound. Exits 1 if any spread exceeds its bound, or
if any run was incorrect.
"""

import json
import statistics
import subprocess
import sys


def main() -> int:
    args = sys.argv[1:]
    runs, first_seed, workloads = 10, 1, []
    while args:
        arg = args.pop(0)
        if arg == "--runs":
            runs = int(args.pop(0))
        elif arg == "--first-seed":
            first_seed = int(args.pop(0))
        else:
            workloads.append(arg)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(first_seed, first_seed + runs):
            command = ["python3", *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(command, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or out.returncode:
                print(f"{workload} seed {seed}: incorrect run: {result}", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({runs} runs)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            verdict = "ok" if share <= bounds[name] / 3 else ("within bound" if share <= bounds[name] else "TOO WIDE")
            if share > bounds[name]:
                ok = False
            print(f"  {name:14s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  "
                  f"spread {share:7.2%} (bound {bounds[name]:.0%}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
