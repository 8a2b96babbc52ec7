#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed for each
named workload and prints, for every end-to-end metric, the median of the
runs and the distance between the first and third quartile as a share of
that median (`statistics.quantiles(values, n=4)`), next to the metric's
bound.  Run from the repository root:

    python3 perfbench/spread.py --seeds 10 --workloads train-sentiment sweep-ci

Each run's full output is appended to the file given by --log.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload (seeds 1..N)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--log", default=None, help="append every run's output here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    log = open(args.log, "a") if args.log else None
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            if log:
                log.write(f"### {workload} seed {seed} exit {run.returncode}\n{run.stdout}{run.stderr}\n")
                log.flush()
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            print(f"{workload:<16} {name:<22} median {med:<14.6g} spread {spread:7.4f}  bound {bound}  "
                  f"n={len(vals)}", flush=True)


if __name__ == "__main__":
    main()
