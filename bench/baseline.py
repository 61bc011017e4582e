"""Run every workload over several seeds and summarise each metric as JSON.

From the repository root:

    python3 bench/baseline.py --runs 10 --seconds 30 > bench/baseline.json

Each end-to-end metric gets its median, quartiles and spread (quartile
distance over the median, as `statistics.quantiles(values, n=4)` gives
them) over `--runs` untraced runs with seeds 1..runs.  One traced run per
workload (seed 1) adds the per-layer metrics.  Runs go one at a time, so
they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("verify-all", "ring-products", "report-mix")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    out = {"runs": args.runs, "seconds": args.seconds,
           "python": platform.python_version(), "cpus": os.cpu_count(),
           "machine": platform.machine(), "workloads": {}}
    for workload in WORKLOADS:
        seeds = list(range(1, args.runs + 1))
        results = [one_run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = one_run(workload, 1, args.seconds, 1)
        units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
        out["workloads"][workload] = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in results],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "end_to_end": {
                name: dict(unit=unit, **summary(
                    [r["metrics"][name]["value"] for r in results]))
                for name, unit in units.items()},
            "per_layer": {"seed": 1, "attempted": traced["attempted"],
                          "metrics": traced["metrics"]},
        }
        print("%s done" % workload, file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
