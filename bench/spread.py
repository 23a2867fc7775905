"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload tournament --seeds 1 2 3 4 5

Runs bench/run.py once per seed (untraced, for run_seconds from
BENCHMARK.json) and prints, per metric, the median and the interquartile
range as a share of the median, computed with
statistics.quantiles(values, n=4). Compare each share with the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
              flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload:12s} {name:14s} median={med:.4f} "
              f"iqr/median={(q3 - q1) / med:.4f} bound={bounds[name]}")


if __name__ == "__main__":
    sys.exit(main())
