"""Run one workload at several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mc-k5 --seeds 1 2 3 4 5 --seconds 25

Run from the repository root. For each metric it prints the median of the
per-run values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median. Every run's
result line is appended to ``--log`` so that two commits can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", default=os.path.join(".perfbench-out", "spread.jsonl"))
    args = ap.parse_args()
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(args.log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed ({result['failed']}/{result['attempted']} "
                  "checks failed)", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{args.workload} {name}: median {med:.6g}, quartile spread "
                  f"{(q3 - q1) / med:.1%} of median over {len(vals)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
