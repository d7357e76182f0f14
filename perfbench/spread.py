#!/usr/bin/env python3
"""Repeat run.py over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload certify-moduli --seeds 1-10 --seconds 30

The spread is the distance between the first and third quartiles, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
With ``--json FILE`` the per-run values are written out as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", metavar="FILE")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)
    print(f"{args.workload}: {len(runs)} runs, "
          f"{sum(not r['correct'] for r in runs)} with failures")
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": first["unit"], "values": values}
        print(f"{name:<38} median {median:>12.6g} {first['unit']:<6} "
              f"q1 {q1:>12.6g}  q3 {q3:>12.6g}  spread {spread:7.2%}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seeds": args.seeds, "metrics": summary},
                      handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
