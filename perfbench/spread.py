"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload shooting --runs 10 --seconds 12

Runs perfbench/run.py once per seed (1..runs, or from --first-seed), one
run at a time, and prints for every metric the median and the distance
between the first and third quartile as a share of the median, the figure
BENCHMARK.json's bounds are compared against.  Raw host.wall_s is printed
beside wall_ref, to show what the host calibration removes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from statistics import quantiles

_NOTE = re.compile(r"^(host\.wall_s|host\.ref_ms)\s+(\S+)")


def spread(values):
    q1, q2, q3 = quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args()
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run.py")
    series = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for line in lines:
            m = _NOTE.match(line)
            if m:
                row[m.group(1)] = float(m.group(2))
        print(f"seed {seed}: exit {proc.returncode} " + " ".join(
            f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            series.setdefault(k, []).append(v)
    print(f"{'metric':16s} {'median':>12s} {'IQR/median':>11s}")
    for k, vs in series.items():
        med, rel = spread(vs)
        print(f"{k:16s} {med:12.6g} {rel:11.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
