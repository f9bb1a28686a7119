"""Write a BENCH_<tag>.json of the benchmark's metrics, median and quartiles.

For each workload, runs perfbench/run.py untraced for BENCHMARK.json's
run_seconds once per seed, five seeds (one run at a time, from the
repository root, so the package under test is ./src), parses the JSON object
on the last line of each run, and records for every metric its median, first
and third quartile and sample count, with the unit, the runs' exit codes and
failed checks, the host and the commit.  The commit is HEAD with a dirty
flag, set by uncommitted changes to tracked files only (an untracked earlier
BENCH_*.json leaves it clear), and the git tree hash of the src/ that ran: on
a tree with uncommitted changes that hash equals `git rev-parse <commit>:src`
of the commit that records them.

Usage, from the repository root:
    python3 scripts/bench.py --tag 7 [--first-seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _summary(values):
    q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seeds, seconds: float) -> dict:
    values, units, exits, failed, attempted = {}, {}, [], 0, 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"{name} seed {seed}: no output, exit "
                             f"{proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        exits.append(proc.returncode)
        failed += result["failed"]
        attempted += result["attempted"]
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
        print(f"{name} seed {seed}: exit {proc.returncode}", flush=True)
    return {"seeds": list(seeds), "exit_codes": exits,
            "attempted": attempted, "failed": failed,
            "metrics": {key: {"unit": units[key], **_summary(vs)}
                        for key, vs in values.items()}}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True,
                    help="file name suffix: writes BENCH_<tag>.json")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    seeds = range(args.first_seed, args.first_seed + 5)
    seconds = bench["run_seconds"]
    # `git stash create` snapshots tracked changes without touching the
    # tree; it prints nothing when there are none
    snapshot = _git("stash", "create") or "HEAD"
    payload = {
        "commit": {"head": _git("rev-parse", "HEAD"),
                   "dirty": bool(_git("status", "--porcelain",
                                      "--untracked-files=no")),
                   "src_tree": _git("rev-parse", f"{snapshot}:src")},
        "host": {"platform": platform.platform(),
                 "cpu_count": os.cpu_count()},
        "command": bench["command"], "seconds": seconds, "trace": 0,
        "workloads": {w["name"]: run_workload(w["name"], seeds, seconds)
                      for w in bench["workloads"]},
    }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
