#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver takes it.

    python3 benchmarks/perf/spread.py [--runs 10] [--workload NAME ...]

Runs ``run.py --trace 0`` once per seed (1..N) on each workload and
prints, per metric, the median over the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as
a share of that median, next to the bound ``BENCHMARK.json`` states.  A
bound is only written once the spread sits below a third of it; this
script is how that is checked, and how it is re-checked on a new host.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", metavar="FILE",
                        help="write the medians and spreads as JSON")
    args = parser.parse_args()

    worst = 0.0
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        start = time.perf_counter()
        runs = [one_run(workload, seed, spec["run_seconds"])
                for seed in range(1, args.runs + 1)]
        per_run = (time.perf_counter() - start) / args.runs
        failed = sum(run["failed"] for run in runs)
        print(f"\n{workload}: {args.runs} runs, {per_run:.1f} s each, "
              f"{failed} failed checks")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            summary.setdefault(workload, {})[name] = {
                "median": median, "spread": spread, "runs": args.runs}
            print(f"  {name:<14s} median {median:>14.6g}  spread "
                  f"{spread:7.2%}  bound {bound:.0%}  "
                  f"({spread / bound:.2f} of it)")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nworst spread/bound outside setup_s: {worst:.2f} "
          f"(accepted below 1, steady below 0.33)")
    return 0 if worst < 1 else 1


if __name__ == "__main__":
    sys.exit(main())
