#!/usr/bin/env python3
"""Compare two sets of benchmark results: one row per (metric, workload).

    python3 benchmarks/perf/compare.py A B

``A`` (the base) and ``B`` are ``run.py --out`` files, or directories of
them whose runs are pooled (ten alternating runs per side is what a
perf claim needs).  Each row gives both medians, B as a ratio **of A**,
the regression bound from ``BENCHMARK.json`` and a verdict:

- ``better`` / ``worse``: B's median is beyond the bound on that side;
- ``same``: within the bound;
- ``unresolved``: the two quartile ranges overlap by more than the
  bound, so the runs cannot tell;
- simulated statistics (``sim_*``, ``fast_cycle_abs_log_err``) repeat
  exactly at a fixed seed, so at equal seeds any difference is
  ``better`` or ``worse`` and nothing is ``unresolved``.

Per-layer metrics have no bound: their rows show the ratio only.
Exits 1 on any ``worse`` row or a higher ``failed_share``.
"""

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import BETTER, EXACT, quartiles  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no result files in {path}")
    return [result for file in files
            for result in json.loads(file.read_text())["results"]]


def pooled(results: List[dict]) -> Dict[Key, dict]:
    """Per (workload, metric): median and quartiles over the runs; one
    run alone falls back on its own per-iteration quartiles."""
    runs: Dict[Key, List[dict]] = {}
    for result in results:
        for name, entry in result["metrics"].items():
            runs.setdefault((result["workload"], name), []).append(
                dict(entry, seed=result["seed"]))
    out = {}
    for key, entries in runs.items():
        if len(entries) == 1:
            only = entries[0]
            out[key] = {"q1": only["q1"], "median": only["value"],
                        "q3": only["q3"], "runs": 1}
        else:
            q1, median, q3 = quartiles([e["value"] for e in entries])
            out[key] = {"q1": q1, "median": median, "q3": q3,
                        "runs": len(entries)}
        out[key]["seeds"] = sorted(e["seed"] for e in entries)
    return out


def failed_share(results: List[dict]) -> Dict[str, float]:
    attempted: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    for result in results:
        name = result["workload"]
        attempted[name] = attempted.get(name, 0) + result["attempted"]
        failed[name] = failed.get(name, 0) + result["failed"]
    return {name: failed[name] / attempted[name] for name in attempted}


def verdict(name: str, a: dict, b: dict, bound) -> str:
    base = abs(a["median"])
    if base == 0:
        return "same" if b["median"] == 0 else "-"
    worse_by = (b["median"] - a["median"]) / base
    if BETTER[name] == "higher":
        worse_by = -worse_by
    if name in EXACT and a["seeds"] == b["seeds"]:
        return ("same" if worse_by == 0
                else "worse" if worse_by > 0 else "better")
    if bound is None:
        return "-"
    overlap = max(0.0, min(a["q3"], b["q3"]) - max(a["q1"], b["q1"])) / base
    if overlap > bound:
        return "unresolved"
    return ("worse" if worse_by > bound
            else "better" if worse_by < -bound else "same")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results_a, results_b = load(Path(argv[0])), load(Path(argv[1]))
    a, b = pooled(results_a), pooled(results_b)

    print(f"{'workload':<14s}{'metric':<40s}{'A median':>14s}{'B median':>14s}"
          f"{'B / A':>11s}{'bound':>8s}  verdict")
    bad = 0
    for key in a:
        if key not in b:
            continue
        workload, name = key
        bound = bounds.get(name)
        decided = verdict(name, a[key], b[key], bound)
        bad += decided == "worse"
        ratio = (f"{b[key]['median'] / a[key]['median']:.4f}x"
                 if a[key]["median"] else "-")
        print(f"{workload:<14s}{name:<40s}{a[key]['median']:>14.6g}"
              f"{b[key]['median']:>14.6g}{ratio:>11s}"
              f"{'' if bound is None else format(bound, '.0%'):>8s}  {decided}")
    shares_a, shares_b = failed_share(results_a), failed_share(results_b)
    for workload, share in shares_a.items():
        after = shares_b.get(workload, share)
        higher = after > share
        bad += higher
        print(f"{workload:<14s}{'failed_share':<40s}{share:>14.6g}"
              f"{after:>14.6g}{'':>11s}{'0%':>8s}  "
              f"{'worse' if higher else 'same'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
