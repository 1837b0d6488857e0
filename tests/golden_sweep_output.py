"""Golden CLI output pins: the bytes ``sweep`` and ``report`` print and
write for a fixed pair of inputs.

``tests/data/sweep_output_golden.json`` holds the sweep table and CSV of
a small sweep that shows every column group (arrival rate, fault plan,
resident weights; cold and cache-hit), the table and CSV of a sweep
whose rows pair up across the fast and cyclesim tiers, and ``report``'s
stdout and CSV for an old-format results file whose rows lack the
batch, serving, fleet, fault, resident and tier columns.
``tests/test_cli.py`` asserts the CLI still produces exactly that; a
change that is meant to move the output regenerates the file with::

    PYTHONPATH=src python tests/golden_sweep_output.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "sweep_output_golden.json"

#: Row keys a results file written before the batch, serving, fleet,
#: fault, resident and tier columns existed does not carry.
OLD_FORMAT_MISSING = (
    "batch", "throughput_inf_s", "energy_per_inf_mj",
    "arrival_rate", "p50_latency_ms", "p95_latency_ms", "p99_latency_ms",
    "replicas",
    "fault_plan", "dropped", "retries", "goodput_inf_s",
    "resident_weights", "load_cycles", "tier",
)


def _run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(arg) for arg in argv]) == 0
    return out.getvalue()


def _table(stdout: str) -> str:
    """The sweep table: what ``sweep --quiet`` prints before its stats."""
    return stdout.split("\n\n")[0].strip("\n")


def current_outputs(tmp: Path) -> dict:
    """Every pinned text, produced in the scratch directory ``tmp``."""
    from repro.faults import (
        FaultPlan, ReplicaCrash, RetryPolicy, save_fault_plan,
    )

    save_fault_plan(FaultPlan(
        events=(ReplicaCrash(replica=1, at_cycle=200),),
        retry=RetryPolicy(max_attempts=3, backoff_cycles=10),
    ), tmp / "plan.json")
    sweep = (
        "sweep", "--models", "tiny_mlp", "--strategies", "generic",
        "--input-sizes", "8", "--num-classes", "10", "--preset", "small",
        "--batch", "4", "--arrival-rates", "none,250000", "--replicas", "2",
        "--fault-plans", f"none,{tmp / 'plan.json'}",
        "--resident-modes", "false,true", "--cache-dir", tmp / "cache",
        "--quiet",
    )
    cold = _run(*sweep, "--json", tmp / "all.json", "--csv", tmp / "all.csv")
    warm = _run(*sweep)
    tiers = _run(
        "sweep", "--models", "tiny_mlp", "--strategies", "generic",
        "--input-sizes", "8", "--num-classes", "10", "--preset", "small",
        "--chips", "1,2", "--batch", "4", "--arrival-rates", "none,250000",
        "--tiers", "fast,cyclesim", "--no-cache", "--quiet",
        "--csv", tmp / "tiers.csv",
    )

    payload = json.loads((tmp / "all.json").read_text())
    del payload["stats"]  # wall time
    for row in payload["points"]:
        for key in OLD_FORMAT_MISSING:
            del row[key]
    (tmp / "old.json").write_text(json.dumps(payload))
    report = _run(
        "report", tmp / "old.json", "--best", "energy_mj", "--top", "3",
        "--pareto", "--csv", tmp / "old.csv",
    )
    return {
        "sweep_table": _table(cold),
        "sweep_table_cached": _table(warm),
        "sweep_csv": (tmp / "all.csv").read_bytes().decode(),
        "sweep_tiers_table": _table(tiers),
        "sweep_tiers_csv": (tmp / "tiers.csv").read_bytes().decode(),
        "report_stdout": report.replace(str(tmp / "old.csv"), "old.csv"),
        "report_csv": (tmp / "old.csv").read_bytes().decode(),
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        outputs = current_outputs(Path(scratch))
    GOLDEN_PATH.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
