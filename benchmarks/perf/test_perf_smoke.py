"""Tier-1 smoke test of the benchmark harness (toy scale, ~10 s).

The only ``test_*.py`` under ``benchmarks/perf``: the measured run
(``run.py`` without ``--smoke``) never executes under pytest.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_run_emits_every_workload_and_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(out.read_text())["results"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "e2e": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "trace": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    assert declared["e2e"] == [(n, u) for n, u, _ in END_TO_END]
    assert declared["trace"] == [(n, u) for n, u, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    seen = {(r["workload"], r["mode"]) for r in results}
    assert seen == {(w, mode) for w in WORKLOADS for mode in declared}
    for result in results:
        where = (result["workload"], result["mode"])
        assert result["attempted"] >= 1 and result["failed"] == 0, where
        emitted = [(name, entry["unit"])
                   for name, entry in result["metrics"].items()]
        assert emitted == declared[result["mode"]], where
        for name, entry in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert isinstance(entry["value"], (int, float)), (where, name)
            assert entry["n"] >= 1, (where, name)

    # The driver reads the last line of a single-workload run; the smoke
    # run prints one such line per (workload, pass).
    lines = proc.stdout.strip().splitlines()[-len(results):]
    for line, result in zip(lines, results):
        parsed = json.loads(line)
        assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
        assert parsed["correct"] is True
        assert list(parsed["metrics"]) == list(result["metrics"])
