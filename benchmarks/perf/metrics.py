"""Names, units and directions of every metric the benchmark emits.

``BENCHMARK.json`` at the repo root repeats these tables (plus the
regression bounds, which are measured, not declared); the smoke test
asserts the two agree, so a metric is renamed in one place or not at
all.  Later issues refer to workloads and metrics by these names.
"""

import statistics
from typing import Dict, List, Sequence, Tuple

#: (name, unit, better).  Every workload reports every one of these
#: from the timed CLI subprocesses (``--trace 0``).  ``failed_share``
#: is carried by the result line's ``failed``/``attempted`` counts
#: instead of a metric, because a metric that is 0 on a healthy run
#: cannot take a relative bound.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "work/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("sim_cycles", "cycles", "lower"),
)

#: Simulated-time statistics that not every workload defines (energy is
#: absent from ``watch`` snapshots, latency percentiles from ``run``),
#: so they ride the ``--trace 1`` pass where "not measured here" is
#: legal.  They repeat exactly at a fixed seed; compare.py holds them
#: to equality.
SIMULATED: Tuple[Tuple[str, str, str], ...] = (
    ("sim_energy_mj", "mJ", "lower"),
    ("fast_cycle_abs_log_err", "ln_ratio", "lower"),
    ("sim_p99_latency_ms", "sim_ms", "lower"),
    ("sim_goodput_inf_s", "sim_inf/s", "higher"),
)

#: One row per layer metric, layer = module under ``src/repro/``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("graph.build_s", "s", "lower"),
    ("graph.operators", "count", "lower"),
    ("compiler.frontend.condense_s", "s", "lower"),
    ("compiler.frontend.nodes", "count", "lower"),
    ("compiler.geometry.build_s", "s", "lower"),
    ("compiler.closures.enumerate_s", "s", "lower"),
    ("compiler.closures.masks", "count", "lower"),
    ("compiler.partition.dp_s", "s", "lower"),
    ("compiler.partition.dp_self_s", "s", "lower"),
    ("compiler.partition.greedy_s", "s", "lower"),
    ("compiler.partition.stages", "count", "lower"),
    ("compiler.plan.assign_layout_s", "s", "lower"),
    ("compiler.codegen.lower_s", "s", "lower"),
    ("compiler.codegen.image_s", "s", "lower"),
    ("compiler.codegen.static_instructions", "count", "lower"),
    ("compiler.codegen.image_bytes", "bytes", "lower"),
    ("sim.chip.run_s", "s", "lower"),
    ("sim.chip.instr_per_s", "1/s", "higher"),
    ("sim.chip.cycles_per_s", "cycles/s", "higher"),
    ("sim.chip.interp_run_s", "s", "lower"),
    ("sim.blockengine.speedup_vs_interp", "ratio", "higher"),
    ("sim.blockengine.fallback_instructions", "count", "lower"),
    ("sim.blockengine.batched_iter_share", "ratio", "higher"),
    ("sim.blockengine.template_hit_share", "ratio", "higher"),
    ("sim.blockengine.noc_batch_success_share", "ratio", "higher"),
    ("sim.blockengine.noc_contention_bailouts", "count", "lower"),
    ("sim.functional.golden_s", "s", "lower"),
    ("sim.fastmodel.analyze_s", "s", "lower"),
    ("sim.fastmodel.cycle_ratio", "ratio", "lower"),
    ("sim.fastmodel.energy_ratio", "ratio", "lower"),
    ("sim.multichip.schedule_s", "s", "lower"),
    ("sim.multichip.releases_per_s", "1/s", "higher"),
    ("serve.compile_s", "s", "lower"),
    ("serve.cold_submit_s", "s", "lower"),
    ("serve.warm_submit_s", "s", "lower"),
    ("serve.rr_submit_s", "s", "lower"),
    ("serve.jsq_submit_s", "s", "lower"),
    ("serve.rr_req_per_s", "1/s", "higher"),
    ("serve.jsq_req_per_s", "1/s", "higher"),
    ("serve.report_json_s", "s", "lower"),
    ("faults.schedule_s", "s", "lower"),
    ("faults.req_per_s", "1/s", "higher"),
    ("faults.attempts", "count", "lower"),
    ("faults.retry_share", "ratio", "lower"),
    ("faults.drop_share", "ratio", "lower"),
    ("runtime.submit_s", "s", "lower"),
    ("runtime.drain_s", "s", "lower"),
    ("runtime.req_per_s", "1/s", "higher"),
    ("runtime.faulted_req_per_s", "1/s", "higher"),
    ("runtime.events", "count", "lower"),
    ("console.fold_s", "s", "lower"),
    ("explore.cold_s", "s", "lower"),
    ("explore.points_per_s", "1/s", "higher"),
    ("explore.base_points", "count", "lower"),
    ("explore.derived_points", "count", "higher"),
    ("explore.pool_speedup_w2", "ratio", "higher"),
    ("explore_cache.warm_s", "s", "lower"),
    ("explore_cache.lookups_per_s", "1/s", "higher"),
    ("explore_cache.hit_share", "ratio", "higher"),
    ("explore_cache.resume_s", "s", "lower"),
    ("explore_cache.disk_bytes", "bytes", "lower"),
    ("artifact.save_s", "s", "lower"),
    ("artifact.load_s", "s", "lower"),
    ("artifact.bytes", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.child_cpu_s", "s", "lower"),
    ("cli.json_bytes", "bytes", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("host.calib_s", "s", "lower"),
    ("host.loadavg1", "load", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = LAYERS + SIMULATED

UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
BETTER: Dict[str, str] = {name: better for name, _, better in END_TO_END + PER_LAYER}

#: Simulated statistics: bit-identical between two runs at one seed.
EXACT = frozenset({"sim_cycles"} | {name for name, _, _ in SIMULATED})


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: List[float]) -> Dict[str, float]:
    """Sample count, median, quartiles and extremes of one series."""
    q1, median, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }
