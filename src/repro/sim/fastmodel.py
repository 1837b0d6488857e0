"""Fast analytical performance model: row-granular pipeline simulation.

The cycle-level simulator (:mod:`repro.sim.chip`) executes every
instruction and is exact at any scale, but full 224x224 models compile
into tens of millions of dynamic instructions -- too slow for wide design
sweeps in Python.  This module simulates an :class:`ExecutionPlan` at
*row* granularity instead: each node's replicas process output rows
sequentially, each row becomes ready only after the producer rows it
consumes are ready (true dataflow recurrences through the stage
pipeline), and per-row costs come from the same architecture parameters
the cycle simulator charges.

It is deliberately distinct from the closed-form estimates the DP
partitioner optimises (:func:`repro.compiler.cost.stage_latency`
uses max-plus-fill, with no dependency recurrences), so evaluating a plan
with the fast model is not circular.  Tests cross-validate it against the
cycle simulator at small scales.

A model's fast-tier price is one call, :func:`analyze_pipeline`: each
chip's plan is analysed (cold, or warm with its resident weight loads
split out), and the chips are composed over their transfer edges
(:func:`compose_pipeline`; one chip is a one-shard pipeline) with the
closed-form schedule the cycle-level multi-chip scheduler uses.  The
sweep engine and the fast-tier
:class:`~repro.serve.Deployment` price through it, and a cyclesim sweep
point composes its measured chip reports through the same
:func:`compose_pipeline`; :func:`serve_fleet` continues either
single-input report over a batch, an arrival process or a fleet
(:func:`stream_batched` is its closed form for a back-to-back batch).

See ``docs/ARCHITECTURE.md`` ("The simulation stack") for how this model
relates to the cycle-level simulator and the golden functional model.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.cost import CostModel, stage_mask_of, stage_topology
from repro.compiler.plan import ExecutionPlan
from repro.errors import ConfigError
from repro.sim.report import FastReport


def resident_plan_replicas(plan: ExecutionPlan) -> Dict[str, frozenset]:
    """Per-node replica indices whose weight loads a resident session hoists.

    A replica's loads are hoistable when every core it occupies is one
    of the plan's :meth:`~repro.compiler.plan.ExecutionPlan.resident_cores`
    -- the rule code generation splits programs by -- and the node is
    not weight-streaming (multipass nodes re-stream tiles inside the
    compute body on every input; only their tiny bias copy is hoisted,
    which the row-granular model does not price separately).  Replica
    granularity matters: a node spanning both single- and multi-stage
    cores gets exactly its single-stage replicas' loads hoisted,
    matching the per-core program split.
    """
    cores = plan.resident_cores()
    resident: Dict[str, frozenset] = {}
    for stage in plan.stages:
        for node in stage.nodes:
            geom = plan.geometries[node.name]
            if not node.is_cim or geom.multipass:
                continue
            hoistable = frozenset(
                index
                for index, replica in enumerate(
                    stage.mappings[node.name].replicas
                )
                if cores.issuperset(replica.cores)
            )
            if hoistable:
                resident[node.name] = hoistable
    return resident


def analyze_plan(plan: ExecutionPlan) -> FastReport:
    """Row-granular pipeline analysis of a compiled execution plan.

    A plan loaded from an artifact carries its save-time analysis
    (:class:`repro.artifact.ArtifactPlan`), which is returned as-is:
    re-analysing would need the CG-level state the artifact does not
    store.
    """
    stored = getattr(plan, "fast_report", None)
    if stored is not None:
        return stored
    report, _, _ = _analyze_plan_impl(plan, resident=False)
    return report


def analyze_pipeline(
    plans: Sequence[ExecutionPlan],
    edges: Sequence[Tuple[int, int, int]],
    arch,
    resident: bool = False,
) -> Tuple[FastReport, int, Dict[str, float]]:
    """The fast-tier price of one input through a pipeline of chips.

    ``plans`` holds one plan per chip and ``edges`` the per-input
    ``(src, dst, nbytes)`` transfer edges between them (empty for one
    chip); ``arch`` prices the inter-chip link.  Returns ``(report,
    load_cycles, load_energy_pj)``.

    Cold (``resident=False``) every chip is :func:`analyze_plan`-ed and
    the load fields are zero.  With ``resident=True`` each chip's report
    is *warm*: it prices one input with every hoistable replica's weight
    load removed (cycles and energy).  ``load_cycles`` is then the
    run-once load phase: hoisted loads execute concurrently across cores
    and the phase completes on every chip before the first input enters
    the pipeline, so it is a max over both.  ``load_energy_pj`` is the
    hoisted weight-load energy plus the load phase's own static draw,
    summed over chips.  The hoisted dynamic terms recompose the cold node
    energies exactly; static energy scales with each phase's own
    makespan, as the cycle tier accounts the load run and each warm run
    separately.

    The chips are composed by :func:`compose_pipeline`.
    """
    from repro.sim.multichip import sum_energy

    split = [
        _analyze_plan_impl(plan, resident=True) if resident
        else (analyze_plan(plan), 0, {})
        for plan in plans
    ]
    load_done = max(load for _, load, _ in split)
    report = compose_pipeline(
        [report for report, _, _ in split], edges, arch, load_done
    )
    return report, load_done, sum_energy([energy for _, _, energy in split])


def compose_pipeline(
    reports: Sequence[FastReport],
    edges: Sequence[Tuple[int, int, int]],
    arch,
    load_cycles: int,
) -> FastReport:
    """One input through a pipeline of chips, from each chip's
    single-input report: the one composition law of both tiers' sweep
    points.

    The fast tier passes :func:`analyze_pipeline`'s per-chip analyses,
    the cyclesim tier each chip's measured report
    (:func:`repro.explore._analyze_base`).  The chips are composed over
    ``edges`` with the closed-form pipeline/link schedule of
    :func:`repro.sim.multichip.pipeline_schedule` (stage cycles re-keyed
    as one sequence, boundary bytes charged at the link energy); one
    chip is a one-shard pipeline, whose steady interval is its cycles.
    ``load_cycles`` is the session's load phase.
    """
    from repro.sim.multichip import (
        merge_shard_energy,
        pipeline_schedule,
        steady_state_interval,
    )

    chip_cycles = [r.cycles for r in reports]
    _, _, makespan = pipeline_schedule(chip_cycles, edges, arch.interchip)
    interval = steady_state_interval(chip_cycles, edges, arch.interchip)

    total_bytes = sum(nbytes for _, _, nbytes in edges)
    energy = merge_shard_energy(
        [r.energy_breakdown_pj for r in reports], total_bytes, arch.interchip
    )
    stage_cycles: Dict[int, int] = {}
    for report in reports:
        for _, cycles in sorted(report.stage_cycles.items()):
            stage_cycles[len(stage_cycles)] = cycles
    return FastReport(
        cycles=makespan,
        energy_breakdown_pj=energy,
        macs=sum(r.macs for r in reports),
        clock_mhz=arch.chip.clock_mhz,
        stage_cycles=stage_cycles,
        batch=1,
        steady_interval_cycles=interval,
        shard_cycles=list(chip_cycles),
        shard_edges=[tuple(edge) for edge in edges],
        load_cycles=load_cycles,
    )


def _analyze_plan_impl(
    plan: ExecutionPlan, resident: bool
) -> Tuple[FastReport, int, Dict[str, float]]:
    cm = CostModel(plan.arch)
    clock = plan.arch.chip.clock_mhz
    resident_replicas = resident_plan_replicas(plan) if resident else {}
    energy: Dict[str, float] = {}
    load_energy: Dict[str, float] = {}
    load_phase = 0
    macs = 0
    stage_cycles: Dict[int, int] = {}
    time_cursor = 0

    for stage in plan.stages:
        ready: Dict[str, List[int]] = {}
        stage_end = time_cursor
        topologies = stage_topology(
            plan.cgraph, stage_mask_of(node.index for node in stage.nodes)
        )
        # stage.nodes is in topological (ascending index) order
        for node, topology in zip(stage.nodes, topologies):
            geom = plan.geometries[node.name]
            mapping = stage.mappings[node.name]
            load, row_cost = cm.node_cycles(geom, *topology)
            hoisted_replicas = resident_replicas.get(node.name, frozenset())
            if hoisted_replicas and load:
                load_phase = max(load_phase, load)
            node_ready = [0] * geom.out_h
            for replica_index, replica in enumerate(mapping.replicas):
                t = time_cursor + (
                    0 if replica_index in hoisted_replicas else load
                )
                for y in range(*replica.rows):
                    dep = t
                    for spec in node.inputs:
                        if spec.tensor not in ready:
                            continue
                        src = ready[spec.tensor]
                        rows = spec.rows_needed(y, y + 1, len(src))
                        if len(rows):
                            dep = max(dep, src[rows.stop - 1])
                    t = max(t, dep) + row_cost
                    node_ready[y] = t
                stage_end = max(stage_end, t)
            ready[node.output] = node_ready
            estimate = cm.estimate_node(geom, len(mapping.replicas), *topology)
            hoisted: Dict[str, float] = {}
            if hoisted_replicas:
                hoisted = cm.weight_load_energy(
                    geom, min(len(hoisted_replicas), estimate.replicas)
                )
                for key, value in hoisted.items():
                    load_energy[key] = load_energy.get(key, 0.0) + value
            for key, value in estimate.energy_categories.items():
                energy[key] = (
                    energy.get(key, 0.0) + value - hoisted.get(key, 0.0)
                )
            macs += cm.node_macs(geom)
        stage_cycles[stage.index] = stage_end - time_cursor
        time_cursor = stage_end + 100  # barrier + stage turnaround

    energy["static"] = (
        energy.get("static", 0.0)
        + time_cursor * plan.arch.energy.static_pj_per_cycle(clock)
    )
    if load_phase:
        load_energy["static"] = (
            load_energy.get("static", 0.0)
            + load_phase * plan.arch.energy.static_pj_per_cycle(clock)
        )
    report = FastReport(
        cycles=time_cursor,
        energy_breakdown_pj=energy,
        macs=macs,
        clock_mhz=clock,
        stage_cycles=stage_cycles,
        shard_cycles=[time_cursor],
        load_cycles=load_phase,
    )
    return report, load_phase, load_energy


def stream_batched(report: FastReport, batch: int) -> FastReport:
    """Closed-form batched continuation of a single-input report.

    The streaming law shared with the cycle-level scheduler
    (:func:`repro.sim.multichip.steady_state_interval`): the stream
    makespan is *fill + drain* (the single-input makespan) plus ``(batch
    - 1)`` steady-state intervals, while energy and MACs scale linearly
    per input (static energy is time-proportional, so it scales too).
    A report without a streaming analysis (``steady_interval_cycles ==
    0``, e.g. one chip's own :func:`analyze_plan`) degenerates to
    sequential replay: the interval is one input's makespan and the
    stream takes ``batch * cycles``.  Either way the derived report is
    bit-identical to re-running the analysis at ``batch``.  It is the
    closed form of :func:`serve_fleet` over ``[0] * batch`` on one
    replica (same makespan, energy and MACs), which the sweep prices
    every point through.
    """
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    if report.batch != 1:
        raise ConfigError(
            f"stream_batched needs a single-input report, got batch="
            f"{report.batch} (stacking batched reports would compound "
            f"energies and MACs)"
        )
    interval = report.steady_interval_cycles or report.cycles
    return FastReport(
        cycles=report.cycles + (batch - 1) * interval,
        energy_breakdown_pj={
            k: v * batch for k, v in report.energy_breakdown_pj.items()
        },
        macs=report.macs * batch,
        clock_mhz=report.clock_mhz,
        stage_cycles=dict(report.stage_cycles),
        batch=batch,
        steady_interval_cycles=interval,
        shard_cycles=list(report.shard_cycles),
        shard_edges=list(report.shard_edges),
    )


def steady_state_utilization(
    shard_cycles: Sequence[int],
    shard_edges: Sequence,
    link,
    arrival_interval_cycles: float,
) -> List[float]:
    """Closed-form per-shard utilisation at a sustained arrival interval.

    Below saturation each input occupies shard ``k`` for
    ``shard_cycles[k]`` out of every ``arrival_interval_cycles``; at or
    past saturation (interval at or below the bottleneck of
    :func:`repro.sim.multichip.steady_state_interval`) the initiation
    interval pins to the bottleneck and the busiest resource runs at
    1.0.  An interval of 0 (back-to-back offered load) is saturation by
    definition.  The live console (:mod:`repro.console`) prints this
    next to the measured utilisation from the runtime's event stream --
    the model-vs-measured cross-check for a running session.
    """
    from repro.sim.multichip import steady_state_interval

    if not shard_cycles:
        return []
    if arrival_interval_cycles < 0:
        raise ConfigError(
            f"arrival interval must be >= 0 cycles, got "
            f"{arrival_interval_cycles}"
        )
    bottleneck = steady_state_interval(
        list(shard_cycles), list(shard_edges), link
    )
    effective = max(float(arrival_interval_cycles), float(bottleneck))
    if effective <= 0:
        return [0.0 for _ in shard_cycles]
    return [cycles / effective for cycles in shard_cycles]


def serve_fleet(
    report: FastReport,
    releases: Sequence[int],
    link,
    replicas: int,
    arrival_rate_inf_s: Optional[float] = None,
    faults=None,
    retry=None,
    policy: str = "rr",
    load_energy_pj: Optional[Dict[str, float]] = None,
) -> FastReport:
    """Replicated-serving continuation of a single-input report.

    The fast-model side of :class:`repro.serve.Deployment`: ``releases`` is
    folded over the one fleet step
    (:func:`repro.faults.run_fault_schedule`, the
    :class:`repro.sim.multichip.Dispatcher`) across ``replicas``
    identical copies of the report's pipeline under ``policy``
    (``"rr"`` sends input ``i`` to replica ``i % replicas``, ``"jsq"``
    joins the shortest predicted queue); each replica admits its inputs
    at their *global* release cycles, and the finishes stay in release
    order.  The fleet makespan is the latest finish; energy and MACs
    scale linearly per input.  Because one base analysis prices every
    replica, the sweep engine can treat the replicas axis as a
    closed-form continuation of the same report that prices the batch
    and arrival-rate axes.

    ``faults`` (a :class:`repro.faults.FaultPlan`) and/or ``retry`` (a
    :class:`repro.faults.RetryPolicy`) run the step under the plan --
    the identical contract the cycle-exact tier implements:
    health-aware ``policy`` dispatch over surviving replicas, retries on
    failure, drops past the deadline.  Energy/MACs charge actual work
    (one full per-inference cost per full-service attempt, retries
    included, crash-killed attempts free), latency percentiles cover
    completed requests only, and ``dropped`` / ``retries`` land in the
    report when they are non-zero.  ``faults=None`` is the empty plan.

    A resident session's report is the *warm* one, and its
    ``load_cycles`` is the run-once weight-load phase, priced as the
    :class:`~repro.serve.Deployment` prices it: a cold replica's first
    service waits for its own load (the step's ``load_offsets``),
    latency counts from the real release, and each replica that
    receives an attempt pays one load, ``load_energy_pj``.
    """
    from repro.faults import run_fault_schedule
    from repro.arrivals import latency_percentiles

    if report.batch != 1:
        raise ConfigError(
            f"serve_fleet needs a single-input report, got batch="
            f"{report.batch}"
        )
    chip_cycles = list(report.shard_cycles) or [report.cycles]
    schedule = run_fault_schedule(
        releases, chip_cycles, report.shard_edges, link, replicas,
        policy, faults, retry, [report.load_cycles] * replicas,
    )
    served = sum(1 for a in schedule.attempts if a.full_service)
    loaded = sum(1 for attempts in schedule.replica_attempts if attempts)
    energy = {k: v * served for k, v in report.energy_breakdown_pj.items()}
    for key, value in (load_energy_pj or {}).items():
        energy[key] = energy.get(key, 0.0) + value * loaded
    latencies = [
        schedule.finishes[i] - releases[i] for i in schedule.completed
    ]
    p50, p95, p99 = latency_percentiles(latencies, (50, 95, 99))
    return FastReport(
        cycles=schedule.makespan,
        energy_breakdown_pj=energy,
        macs=report.macs * served,
        clock_mhz=report.clock_mhz,
        stage_cycles=dict(report.stage_cycles),
        batch=len(releases),
        steady_interval_cycles=(
            report.steady_interval_cycles or report.cycles
        ),
        shard_cycles=list(report.shard_cycles),
        shard_edges=list(report.shard_edges),
        arrival_rate_inf_s=arrival_rate_inf_s,
        p50_latency_cycles=p50,
        p95_latency_cycles=p95,
        p99_latency_cycles=p99,
        dropped=len(schedule.dropped),
        retries=schedule.retries,
        load_cycles=report.load_cycles,
    )


def analyze_sharded(sharding, plans, arch=None, batch: int = 1) -> FastReport:
    """Fast-model analysis of a multi-chip sharded execution.

    ``sharding`` is a :class:`~repro.compiler.partition.ShardingPlan`
    and ``plans`` the per-shard :class:`ExecutionPlan` list (one chip
    each).  Every shard is analysed with :func:`analyze_plan` unchanged
    and the chips are composed over the sharding's transfer edges as in
    :func:`analyze_pipeline` -- a one-shard sharding included, so its
    steady interval is its cycles.

    With ``batch > 1`` the report covers a streamed input batch under
    the closed-form throughput law shared with the streaming scheduler:
    the single-input analysis is extended via :func:`stream_batched`
    (*fill + drain + (batch - 1) x bottleneck*, linear per-input
    energy/MACs), so the batch axis never re-runs the per-shard
    analysis.
    """
    arch = arch or plans[0].arch
    reports = [analyze_plan(plan) for plan in plans]
    base = compose_pipeline(reports, sharding.transfer_edges(), arch, 0)
    return stream_batched(base, batch) if batch > 1 else base
