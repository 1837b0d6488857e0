"""First-class serving API: compile once, submit many, continuous arrivals.

The paper evaluates one inference at a time; the repository's north star
is a production-scale serving system.  This module is the user-facing
surface for that: a :class:`Deployment` owns one compiled model (single-
or multi-chip) across arbitrarily many submissions, and every submission
drives the streaming scheduler with an explicit arrival process::

    from repro import Deployment, FixedRate

    dep = Deployment("resnet18", chips=4, input_size=32, num_classes=10)
    report = dep.submit(batch=64, arrivals=FixedRate(2000))   # 2k inf/s
    print(report)          # p50/p95/p99 latency, per-replica utilisation
    report = dep.run_trace([0, 150, 900, 2400])               # recorded trace

**Queueing law.**  Input ``i`` is *released* at an arrival-process-chosen
cycle, waits until the first shard is free (FIFO, submission order),
then flows through the chip pipeline: ``start[i][k] = max(release_i if
k == 0, finish[i-1][k], last inbound transfer arrival)``.  That
recurrence is written once, in the admission kernel
:class:`repro.sim.multichip.PipelineState`; this module only consumes
it.  Every submission admits each attempt exactly once, through the one
fleet step (:class:`~repro.sim.multichip.Dispatcher`: rr/jsq routing
over one kernel state per replica of a :class:`Deployment`, a
fault-free fleet a fleet under the empty plan), and every
:class:`FleetReport` is assembled from the attempts that one object
recorded.  Timing is
data-independent under per-input isolation, so admission prices every
input from the one-input service profile; the cyclesim tier executes
the served inputs once, golden-validates them, and holds every measured
per-input row to that profile (:class:`~repro.errors.SimulationError`
naming the input and shard on any difference).  With every release at
cycle 0 the schedule is bit-identical to the batched one, so batched
mode is the ``arrivals=BackToBack()`` special case.  Both fidelity
tiers share the law: ``tier="cyclesim"`` executes every input on the
exact simulator, ``tier="fast"`` prices the same schedule from the
analytical model (:func:`repro.sim.fastmodel.serve_fleet` is the sweep
engine's closed-form continuation of it).

**Serving-session contract** (see ``docs/ARCHITECTURE.md``, "Serving
sessions").  What may persist across submissions is exactly the
*input-invariant* compile product: the compiled programs and the weight
image.  Activations and all runtime chip state do not persist -- every
input executes on fresh chip state (per-input isolation), which keeps
every output bit-identical to an independent single-input run.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

# The arrival processes and nearest-rank percentiles live in the
# NumPy-free repro.arrivals (the sweep's serving continuation reads them
# without this module).  The arrival classes are re-exported here
# unchanged; the percentiles are read through the module.
from repro import arrivals as _arrivals
from repro.arrivals import (
    ArrivalProcess,
    BackToBack,
    FixedInterval,
    FixedRate,
    PoissonArrivals,
    TraceArrivals,
    check_batch,
)
from repro.compiler.pipeline import (
    ArchLike,
    CompiledModel,
    MultiChipModel,
    generate,
    plan_chips,
    resolve_arch,
    resolve_graph,
)
from repro.config import ArchConfig
from repro.errors import ConfigError, FaultError, SimulationError
from repro.faults import (
    FaultPlan,
    RetryPolicy,
    effective_retry,
    fleet_dispatcher,
)
from repro.graph.graph import ComputationGraph
from repro.sim.functional import (
    check_outputs,
    golden_batch,
    resolve_inputs,
)
from repro.sim.multichip import (
    Dispatcher,
    MultiChipReport,
    MultiChipSimulator,
    assemble_stream_report,
    check_fleet,
    merge_shard_energy,
    pipeline_schedule,
    steady_state_interval,
    sum_energy,
)


# ---------------------------------------------------------------------------
# Serving reports
# ---------------------------------------------------------------------------

@dataclass
class ServeReport:
    """One replica's share of a submission: the per-replica record of
    :attr:`FleetReport.replica_reports`.

    Cycle accounting per input ``i`` the replica served, in the order it
    admitted them::

        release_i  (ready)    <=  start_i  (enters shard 0)
        queue_i    = start_i  - release_i      (waiting for the pipeline)
        service_i  = finish_i - start_i        (inside the pipeline)
        latency_i  = finish_i - release_i      (from its ready cycle)

    ``shard_cycles`` is one input's per-shard occupancy (identical for
    every input: timing is data-independent under per-input isolation),
    ``makespan_cycles`` the replica's last attempt's finish.  Energy,
    MACs and instruction counts sum over its inputs and the weight-load
    phase it paid (``load_cycles``, 0 when warm or idle;
    ``load_energy_pj``, already in ``energy_breakdown_pj``).
    ``stream_report`` (cyclesim tier) is the aggregate
    :class:`MultiChipReport` in the batched format, bit-identical to
    batched mode for back-to-back arrivals.
    """

    batch: int
    releases: List[int]
    service_starts: List[int]
    input_finishes: List[int]
    makespan_cycles: int
    shard_cycles: List[int]
    energy_breakdown_pj: Dict[str, float]
    macs: int = 0
    instructions: int = 0
    validated: bool = False
    stream_report: Optional[MultiChipReport] = field(default=None, repr=False)
    per_input_outputs: Optional[List[Dict[str, np.ndarray]]] = field(
        default=None, repr=False
    )
    golden: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False)
    load_cycles: int = 0
    load_energy_pj: Dict[str, float] = field(default_factory=dict)

    @property
    def queue_cycles(self) -> List[int]:
        return [s - r for s, r in zip(self.service_starts, self.releases)]

    @property
    def service_cycles(self) -> List[int]:
        return [f - s for f, s in zip(self.input_finishes, self.service_starts)]

    @property
    def latency_cycles(self) -> List[int]:
        return [f - r for f, r in zip(self.input_finishes, self.releases)]

    @property
    def shard_utilization(self) -> List[float]:
        """Each shard's busy fraction of the replica's makespan."""
        makespan = self.makespan_cycles
        return [
            self.batch * cycles / makespan if makespan > 0 else 0.0
            for cycles in self.shard_cycles
        ]


@dataclass
class FleetReport:
    """What every submission returns: one stream across a server's
    replicas (a :class:`Deployment` is a fleet of one).

    ``assignments[i]`` names the replica that served global input ``i``;
    ``releases`` / ``input_finishes`` are in global submission order, so
    latency percentiles aggregate over the whole fleet.
    ``replica_reports[r]`` is replica ``r``'s :class:`ServeReport` (its
    rows, queue waits and shard utilisation; zero-input shaped when it
    served nothing).  ``shard_cycles`` is one input's per-shard service
    row, ``steady_interval_cycles`` one replica's bottleneck interval;
    the saturation rate is ``replicas`` times the single-replica
    ceiling.

    **Availability** (:mod:`repro.faults`), filled from the drained
    fleet step whether a fault plan was given or not:
    ``assignments[i] == -1`` marks global input ``i`` as *dropped*
    (``drop_reasons`` says why, ``input_finishes[i] == 0``); request
    conservation always holds (``submitted == completed + dropped``).
    Latency series and percentiles cover completed requests only, and
    read ``None`` when nothing completed.  ``attempt_counts[i]`` counts
    input ``i``'s dispatches and ``retries`` the re-enqueues;
    ``retry_policy`` is the policy the step ran under.
    ``goodput_inf_per_s`` is the rate of *completed* work over the
    makespan; ``offered_inf_per_s`` the arrival-stream demand;
    ``replica_downtime[r]`` the injected crash/slowdown/degrade windows
    of replica ``r``; ``replica_busy_cycles[r]`` its busy cycles from
    the executed attempt windows (a crash-killed attempt counts the
    cycles it ran before dying).  ``replica_load_cycles[r]`` is the
    weight-load phase replica ``r`` of a resident session paid in THIS
    submission (0 when it was warm or received no work).
    """

    arch: ArchConfig
    tier: str
    policy: str
    replicas: int
    arrival: str
    shard_cycles: List[int]
    batch: int = 0
    assignments: List[int] = field(default_factory=list)
    releases: List[int] = field(default_factory=list)
    input_finishes: List[int] = field(default_factory=list)
    makespan_cycles: int = 0
    steady_interval_cycles: int = 0
    replica_reports: List[ServeReport] = field(repr=False, default_factory=list)
    energy_breakdown_pj: Dict[str, float] = field(default_factory=dict)
    macs: int = 0
    instructions: int = 0
    validated: bool = False
    fault_events: List[Dict] = field(default_factory=list)
    retry_policy: Optional[Dict] = None
    dropped_indices: List[int] = field(default_factory=list)
    drop_reasons: Dict[int, str] = field(default_factory=dict)
    attempt_counts: List[int] = field(default_factory=list)
    retries: int = 0
    replica_downtime: List[List[Dict]] = field(default_factory=list)
    replica_busy_cycles: List[int] = field(default_factory=list)
    resident: bool = False
    replica_load_cycles: List[int] = field(default_factory=list)

    # -- cycles to time ------------------------------------------------------
    @property
    def cycle_ns(self) -> float:
        return self.arch.chip.cycle_ns

    def _ms(self, cycles: Optional[int]) -> Optional[float]:
        return None if cycles is None else cycles * self.cycle_ns / 1e6

    @property
    def makespan_ms(self) -> float:
        return self._ms(self.makespan_cycles)

    @property
    def num_shards(self) -> int:
        return len(self.shard_cycles)

    # -- latency -------------------------------------------------------------
    @property
    def latency_cycles(self) -> List[int]:
        """Per-request latency of *completed* requests, submission order."""
        dropped = set(self.dropped_indices)
        return [
            f - r
            for i, (f, r) in enumerate(
                zip(self.input_finishes, self.releases)
            )
            if i not in dropped
        ]

    def _percentiles(
        self, pcts: Sequence[float], latencies: Optional[List[int]] = None
    ) -> List[Optional[int]]:
        """Nearest-rank percentiles of ``latency_cycles`` from one sort;
        ``None`` when nothing completed ("0 cycles" would read as a
        perfect distribution)."""
        if latencies is None:
            latencies = self.latency_cycles
        ranks = _arrivals.latency_percentiles(latencies, pcts)
        return ranks if latencies else [None] * len(ranks)

    def latency_percentile_cycles(self, pct: float) -> Optional[int]:
        """Nearest-rank percentile over *completed* requests."""
        return self._percentiles([pct])[0]

    @property
    def p50_latency_cycles(self) -> Optional[int]:
        return self.latency_percentile_cycles(50)

    @property
    def p95_latency_cycles(self) -> Optional[int]:
        return self.latency_percentile_cycles(95)

    @property
    def p99_latency_cycles(self) -> Optional[int]:
        return self.latency_percentile_cycles(99)

    @property
    def p50_latency_ms(self) -> Optional[float]:
        return self._ms(self.p50_latency_cycles)

    @property
    def p95_latency_ms(self) -> Optional[float]:
        return self._ms(self.p95_latency_cycles)

    @property
    def p99_latency_ms(self) -> Optional[float]:
        return self._ms(self.p99_latency_cycles)

    # -- rates and energy ------------------------------------------------------
    @property
    def throughput_inf_per_s(self) -> float:
        """Sustained rate actually achieved: completions over makespan.

        Counts *completed* requests only: a fault plan that drops work
        must not inflate the rate with inferences that never finished.
        """
        if self.completed == 0 or self.makespan_cycles <= 0:
            return 0.0
        return self.completed / (self.makespan_cycles * self.cycle_ns / 1e9)

    @property
    def goodput_inf_per_s(self) -> float:
        """Completed inferences per second over the makespan."""
        return self.throughput_inf_per_s

    @property
    def offered_inf_per_s(self) -> float:
        """The arrival stream's demand rate over its release span."""
        if self.batch < 2:
            return 0.0
        span = max(self.releases) - min(self.releases)
        if span <= 0:
            return 0.0
        return (self.batch - 1) / (span * self.cycle_ns / 1e9)

    @property
    def saturation_inf_per_s(self) -> float:
        """The fleet ceiling: ``replicas`` inferences per bottleneck interval."""
        if self.steady_interval_cycles <= 0:
            return 0.0
        return self.replicas * 1e9 / (
            self.steady_interval_cycles * self.cycle_ns
        )

    @property
    def total_energy_pj(self) -> float:
        return sum(self.energy_breakdown_pj.values())

    @property
    def total_energy_mj(self) -> float:
        return self.total_energy_pj / 1e9

    @property
    def energy_per_inference_mj(self) -> float:
        """Energy amortized over *completed* inferences (0 when none).

        Work that never finished must not dilute the per-inference cost,
        and a replica that paid its weight load but completed nothing
        has no per-inference cost at all.
        """
        if self.completed == 0:
            return 0.0
        return self.total_energy_mj / self.completed

    # -- availability --------------------------------------------------------
    @property
    def submitted(self) -> int:
        return self.batch

    @property
    def completed(self) -> int:
        return self.batch - len(self.dropped_indices)

    @property
    def dropped(self) -> int:
        return len(self.dropped_indices)

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.batch if self.batch else 0.0

    @property
    def replica_batches(self) -> List[int]:
        return [report.batch for report in self.replica_reports]

    @property
    def replica_utilization(self) -> List[float]:
        """Mean shard busy fraction of the fleet makespan, per replica,
        from ``replica_busy_cycles``: a full-service attempt charges one
        service row, a crash-killed one the cycles it ran before dying
        (counted once across the pipeline)."""
        if self.makespan_cycles <= 0 or not self.num_shards:
            return [0.0] * len(self.replica_reports)
        return [
            busy / (self.num_shards * self.makespan_cycles)
            for busy in self.replica_busy_cycles
        ]

    def to_dict(self) -> Dict:
        from repro.config import arch_fingerprint

        latencies = self.latency_cycles
        p50, p95, p99 = self._percentiles([50, 95, 99], latencies)
        return {
            "arch_fingerprint": arch_fingerprint(self.arch),
            "tier": self.tier,
            "batch": int(self.batch),
            "arrival": self.arrival,
            "releases": [int(c) for c in self.releases],
            "input_finishes": [int(c) for c in self.input_finishes],
            "latency_cycles": [int(c) for c in latencies],
            "makespan_cycles": int(self.makespan_cycles),
            "makespan_ms": self.makespan_ms,
            "steady_interval_cycles": int(self.steady_interval_cycles),
            "p50_latency_cycles": p50,
            "p95_latency_cycles": p95,
            "p99_latency_cycles": p99,
            "p50_latency_ms": self._ms(p50),
            "p95_latency_ms": self._ms(p95),
            "p99_latency_ms": self._ms(p99),
            "throughput_inf_per_s": self.throughput_inf_per_s,
            "saturation_inf_per_s": self.saturation_inf_per_s,
            "total_energy_mj": self.total_energy_mj,
            "energy_per_inference_mj": self.energy_per_inference_mj,
            "macs": int(self.macs),
            "instructions": int(self.instructions),
            "validated": self.validated,
            "energy_breakdown_pj": {
                k: float(v) for k, v in self.energy_breakdown_pj.items()
            },
            "num_shards": self.num_shards,
            "shard_cycles": [int(c) for c in self.shard_cycles],
            "policy": self.policy,
            "replicas": int(self.replicas),
            "assignments": [int(a) for a in self.assignments],
            "replica_batches": self.replica_batches,
            "replica_utilization": [
                float(u) for u in self.replica_utilization
            ],
            "submitted": int(self.submitted),
            "completed": int(self.completed),
            "dropped": int(self.dropped),
            "drop_rate": float(self.drop_rate),
            "dropped_indices": [int(i) for i in self.dropped_indices],
            "drop_reasons": {
                str(i): reason
                for i, reason in sorted(self.drop_reasons.items())
            },
            "attempt_counts": [int(c) for c in self.attempt_counts],
            "retries": int(self.retries),
            "goodput_inf_per_s": self.goodput_inf_per_s,
            "offered_inf_per_s": self.offered_inf_per_s,
            "fault_events": list(self.fault_events),
            "retry_policy": self.retry_policy,
            "replica_downtime": [
                list(windows) for windows in self.replica_downtime
            ],
            "replica_busy_cycles": [
                int(c) for c in self.replica_busy_cycles
            ],
            "resident": self.resident,
            "replica_load_cycles": [
                int(c) for c in self.replica_load_cycles
            ],
        }

    def __str__(self) -> str:
        pcts = (50, 95, 99)
        latency = [
            f"latency p{pct}       : "
            + (
                "n/a (0 completed)" if cycles is None
                else f"{cycles:,} cycles ({self._ms(cycles):.3f} ms)"
            )
            for pct, cycles in zip(pcts, self._percentiles(pcts))
        ]
        lines = [
            f"tier              : {self.tier}",
            f"shards            : {self.num_shards}",
            f"replicas          : {self.replicas} (policy {self.policy})",
            f"inputs            : {self.batch} ({self.arrival})",
            f"makespan          : {self.makespan_cycles:,} cycles "
            f"({self.makespan_ms:.3f} ms)",
            f"sustained rate    : {self.throughput_inf_per_s:,.0f} inf/s "
            f"(saturation {self.saturation_inf_per_s:,.0f} inf/s)",
            *latency,
            f"energy            : {self.total_energy_mj:.4f} mJ "
            f"({self.energy_per_inference_mj:.4f} mJ/inference)",
            f"conservation      : {self.submitted} submitted = "
            f"{self.completed} completed + {self.dropped} dropped",
            f"goodput           : {self.goodput_inf_per_s:,.0f} inf/s "
            f"(offered {self.offered_inf_per_s:,.0f} inf/s, "
            f"{self.retries} retries)",
        ]
        if self.resident:
            paid = ", ".join(
                f"r{r}={c:,}"
                for r, c in enumerate(self.replica_load_cycles)
            ) or "none"
            lines.append(f"resident load     : {paid} cycles")
        if self.drop_reasons:
            reasons: Dict[str, int] = {}
            for reason in self.drop_reasons.values():
                reasons[reason] = reasons.get(reason, 0) + 1
            detail = ", ".join(
                f"{count}x {reason}"
                for reason, count in sorted(reasons.items())
            )
            lines.append(f"drops             : {detail}")
        for r, windows in enumerate(self.replica_downtime):
            for window in windows:
                end = window.get("end_cycle")
                span = (
                    f"[{window['start_cycle']:,}, "
                    + (f"{end:,})" if end is not None else "inf)")
                )
                lines.append(
                    f"fault             : replica {r} "
                    f"{window['kind']} {span}"
                )
        lines.append("replica load      :")
        for r, (b, util) in enumerate(
            zip(self.replica_batches, self.replica_utilization)
        ):
            lines.append(f"  replica {r}: {b} inputs, {100 * util:5.1f}% busy")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------

ModelLike = Union[str, ComputationGraph, CompiledModel, MultiChipModel]


@dataclass
class WorkflowResult:
    """Everything one :meth:`Deployment.run` produces.

    ``compiled`` is the single-chip :class:`CompiledModel` for a
    one-chip deployment and a :class:`MultiChipModel` for a sharded one;
    ``report`` is the run's :class:`MultiChipReport` at every chip count.
    """

    compiled: Union[CompiledModel, MultiChipModel]
    report: MultiChipReport
    outputs: Dict[str, np.ndarray]
    golden: Optional[Dict[str, np.ndarray]] = None
    validated: bool = False

    @property
    def graph(self) -> ComputationGraph:
        return self.compiled.graph


#: ``(cycles, energy, macs, instructions)`` of a submission that paid no
#: resident weight-load phase (see ``Deployment._resident_load_profile``).
_NO_LOAD = (0, {}, 0, 0)


class Deployment:
    """A compiled model held resident across many submissions.

    ``Deployment(model, arch, chips=N)`` compiles exactly once (single-
    or multi-chip); :meth:`submit` and :meth:`run_trace` then drive the
    streaming scheduler with per-input release cycles from an
    :class:`ArrivalProcess`, and :meth:`run` is the one-input
    submission (the classic latency mode).  ``model`` may also be an
    already-compiled :class:`CompiledModel` / :class:`MultiChipModel`,
    which the deployment adopts as-is, or the path of a saved
    ``.artifact`` file (see :meth:`load`).

    ``replicas`` copies of the model serve one arrival stream, all
    sharing the immutable compile product (per-input isolation makes
    that safe); the default is a fleet of one.  ``policy`` selects the
    dispatcher: ``"rr"`` (round-robin, input ``i`` to replica ``i % R``)
    or ``"jsq"`` (join-shortest-queue on each replica's predicted
    in-flight count at release time, ties to the lowest index)::

        fleet = Deployment("model.artifact", replicas=4, policy="jsq")
        report = fleet.submit(batch=64, arrivals=FixedRate(8000))

    Every submission returns a :class:`FleetReport`; ``faults`` injects
    a :class:`~repro.faults.FaultPlan` and ``retry`` overrides its
    :class:`~repro.faults.RetryPolicy`.

    ``tier`` selects fidelity: ``"cyclesim"`` (default) executes every
    input on the exact cycle-level simulator with bit-exact golden
    validation; ``"fast"`` prices the identical queueing schedule from
    the analytical model (no functional outputs) and never code-
    generates, so it scales to paper-sized models.

    ``resident_weights=True`` opens a *resident session*: the compiler's
    input-invariant weight-load prologue becomes a separable program
    segment that the session executes once (the first submission pays
    it; the load phase completes on every shard before the first input
    enters the pipeline), and every input -- including all of the first
    submission's -- replays only activation traffic.  The steady-state
    law stays exact with the load folded in front::

        makespan(B) = load + warm_makespan(1) + (B - 1) * warm_bottleneck

    Outputs are bit-identical to the non-resident path in both fidelity
    tiers.  Artifact-loaded models cannot open resident sessions (the
    artifact stores only the serving surface, not the execution plan).
    """

    def __init__(
        self,
        model: ModelLike,
        arch: ArchLike = None,
        *,
        replicas: int = 1,
        policy: str = "rr",
        chips: int = 1,
        strategy: str = "dp",
        engine: Optional[str] = None,
        tier: str = "cyclesim",
        closure_limit: Optional[int] = None,
        resident_weights: bool = False,
        **model_kwargs,
    ):
        if tier not in ("cyclesim", "fast"):
            raise ConfigError(
                f"unknown deployment tier {tier!r}; expected 'cyclesim' "
                f"or 'fast'"
            )
        check_fleet(policy, replicas)
        self.num_replicas = int(replicas)
        self.policy = policy
        self.tier = tier
        self.engine = engine
        self.compiled: Union[CompiledModel, MultiChipModel, None] = None
        self._fast = None  #: fast tier: cached analyze_pipeline result
        self._profile = None  #: cached (service row, transfer edges)
        self._windows = None  #: cyclesim: one input's (starts, finishes)

        if _is_artifact_path(model):
            if (
                model_kwargs or chips != 1 or strategy != "dp"
                or closure_limit is not None
            ):
                raise ConfigError(
                    "an artifact carries its own sharding and strategy; "
                    f"pass {type(self).__name__}(artifact_path) with no "
                    f"compile keywords"
                )
            from repro.artifact import load_artifact

            model = load_artifact(
                model, arch=None if arch is None else resolve_arch(arch)
            )
            arch = None
        if isinstance(model, (CompiledModel, MultiChipModel)):
            if (
                arch is not None or model_kwargs or chips != 1
                or strategy != "dp" or closure_limit is not None
            ):
                raise ConfigError(
                    "a compiled model carries its own architecture, "
                    "sharding and strategy; pass Deployment(compiled) "
                    "with no compile keywords (arch/chips/strategy/"
                    "closure_limit/model kwargs)"
                )
            self.compiled = model
            self._graph, self._arch = model.graph, model.arch
            self._plans = [c.plan for c in model.chips]
        else:
            # One plan for both tiers; only the cycle tier code-generates
            # (the fast tier never executes instructions).
            self._graph = resolve_graph(model, **model_kwargs)
            self._arch = resolve_arch(arch)
            planned = plan_chips(
                self._graph, self._arch, chips, strategy, closure_limit
            )
            self._plans, self._edges = planned.plans, planned.edges
            if tier == "cyclesim":
                self.compiled = generate(planned)
        if self.compiled is not None:
            self._edges = self.compiled.transfer_edges()

        self.resident_weights = bool(resident_weights)
        #: Resident sessions: which replicas hold loaded weights.  All
        #: replicas share one compile product and (cyclesim) one loaded
        #: simulator state -- identical by determinism -- but each pays
        #: its own load phase, and a crash invalidates the crashed
        #: replica's entry so failover re-pays the load.
        self._replica_warm = [False] * self.num_replicas
        self._resident_sim = None  #: cyclesim persistent simulator state
        self._resident_load_reports = None  #: measured load segments
        if self.resident_weights:
            self._check_resident_support()

    def _check_resident_support(self) -> None:
        if self.compiled is None or all(
            chip.supports_resident() for chip in self.compiled.chips
        ):
            return
        raise ConfigError(
            "resident_weights needs the full execution plan; artifact-"
            "loaded models carry only the serving surface.  Recompile "
            "from source to open a resident session."
        )

    @classmethod
    def load(
        cls,
        path,
        arch: ArchLike = None,
        *,
        tier: str = "cyclesim",
        engine: Optional[str] = None,
        resident_weights: bool = False,
    ) -> "Deployment":
        """Open a deployment from a saved ``.artifact`` file.

        The artifact's compile product is adopted as-is -- the compiler
        never runs.  When ``arch`` is given, the artifact must have been
        compiled for that exact architecture point
        (:func:`repro.config.arch_fingerprint` match); a mismatch raises
        :class:`~repro.errors.ArtifactError` naming both fingerprints.
        """
        return cls(
            path, arch, tier=tier, engine=engine,
            resident_weights=resident_weights,
        )

    # -- introspection ------------------------------------------------------
    @property
    def graph(self) -> ComputationGraph:
        return self._graph

    @property
    def arch(self) -> ArchConfig:
        return self._arch

    @property
    def num_chips(self) -> int:
        return len(self._plans)

    @property
    def strategy(self) -> str:
        """The CG-level strategy the deployed plans were compiled with."""
        return self._plans[0].strategy

    def summary(self) -> str:
        if self.compiled is not None:
            lines = [self.compiled.summary()]
        else:
            lines = [plan.summary() for plan in self._plans]
            lines.append(f"  fast-tier deployment, {self.num_chips} chip(s)")
        lines.append(
            f"  fleet: {self.num_replicas} replica(s), policy {self.policy}"
        )
        return "\n".join(lines)

    def _service_profile(self):
        """(per-shard cycle row, transfer edges) of one input.

        Timing is data-independent under per-input isolation, so one
        input's row prices every admission: the fast tier reads its
        analytical report, and the cyclesim tier executes one probe
        input -- unless an offline submission has already set the
        profile from its own first measured row (:meth:`_run_served`).
        Cached for the deployment's lifetime (the compile product is
        immutable).
        """
        if self._profile is None:
            if self.tier == "fast":
                self._set_profile(self._fast_price()[0].shard_cycles)
            else:
                probe = resolve_inputs(self.graph, None, 1, 0)
                self._set_profile(
                    [r.cycles for r in self._execute(probe)[0][0]]
                )
        return self._profile

    def _set_profile(self, row) -> None:
        """Cache ``row`` as the service profile.  The cyclesim tier also
        keeps the one-input pipeline windows, which every stream report
        shifts to its first input's service start."""
        self._profile = (list(row), self._edges)
        if self.tier == "cyclesim":
            self._windows = pipeline_schedule(
                row, self._edges, self.arch.interchip
            )[:2]

    def _load_offset(self, warm: bool) -> int:
        """The cycle a replica's weight load completes if it is a cold
        (``not warm``) replica of a resident session, else 0."""
        if not self.resident_weights or warm:
            return 0
        return self._resident_load_profile()[0]

    def _new_dispatcher(self, faults=None, retry=None) -> Dispatcher:
        """The one fleet step over this server's replicas as they stand
        (warm or cold), under ``faults`` / ``retry``, priced at the
        one-input service profile (timing is data-independent under
        per-input isolation, which makes the law tier-equivalent).

        A plan event naming a replica this server does not have would
        inject nothing, so it raises :class:`~repro.errors.FaultError`
        instead of reporting a clean run.  Sweeps price plans through
        :func:`repro.sim.fastmodel.serve_fleet`, not here: they cross
        one plan with several fleet sizes on purpose, and a replica a
        smaller fleet lacks is simply absent there.
        """
        for event in () if faults is None else faults.events:
            replica = getattr(event, "replica", None)
            if replica is not None and replica >= self.num_replicas:
                raise FaultError(
                    f"fault event {event.describe()} names replica "
                    f"{replica}, but the fleet has {self.num_replicas} "
                    f"replica(s), 0..{self.num_replicas - 1}"
                )
        row, edges = self._service_profile()
        return fleet_dispatcher(
            self.policy, row, edges, self.arch.interchip,
            [self._load_offset(w) for w in self._replica_warm],
            faults, retry,
        )

    def serve_forever(
        self,
        *,
        clock=None,
        seed: int = 0,
        validate: bool = True,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        """Open an async real-time serving session on this deployment.

        Must be awaited inside a running asyncio event loop; returns a
        :class:`repro.runtime.ServerHandle` whose ``submit()`` coroutine
        accepts wall-clock (or :class:`repro.runtime.VirtualClock`)
        requests, routes each across the replicas under ``faults`` /
        ``retry`` and resolves a future per request with its completion
        cycle and latency.  See :mod:`repro.runtime`.
        """
        from repro.runtime import serve_forever

        return serve_forever(
            self, clock=clock, seed=seed, validate=validate,
            faults=faults, retry=retry,
        )

    # -- one input ---------------------------------------------------------
    def run(
        self,
        input_data: Optional[np.ndarray] = None,
        *,
        validate: bool = True,
        seed: int = 0,
    ) -> WorkflowResult:
        """Execute one input end to end (the paper's Fig. 2 workflow).

        The one-input :meth:`submit`: the same execution, grouped golden
        check and service-profile check, so ``report`` is the stream's
        :class:`MultiChipReport` at every chip count.  On a resident
        session the input is that session's submission (a cold replica
        pays the load once).  Requires ``tier="cyclesim"``.
        """
        self._require_cyclesim("run()")
        inputs = resolve_inputs(self.graph, input_data, 1, seed)
        if len(inputs) != 1:
            raise ConfigError(
                f"run() executes one input, got {len(inputs)}; submit() "
                f"streams a batch"
            )
        # The one input lands on replica 0 under rr and jsq alike.
        served = self.submit(inputs, validate=validate).replica_reports[0]
        return WorkflowResult(
            self.compiled, served.stream_report,
            served.per_input_outputs[0], served.golden, served.validated,
        )

    def _label(self) -> str:
        """What a failed golden check names: strategy and chip count."""
        return f"{self.strategy}, {self.num_chips} chip(s)"

    def _require_cyclesim(self, what: str) -> None:
        if self.tier != "cyclesim":
            raise ConfigError(
                f"{what} needs cycle-level execution; this deployment was "
                f"created with tier='fast'"
            )

    # -- streaming submissions ---------------------------------------------
    def _open_stream(self, inputs, batch, arrivals, seed):
        """The front half every submission shares.

        Normalises ``arrivals`` (``None`` = :class:`BackToBack`, a bare
        sequence = :class:`TraceArrivals`), lets a trace set the default
        batch, resolves ``inputs`` and draws the release cycles.
        Returns ``(arrivals, resolved, releases)``; ``resolved`` is
        ``None`` in the fast tier, where timing is data-independent and
        ``inputs`` only sets/checks the batch (shape-validated like the
        cyclesim tier), and for an empty stream.  Every server and fleet
        size holds ``batch >= 1``: only a trace may be empty.
        """
        if arrivals is None:
            arrivals = BackToBack()
        elif not isinstance(arrivals, ArrivalProcess):
            arrivals = TraceArrivals(arrivals)
        if isinstance(arrivals, TraceArrivals) and batch == 1:
            batch = len(arrivals)
        else:
            check_batch(batch)
        resolved = None
        if batch and (self.tier == "cyclesim" or inputs is not None):
            resolved = resolve_inputs(self.graph, inputs, batch, seed)
            batch = len(resolved)
            if self.tier == "fast":
                resolved = None
        releases = arrivals.release_cycles(batch, self.arch.chip.cycle_ns)
        return arrivals, resolved, releases

    def submit(
        self,
        inputs=None,
        *,
        batch: int = 1,
        arrivals: Optional[Union[ArrivalProcess, Sequence[int]]] = None,
        seed: int = 0,
        validate: bool = True,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> FleetReport:
        """Submit a stream of inputs under an arrival process.

        ``inputs`` follows the batched-workflow conventions (``None``
        draws ``batch`` reproducible random inputs seeded ``seed``,
        ``seed+1``, ...; a list / stacked array of input tensors sets
        the batch implicitly).  ``arrivals`` is an
        :class:`ArrivalProcess` (default :class:`BackToBack`) or a bare
        sequence of release cycles; an empty :class:`TraceArrivals`
        yields an empty report.  Inputs are drawn in global submission
        order, then routed: replica sub-streams keep their global
        release cycles.  The cyclesim tier validates every input
        bit-exactly against the golden model; the fast tier carries no
        functional outputs (``validate`` is ignored).

        The one fleet step (:class:`repro.sim.multichip.Dispatcher`)
        runs under ``faults`` (``None``: the empty plan): dead replicas
        stop receiving work, failed attempts are retried on survivors,
        and undeliverable requests are recorded as dropped
        (conservation: ``submitted == completed + dropped``).
        """
        return self._serve(
            inputs, batch, arrivals, seed, validate, faults=faults,
            retry=retry,
        )

    def run_trace(
        self,
        trace: Union[TraceArrivals, Sequence[int]],
        inputs=None,
        *,
        seed: int = 0,
        validate: bool = True,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> FleetReport:
        """Replay a recorded arrival trace (one release cycle per input).

        ``run_trace([0, 0, ..., 0])`` reproduces the batched streaming
        schedule exactly -- same makespan, bit-identical outputs.  An
        empty trace is legal and yields an empty report.
        """
        return self.submit(
            inputs, arrivals=trace, seed=seed, validate=validate,
            faults=faults, retry=retry,
        )

    def _serve(
        self, inputs, batch, arrivals, seed, validate, dispatcher=None,
        faults=None, retry=None,
    ):
        """The one serving path, both tiers, every fleet size, faulted
        or not.

        :meth:`_new_dispatcher` admits every release once under
        ``faults`` / ``retry`` -- or a live session hands in the
        ``dispatcher`` that has admitted exactly this stream already --
        and :meth:`_report` reports from its records.  The cyclesim tier
        executes the inputs first (:meth:`_run_served`), so an offline
        submission prices its admissions from its own first measured
        row, not a probe.
        """
        arrivals, resolved, releases = self._open_stream(
            inputs, batch, arrivals, seed
        )
        served = None
        if resolved is not None:
            served = self._run_served(
                resolved, range(len(resolved)), validate
            )
        if dispatcher is None and releases:
            dispatcher = self._new_dispatcher(faults, retry)
            for release in releases:
                dispatcher.dispatch(release)
        if dispatcher is not None:
            dispatcher.drain()
        return self._report(
            dispatcher, arrivals.describe(), served, validate, faults, retry
        )

    def _report(
        self, dispatcher: Optional[Dispatcher], arrival, served, validate,
        faults=None, retry=None,
    ) -> FleetReport:
        """The report of a stream ``dispatcher`` has admitted and drained
        (``None``: an empty stream): the replica reports
        (:meth:`_replica_reports`) totalled, with the availability block
        read off the step and the plan (``None``: the empty plan).

        The step's own lists are kept, not copied: nothing admits after
        a drain.  Busy cycles come from the executed attempt windows: a
        full-service attempt charges one service row, a crash-killed
        one the cycles it ran before dying (counted once).
        """
        reports = self._replica_reports(dispatcher, served, validate)
        plan = faults if faults is not None else FaultPlan()
        d = dispatcher
        fields = dict(shard_cycles=[0] * self.num_chips)
        if d is not None and d.releases:
            row = self._service_profile()[0]
            busy = sum(row)
            fields.update(
                batch=len(d.releases),
                assignments=d.assignments,
                releases=d.releases,
                input_finishes=d.finishes,
                makespan_cycles=d.makespan,
                steady_interval_cycles=steady_state_interval(
                    row, self._edges, self.arch.interchip
                ),
                shard_cycles=list(row),
                dropped_indices=d.dropped,
                drop_reasons=d.drop_reasons,
                attempt_counts=d.attempt_counts,
                retries=d.retries,
                replica_busy_cycles=[
                    sum(
                        busy if a.full_service
                        else max(0, a.finish_cycle - a.start_cycle)
                        for a in records
                    )
                    for records in d.replica_attempts
                ],
            )
        served_reports = [r for r in reports if r.batch]
        return FleetReport(
            arch=self.arch,
            tier=self.tier,
            policy=self.policy,
            replicas=self.num_replicas,
            arrival=arrival,
            replica_reports=reports,
            energy_breakdown_pj=sum_energy(
                [r.energy_breakdown_pj for r in reports]
            ),
            macs=sum(r.macs for r in reports),
            instructions=sum(r.instructions for r in reports),
            validated=bool(served_reports) and all(
                r.validated for r in served_reports
            ),
            fault_events=[e.to_dict() for e in plan.events],
            retry_policy=effective_retry(plan, retry).to_dict(),
            replica_downtime=plan.replica_timeline(self.num_replicas),
            resident=self.resident_weights,
            replica_load_cycles=[r.load_cycles for r in reports],
            **fields,
        )

    def _replica_reports(
        self, dispatcher: Optional[Dispatcher], served, validate,
    ) -> List[ServeReport]:
        """Each replica's report from the attempts ``dispatcher``
        recorded for it (``None`` admitted nothing: an empty stream).

        A report covers the replica's full-service attempts, each a row
        released at its ready cycle.  ``served`` is the cyclesim tier's
        :meth:`_run_served` of the stream: each row is charged its
        request's measured cost and carries its outputs, and the first
        one's profile windows, shifted to its service start, head the
        stream report.  A cold resident replica (``not warm[r]``) that
        received any attempt pays its weight load -- real even if every
        attempt was then crash-killed -- and ``warm[r]`` is updated: a
        crash invalidates the replica's weights, so failback re-pays the
        load.
        """
        warm = self._replica_warm
        reports = []
        for r in range(self.num_replicas):
            records = (
                [] if dispatcher is None else dispatcher.replica_attempts[r]
            )
            load = None
            if records and self.resident_weights and not warm[r]:
                load = self._resident_load_profile()
            reports.append(
                self._replica_report(records, served, validate, load)
            )
            crashed = dispatcher is not None and (
                dispatcher.states[r].crash is not None
            )
            warm[r] = self.resident_weights and not crashed and (
                warm[r] or bool(records)
            )
        return reports

    def _replica_report(self, records, served, validate, load) -> ServeReport:
        """One replica's report straight from its attempt ``records``
        (:meth:`_replica_reports`): nothing is scheduled again, the
        full-service rows are only priced, each at the service profile
        and (cyclesim tier) its request's measured ``(energy, MACs,
        instructions)``, else the fast model's.  ``load`` is a weight-load
        phase paid ahead of them (``None``: none)."""
        load_cycles, load_energy, load_macs, load_instr = load or _NO_LOAD
        full = [a for a in records if a.full_service]
        count = len(full)
        if not count:
            return ServeReport(
                batch=0, releases=[], service_starts=[], input_finishes=[],
                makespan_cycles=0, shard_cycles=[0] * self.num_chips,
                energy_breakdown_pj=dict(load_energy), macs=load_macs,
                instructions=load_instr,
                per_input_outputs=[] if self.tier == "cyclesim" else None,
                load_cycles=load_cycles, load_energy_pj=dict(load_energy),
            )
        starts = [a.start_cycle for a in full]
        finishes = [a.finish_cycle for a in full]
        makespan = max(a.finish_cycle for a in records)
        extra = {}
        if served is None:
            energy, macs = self._fast_cost(count)
            instructions = 0
        else:
            runs = [served[a.request] for a in full]
            reports = [run[0] for run in runs]
            energy, macs, instructions = self._measured_cost(reports)
            windows = [
                [[cycle + starts[0] for cycle in window]]
                for window in self._windows
            ]
            extra = dict(
                stream_report=assemble_stream_report(
                    self.arch, reports, self._edges,
                    (*windows, finishes, makespan),
                    self.compiled.interchip_bytes(),
                ),
                per_input_outputs=[run[1] for run in runs],
                golden=runs[0][2],
            )
        return ServeReport(
            batch=count,
            releases=[a.ready_cycle for a in full],
            service_starts=starts,
            input_finishes=finishes,
            makespan_cycles=makespan,
            shard_cycles=list(self._service_profile()[0]),
            energy_breakdown_pj=sum_energy([energy, load_energy]),
            macs=macs + load_macs,
            instructions=instructions + load_instr,
            validated=served is not None and bool(validate),
            load_cycles=load_cycles,
            load_energy_pj=dict(load_energy),
            **extra,
        )

    # -- cyclesim tier ------------------------------------------------------
    def _execute(self, inputs: Sequence[np.ndarray]):
        """Functional half: run every input in per-input isolation.

        Returns ``(per_input_reports, per_input_outputs)``.
        """
        if self.resident_weights:
            return self._resident_execute(inputs)
        sim = MultiChipSimulator(self.compiled, engine=self.engine)
        return sim.execute_stream(
            inputs, self.graph.input_operators[0].output
        )

    def _run_served(self, inputs, requests, validate):
        """Execute the served ``inputs`` once and check them.

        ``requests[j]`` numbers input ``j`` in its stream.  The inputs
        are golden-validated grouped (``validate``); then every measured
        per-input row must equal the service profile the admissions were
        priced from (an offline submission with no profile cached makes
        its first row the profile), or :class:`~repro.errors.
        SimulationError` names the input, the shard and both values.
        Returns ``{request: (shard reports, outputs, golden)}``, golden
        ``None`` when not validated.
        """
        per_reports, per_outputs = self._execute(inputs)
        goldens = (
            self._validate(inputs, per_outputs, requests) if validate
            else [None] * len(inputs)
        )
        if self._profile is None and per_reports:
            self._set_profile([r.cycles for r in per_reports[0]])
        row = self._service_profile()[0]
        for request, reports in zip(requests, per_reports):
            for shard, (report, priced) in enumerate(zip(reports, row)):
                if report.cycles != priced:
                    raise SimulationError(
                        f"served input {request} ran {report.cycles} "
                        f"cycles on shard {shard}, but its admission was "
                        f"priced at the service profile's {priced}"
                    )
        return dict(zip(requests, zip(per_reports, per_outputs, goldens)))

    def _validate(self, inputs, outputs, requests):
        """Bit-exact golden check of every input; returns the golden
        outputs.  The golden model runs the inputs group by group
        (:func:`repro.sim.functional.golden_batch`)."""
        graph = self.graph
        input_tensor = graph.input_operators[0].output
        goldens = golden_batch(graph, ({input_tensor: data} for data in inputs))
        checked = []
        for request, expected, produced in zip(requests, goldens, outputs):
            check_outputs(
                graph, produced, expected,
                f"{self._label()}, served input {request}",
            )
            checked.append(expected)
        return checked

    def _measured_cost(self, runs):
        """``(energy, MACs, instructions)`` of executed passes, each a
        list of shard reports; every pass pays its inter-chip traffic."""
        flat = [rep for reports in runs for rep in reports]
        return (
            merge_shard_energy(
                [rep.energy_breakdown_pj for rep in flat],
                self.compiled.interchip_bytes() * len(runs),
                self.arch.interchip,
            ),
            sum(rep.macs for rep in flat),
            sum(rep.instructions for rep in flat),
        )

    # -- resident-weights session ------------------------------------------
    def _resident_execute(self, inputs: Sequence[np.ndarray]):
        """Cyclesim functional half of a resident-session submission.

        The first call runs every shard's separable load segment on
        fresh chips and keeps the simulator (loaded macro groups and
        constant bands persist for the whole session); every input --
        on this and every later call -- replays only the warm
        activation program against that state.
        """
        if self._resident_sim is None:
            sim = MultiChipSimulator(self.compiled, engine=self.engine)
            self._resident_load_reports = sim.load_resident()
            self._resident_sim = sim
        return self._resident_sim.execute_warm_stream(
            inputs, self.graph.input_operators[0].output
        )

    def _resident_load_profile(self):
        """This session's load price: ``(cycles, energy, macs, instrs)``.

        ``cycles`` is the session load phase (shards load in parallel,
        so it is the max over shards).  The cyclesim tier measures the
        actual load segments -- running them now if no submission has
        yet -- and the fast tier reads the closed-form mirror.
        """
        if self.tier == "fast":
            _, load_done, load_energy = self._fast_price()
            return load_done, dict(load_energy), 0, 0
        if self._resident_load_reports is None:
            self._resident_execute([])
        reports = self._resident_load_reports
        return (
            max((r.cycles for r in reports), default=0),
            sum_energy([r.energy_breakdown_pj for r in reports]),
            sum(r.macs for r in reports),
            sum(r.instructions for r in reports),
        )

    # -- fast tier ----------------------------------------------------------
    def _fast_price(self):
        """Fast tier: ``(report, load cycles, load energy)`` of one input,
        the deployment's :func:`~repro.sim.fastmodel.analyze_pipeline`.
        A resident session prices every input from the warm (load-free)
        report; its load phase is accounted separately."""
        if self._fast is None:
            from repro.sim.fastmodel import analyze_pipeline

            self._fast = analyze_pipeline(
                self._plans, self._edges, self.arch,
                resident=self.resident_weights,
            )
        return self._fast

    def _fast_cost(self, count: int):
        """Fast tier: ``(energy breakdown, MACs)`` of ``count`` inferences."""
        report = self._fast_price()[0]
        return (
            {k: v * count for k, v in report.energy_breakdown_pj.items()},
            report.macs * count,
        )


#: ``Fleet(model, replicas=R, policy=...)`` reads as what it builds.
Fleet = Deployment


def _is_artifact_path(model) -> bool:
    """Whether ``model`` names a saved artifact file."""
    from pathlib import Path

    if not isinstance(model, (str, Path)):
        return False
    path = Path(model)
    if path.suffix == ".artifact":
        return True
    if not path.is_file():
        return False
    from repro.artifact import MAGIC

    with open(path, "rb") as handle:
        return handle.read(len(MAGIC)) == MAGIC
