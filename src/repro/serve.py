"""First-class serving API: compile once, submit many, continuous arrivals.

The paper evaluates one inference at a time; the repository's north star
is a production-scale serving system.  This module is the user-facing
surface for that: a :class:`Deployment` owns one compiled model (single-
or multi-chip) across arbitrarily many submissions, and every submission
drives the streaming scheduler with an explicit arrival process::

    from repro import Deployment, FixedRate

    dep = Deployment("resnet18", chips=4, input_size=32, num_classes=10)
    report = dep.submit(batch=64, arrivals=FixedRate(2000))   # 2k inf/s
    print(report)          # p50/p95/p99 latency, per-shard utilisation
    report = dep.run_trace([0, 150, 900, 2400])               # recorded trace

**Queueing law.**  Input ``i`` is *released* at an arrival-process-chosen
cycle, waits until the first shard is free (FIFO, submission order),
then flows through the chip pipeline: ``start[i][k] = max(release_i if
k == 0, finish[i-1][k], last inbound transfer arrival)``.  That
recurrence is written once, in the admission kernel
:class:`repro.sim.multichip.PipelineState`; this module only consumes
it.  The cyclesim tier folds it over a submission's measured rows
(:func:`~repro.sim.multichip.streaming_schedule`); the fast tier and
every :class:`Fleet` admit through the one unfaulted fleet step
(:class:`~repro.sim.multichip.Dispatcher`: rr/jsq routing over one
kernel state per replica, a deployment being a fleet of one) and report
from what it recorded.  With every release at cycle 0 the
schedule is bit-identical to the batched one, so batched mode is the
``arrivals=BackToBack()`` special case.  Both fidelity tiers share the
law: ``tier="cyclesim"`` executes every input on the exact simulator,
``tier="fast"`` prices the same schedule from the analytical model
(:func:`repro.sim.fastmodel.serve_fleet` is the sweep engine's
closed-form continuation of it).

**Serving-session contract** (see ``docs/ARCHITECTURE.md``, "Serving
sessions").  What may persist across submissions is exactly the
*input-invariant* compile product: the compiled programs and the weight
image.  Activations and all runtime chip state do not persist -- every
input executes on fresh chip state (per-input isolation), which keeps
every output bit-identical to an independent single-input run.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.compiler import CompiledModel, MultiChipModel
from repro.config import ArchConfig
from repro.errors import ConfigError, FaultError
from repro.faults import (
    FailoverEngine,
    FaultPlan,
    RetryPolicy,
    engine_needed,
)
from repro.graph.graph import ComputationGraph
from repro.graph.quantize import as_int8
from repro.sim.functional import golden_batch, golden_outputs
from repro.sim.multichip import (
    Dispatcher,
    MultiChipReport,
    MultiChipSimulator,
    PipelineState,
    TransferEdge,
    assemble_stream_report,
    check_fleet,
    merge_shard_energy,
    sharding_edges,
    steady_state_interval,
    streaming_schedule,
    sum_energy,
)
from repro.workflow import (
    ArchLike,
    WorkflowResult,
    _resolve_batch_inputs,
    _validate_outputs,
    compile_model,
)


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

class ArrivalProcess:
    """When each submitted input becomes available to the system.

    Implementations return per-input *release cycles* (non-negative,
    served FIFO in submission order).  ``cycle_ns`` is the deployment's
    clock period, so rate-based processes can be specified in real-world
    inferences/second.
    """

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class BackToBack(ArrivalProcess):
    """Every input available at cycle 0 -- the PR-4 batched special case."""

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        return [0] * n

    def describe(self) -> str:
        return "back-to-back"


class FixedInterval(ArrivalProcess):
    """Deterministic arrivals every ``interval_cycles`` cycles."""

    def __init__(self, interval_cycles: int):
        if interval_cycles < 0:
            raise ConfigError(
                f"arrival interval must be >= 0 cycles, got {interval_cycles}"
            )
        self.interval_cycles = int(interval_cycles)

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        return [i * self.interval_cycles for i in range(n)]

    def describe(self) -> str:
        return f"fixed-interval {self.interval_cycles} cycles"


def _checked_rate(inf_per_s: float) -> float:
    # NaN passes ``<= 0`` and inf prices as a zero gap: name both here.
    if not (math.isfinite(inf_per_s) and inf_per_s > 0):
        raise ConfigError(
            f"arrival rate must be a finite number > 0 inferences/s, "
            f"got {inf_per_s}"
        )
    return float(inf_per_s)


class FixedRate(ArrivalProcess):
    """Deterministic arrivals at ``inf_per_s`` inferences/second."""

    def __init__(self, inf_per_s: float):
        self.inf_per_s = _checked_rate(inf_per_s)

    def interval_cycles(self, cycle_ns: float) -> int:
        return max(1, int(round(1e9 / (self.inf_per_s * cycle_ns))))

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        step = self.interval_cycles(cycle_ns)
        return [i * step for i in range(n)]

    def describe(self) -> str:
        return f"fixed-rate {self.inf_per_s:g} inf/s"


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a mean ``inf_per_s`` rate.

    ``seed`` is caller-provided and mandatory: the draw is fully
    reproducible (NumPy ``default_rng``), so a serving experiment can be
    replayed bit-exactly.
    """

    def __init__(self, inf_per_s: float, seed: int):
        self.inf_per_s = _checked_rate(inf_per_s)
        if seed < 0:
            raise ConfigError(f"arrival seed must be >= 0, got {seed}")
        self.seed = int(seed)

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        # ``cumsum`` accumulates float64 sequentially, exactly as a
        # running ``t += gap`` would, and ``rint`` rounds half to even
        # like ``round``: the same cycles as the scalar loop.  The
        # integral floats become Python ints, which cannot wrap.
        rng = np.random.default_rng(self.seed)
        mean_cycles = 1e9 / (self.inf_per_s * cycle_ns)
        gaps = rng.exponential(mean_cycles, size=n)
        return list(map(int, np.rint(np.cumsum(gaps)).tolist()))

    def describe(self) -> str:
        return f"poisson {self.inf_per_s:g} inf/s (seed {self.seed})"


class TraceArrivals(ArrivalProcess):
    """A recorded arrival trace: one release cycle per input.

    Release cycles must be non-decreasing: the queueing law admits
    inputs FIFO in submission order, so a trace whose entry ``i+1``
    releases *before* entry ``i`` describes a different arrival order
    than the one it would be served in.  Such a trace is rejected with
    :class:`~repro.errors.ConfigError` instead of silently serving the
    late release first-in-line; sort the recorded timestamps before
    constructing the trace.
    """

    def __init__(self, release_cycles: Sequence[int]):
        self.releases = [int(c) for c in release_cycles]
        if any(c < 0 for c in self.releases):
            raise ConfigError("trace release cycles must be >= 0")
        for i in range(1, len(self.releases)):
            if self.releases[i] < self.releases[i - 1]:
                raise ConfigError(
                    f"trace release cycles must be non-decreasing "
                    f"(inputs are served FIFO in submission order): "
                    f"entry {i} releases at {self.releases[i]}, after "
                    f"entry {i - 1} at {self.releases[i - 1]}; sort the "
                    f"trace first"
                )

    def __len__(self) -> int:
        return len(self.releases)

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        if n != len(self.releases):
            raise ConfigError(
                f"trace has {len(self.releases)} arrivals but {n} inputs "
                f"were submitted"
            )
        return list(self.releases)

    def describe(self) -> str:
        return _trace_label(len(self.releases))


def _trace_label(count: int) -> str:
    """How a recorded trace of ``count`` arrivals describes itself."""
    return f"trace[{count}]"


def check_batch(batch: int, minimum: int = 1) -> None:
    """The one input-count rule of a submission (an empty *trace* is
    the only way to submit less)."""
    if batch < minimum:
        raise ConfigError(f"batch must be >= {minimum}, got {batch}")


def _nearest_rank(ordered: Sequence[int], pct: float) -> int:
    """Nearest-rank percentile of an already-sorted, non-empty series."""
    if not 0.0 < pct <= 100.0:
        raise ConfigError(
            f"percentile must be in (0, 100], got {pct!r}"
        )
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return int(ordered[min(rank, len(ordered)) - 1])


def latency_percentiles(
    latencies: Sequence[int], pcts: Sequence[float]
) -> List[int]:
    """Nearest-rank percentiles (deterministic on integer cycle counts),
    all from one sort of ``latencies``.

    Each of ``pcts`` must lie in ``(0, 100]``: the 0th percentile is
    undefined under the nearest-rank definition (there is no rank 0) and
    anything above 100 would silently clamp to the maximum, so both are
    rejected with :class:`~repro.errors.ConfigError`.
    """
    ordered = sorted(latencies) or [0]
    return [_nearest_rank(ordered, pct) for pct in pcts]


def latency_percentile(latencies: Sequence[int], pct: float) -> int:
    """One nearest-rank percentile; see :func:`latency_percentiles`."""
    return latency_percentiles(latencies, [pct])[0]


# ---------------------------------------------------------------------------
# Serving reports
# ---------------------------------------------------------------------------

class _ServingMetrics:
    """The metrics every serving report derives the same way.

    :class:`ServeReport` and :class:`FleetReport` (a fleet of one *is* a
    deployment) supply the measured fields -- ``arch``, ``releases``,
    ``input_finishes``, ``makespan_cycles``, ``steady_interval_cycles``,
    ``energy_breakdown_pj`` -- plus ``latency_cycles`` and
    ``completed``; cycle->ms conversion, latency percentiles, achieved
    rate, energy totals and the shared ``to_dict`` block live here once.
    """

    #: What a latency percentile reads when nothing completed: ``0`` for
    #: a plain stream; a fleet, which can drop everything, says ``None``.
    _no_latency: Optional[int] = 0

    @property
    def cycle_ns(self) -> float:
        return self.arch.chip.cycle_ns

    def _ms(self, cycles: Optional[int]) -> Optional[float]:
        return None if cycles is None else cycles * self.cycle_ns / 1e6

    @property
    def makespan_ms(self) -> float:
        return self._ms(self.makespan_cycles)

    def _percentiles(
        self, pcts: Sequence[float], latencies: Optional[List[int]] = None
    ) -> List[Optional[int]]:
        """Nearest-rank percentiles of ``latency_cycles`` from one sort."""
        if latencies is None:
            latencies = self.latency_cycles
        ranks = latency_percentiles(latencies, pcts)
        return ranks if latencies else [self._no_latency] * len(ranks)

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

    def _latency_lines(self) -> List[str]:
        """The p50/p95/p99 lines of ``__str__``, from one sort."""
        pcts = (50, 95, 99)
        lines = []
        for pct, cycles in zip(pcts, self._percentiles(pcts)):
            value = (
                "n/a (0 completed)" if cycles is None
                else f"{cycles:,} cycles ({self._ms(cycles):.3f} ms)"
            )
            lines.append(f"latency p{pct}       : {value}")
        return lines

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
    def total_energy_pj(self) -> float:
        return sum(self.energy_breakdown_pj.values())

    @property
    def total_energy_mj(self) -> float:
        return self.total_energy_pj / 1e9

    def _metrics_dict(self) -> Dict:
        """The ``to_dict`` keys both report types share."""
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
        }


@dataclass
class ServeReport(_ServingMetrics):
    """One submission's view of the serving queueing model.

    Cycle accounting per input ``i``::

        release_i  (arrival)  <=  start_i  (enters shard 0)
        queue_i    = start_i  - release_i      (waiting for the pipeline)
        service_i  = finish_i - start_i        (inside the pipeline)
        latency_i  = finish_i - release_i      (what the client sees)

    ``shard_cycles`` is one input's per-shard occupancy (identical for
    every input: timing is data-independent under per-input isolation),
    ``shard_utilization`` each shard's busy fraction of the makespan,
    and ``steady_interval_cycles`` the closed-form bottleneck interval
    -- the saturation rate the deployment cannot exceed.  Energy, MACs
    and instruction counts sum over the whole stream.  ``stream_report``
    (cyclesim tier) is the aggregate :class:`MultiChipReport` in the
    PR-4 batched format, bit-identical to batched mode for back-to-back
    arrivals.
    """

    arch: ArchConfig
    tier: str
    batch: int
    arrival: str
    releases: List[int]
    service_starts: List[int]
    input_finishes: List[int]
    makespan_cycles: int
    steady_interval_cycles: int
    shard_cycles: List[int]
    shard_utilization: List[float]
    energy_breakdown_pj: Dict[str, float]
    macs: int = 0
    instructions: int = 0
    validated: bool = False
    stream_report: Optional[MultiChipReport] = field(default=None, repr=False)
    per_input_outputs: Optional[List[Dict[str, np.ndarray]]] = field(
        default=None, repr=False
    )
    golden: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False)
    #: Resident-weights session bookkeeping.  ``load_cycles`` is the
    #: weight-load phase THIS submission paid (0 on a warm submission);
    #: ``load_energy_pj`` its run-once energy, already included in
    #: ``energy_breakdown_pj``.
    resident: bool = False
    load_cycles: int = 0
    load_energy_pj: Dict[str, float] = field(default_factory=dict)

    # -- derived cycle series ----------------------------------------------
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
    def completed(self) -> int:
        """A plain stream drops nothing: every input completes."""
        return self.batch

    @property
    def saturation_inf_per_s(self) -> float:
        """The rate ceiling: one inference per bottleneck interval."""
        if self.steady_interval_cycles <= 0:
            return 0.0
        return 1e9 / (self.steady_interval_cycles * self.cycle_ns)

    @property
    def num_shards(self) -> int:
        return len(self.shard_cycles)

    @property
    def energy_per_inference_mj(self) -> float:
        return self.total_energy_mj / max(1, self.batch)

    def to_dict(self) -> Dict:
        payload = self._metrics_dict()
        payload.update({
            "num_shards": self.num_shards,
            "service_starts": [int(c) for c in self.service_starts],
            "queue_cycles": [int(c) for c in self.queue_cycles],
            "shard_cycles": [int(c) for c in self.shard_cycles],
            "shard_utilization": [float(u) for u in self.shard_utilization],
        })
        # Only resident sessions carry the load-amortization block, so a
        # non-resident report serializes byte-identically to before.
        if self.resident:
            payload["resident"] = True
            payload["load_cycles"] = int(self.load_cycles)
            payload["load_energy_pj"] = {
                k: float(v) for k, v in self.load_energy_pj.items()
            }
        return payload

    def __str__(self) -> str:
        lines = [
            f"tier              : {self.tier}",
            f"shards            : {self.num_shards}",
            f"inputs            : {self.batch} ({self.arrival})",
            f"makespan          : {self.makespan_cycles:,} cycles "
            f"({self.makespan_ms:.3f} ms)",
            f"sustained rate    : {self.throughput_inf_per_s:,.0f} inf/s "
            f"(saturation {self.saturation_inf_per_s:,.0f} inf/s)",
            *self._latency_lines(),
        ]
        queue = self.queue_cycles
        if queue:
            lines.append(
                f"queue wait        : mean {sum(queue) / len(queue):,.0f}, "
                f"max {max(queue):,} cycles"
            )
        lines.append(
            f"energy            : {self.total_energy_mj:.4f} mJ "
            f"({self.energy_per_inference_mj:.4f} mJ/inference)"
        )
        if self.resident:
            lines.append(
                f"resident load     : {self.load_cycles:,} cycles"
                + (
                    " (paid this submission)"
                    if self.load_cycles else " (session warm)"
                )
            )
        lines.append("shard utilization :")
        for k, util in enumerate(self.shard_utilization):
            lines.append(f"  chip {k}: {100 * util:5.1f}%")
        return "\n".join(lines)


def _shard_utilization(
    rows: Sequence[Sequence[int]], makespan: int
) -> List[float]:
    """Per-shard busy fraction of the stream makespan."""
    if not rows or makespan <= 0:
        return [0.0] * (len(rows[0]) if rows else 0)
    return [
        sum(row[k] for row in rows) / makespan for k in range(len(rows[0]))
    ]


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------

ModelLike = Union[str, ComputationGraph, CompiledModel, MultiChipModel]

#: ``(cycles, energy, macs, instructions)`` of a submission that paid no
#: resident weight-load phase (see ``Deployment._resident_load_profile``).
_NO_LOAD = (0, {}, 0, 0)


class Deployment:
    """A compiled model held resident across many submissions.

    ``Deployment(model, arch, chips=N)`` compiles exactly once (single-
    or multi-chip); :meth:`submit` and :meth:`run_trace` then drive the
    streaming scheduler with per-input release cycles from an
    :class:`ArrivalProcess`, and :meth:`run` executes one input in the
    classic latency mode.  ``model`` may also be an already-compiled
    :class:`CompiledModel` / :class:`MultiChipModel`, which the
    deployment adopts as-is.

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
        self.tier = tier
        self.engine = engine
        self.compiled: Union[CompiledModel, MultiChipModel, None] = None
        self._plans = None
        self._sharding = None
        self._fast = None  #: fast tier: cached analyze_pipeline result
        self._profile = None  #: cached (service row, transfer edges)

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
        elif tier == "fast":
            # Plan-only compilation: the fast tier never executes
            # instructions, so OP-level code generation is skipped.
            from repro.compiler.partition import shard_graph
            from repro.compiler.pipeline import plan_graph
            from repro.workflow import _resolve_arch, _resolve_graph

            graph = _resolve_graph(model, **model_kwargs)
            resolved = _resolve_arch(arch)
            if chips < 1:
                raise ConfigError(f"chip count must be >= 1, got {chips}")
            if chips > 1:
                self._sharding = shard_graph(graph, chips)
                self._plans = [
                    plan_graph(shard.graph, resolved, strategy, closure_limit)
                    for shard in self._sharding.shards
                ]
            else:
                self._plans = [
                    plan_graph(graph, resolved, strategy, closure_limit)
                ]
            self._graph = graph
            self._arch = resolved
        else:
            self.compiled = compile_model(
                model, arch, strategy, chips=chips,
                closure_limit=closure_limit, **model_kwargs
            )

        if self.compiled is not None:
            self._graph = self.compiled.graph
            self._arch = self.compiled.arch
            self._plans = [c.plan for c in self.compiled.chips]

        self.resident_weights = bool(resident_weights)
        #: Accounting flag: has this serving session already paid the
        #: weight-load phase?  A :class:`Fleet` toggles it per replica.
        self._resident_loaded = False
        self._resident_sim = None  #: cyclesim persistent simulator state
        self._resident_load_reports = None  #: measured load segments
        if self.resident_weights:
            self._check_resident_support()

    def _check_resident_support(self) -> None:
        if all(
            getattr(plan, "stages", None) is not None for plan in self._plans
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
        from repro.artifact import load_artifact

        if arch is not None:
            from repro.workflow import _resolve_arch

            arch = _resolve_arch(arch)
        return cls(
            load_artifact(path, arch=arch), tier=tier, engine=engine,
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
    def is_sharded(self) -> bool:
        return self.num_chips > 1

    @property
    def strategy(self) -> str:
        """The CG-level strategy the deployed plans were compiled with."""
        return self._plans[0].strategy

    def summary(self) -> str:
        if self.compiled is not None:
            return self.compiled.summary()
        lines = [plan.summary() for plan in self._plans]
        lines.append(f"  fast-tier deployment, {self.num_chips} chip(s)")
        return "\n".join(lines)

    def _transfer_edges(self) -> List[TransferEdge]:
        if self.compiled is not None:
            return [
                (t.src_chip, t.dst_chip, t.nbytes)
                for t in self.compiled.transfers
            ]
        if self._sharding is not None:
            return sharding_edges(self._sharding)
        return []

    def _service_profile(self):
        """(per-shard cycle row, transfer edges) of one input.

        Timing is data-independent under per-input isolation, so in the
        cyclesim tier a single probe submission measures the exact
        service row every admission prediction needs; the fast tier
        reads its analytical report.  Cached for the deployment's
        lifetime (the compile product is immutable).
        """
        if self._profile is None:
            edges = self._transfer_edges()
            if self.tier == "fast":
                row = list(self._fast_price()[0].shard_cycles)
            else:
                # The probe must not consume a resident session's cold
                # start: the accounting flag is restored so the first
                # real submission still pays the load phase.  (The
                # probe's shard_cycles are the warm row -- exactly the
                # per-input service profile a resident session
                # schedules.)
                loaded = self._resident_loaded
                probe = self.submit(batch=1, validate=False)
                self._resident_loaded = loaded
                row = list(probe.shard_cycles)
            self._profile = (row, edges)
        return self._profile

    def _load_offset(self, warm: bool) -> int:
        """The cycle a replica's weight load completes if it is a cold
        (``not warm``) replica of a resident session, else 0."""
        if not self.resident_weights or warm:
            return 0
        return self._resident_load_profile()[0]

    def _pipeline_states(self, warm=None) -> List[PipelineState]:
        """One fresh admission kernel per replica of this model.

        ``warm[r]`` says whether replica ``r`` holds its resident
        weights; the default is this deployment alone, which admits as
        a fleet of one.
        """
        if warm is None:
            warm = [self._resident_loaded]
        row, edges = self._service_profile()
        return [
            PipelineState(
                row, edges, self.arch.interchip,
                load_offset=self._load_offset(w),
            )
            for w in warm
        ]

    def _new_dispatcher(self) -> Dispatcher:
        """This deployment alone, admitting as a fleet of one."""
        return Dispatcher("rr", self._pipeline_states())

    def serve_forever(
        self,
        *,
        clock=None,
        seed: int = 0,
        validate: bool = True,
    ):
        """Open an async real-time serving session on this deployment.

        Must be awaited inside a running asyncio event loop; returns a
        :class:`repro.runtime.ServerHandle` whose ``submit()`` coroutine
        accepts wall-clock (or :class:`repro.runtime.VirtualClock`)
        requests and resolves a future per request with its completion
        cycle and latency.  See :mod:`repro.runtime`.
        """
        from repro.runtime import serve_forever

        return serve_forever(self, clock=clock, seed=seed, validate=validate)

    # -- single-input latency mode -----------------------------------------
    def run(
        self,
        input_data: Optional[np.ndarray] = None,
        *,
        validate: bool = True,
        seed: int = 0,
    ) -> WorkflowResult:
        """Execute one input end to end (classic latency mode).

        Cycle-level execution with the Fig. 2 bit-exact golden check.
        Requires ``tier="cyclesim"``.  The result's ``report`` is the
        pipeline's :class:`MultiChipReport`, except that a lone chip
        reports as itself (its :class:`SimulationReport`).
        """
        self._require_cyclesim("run()")
        from repro.sim.functional import random_input

        graph = self.graph
        if input_data is None:
            input_data = random_input(graph, seed=seed)
        else:
            input_data = as_int8(input_data, "input 0", ConfigError)
        input_tensor = graph.input_operators[0].output

        sim = MultiChipSimulator(self.compiled, engine=self.engine)
        sim.write_input(input_tensor, input_data)
        report = sim.run()
        outputs = {name: sim.read_output(name) for name in graph.outputs}
        if not self.is_sharded:
            report = report.chip_reports[0]

        golden = None
        validated = False
        if validate:
            golden = golden_outputs(graph, {input_tensor: input_data})
            _validate_outputs(graph, outputs, golden, self._label())
            validated = True
        return WorkflowResult(
            compiled=self.compiled,
            report=report,
            outputs=outputs,
            golden=golden,
            validated=validated,
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
    def _open_stream(self, inputs, batch, arrivals, seed, min_batch=1):
        """The front half every submission shares.

        Normalises ``arrivals`` (``None`` = :class:`BackToBack`, a bare
        sequence = :class:`TraceArrivals`), lets a trace set the default
        batch, resolves ``inputs`` and draws the release cycles.
        Returns ``(arrivals, resolved, releases)``; ``resolved`` is
        ``None`` in the fast tier, where timing is data-independent and
        ``inputs`` only sets/checks the batch (shape-validated like the
        cyclesim tier).  Only a trace may imply less than ``min_batch``.
        """
        if arrivals is None:
            arrivals = BackToBack()
        elif not isinstance(arrivals, ArrivalProcess):
            arrivals = TraceArrivals(arrivals)
        traced = isinstance(arrivals, TraceArrivals) and batch == 1
        if traced:
            batch = len(arrivals)
        else:
            check_batch(batch, min_batch)
        resolved = None
        if batch and (self.tier == "cyclesim" or inputs is not None):
            resolved = _resolve_batch_inputs(self.graph, inputs, batch, seed)
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
    ) -> ServeReport:
        """Submit a stream of inputs under an arrival process.

        ``inputs`` follows the batched-workflow conventions (``None``
        draws ``batch`` reproducible random inputs seeded ``seed``,
        ``seed+1``, ...; a list / stacked array of input tensors sets
        the batch implicitly).  ``arrivals`` is an
        :class:`ArrivalProcess` (default :class:`BackToBack`) or a bare
        sequence of release cycles; an empty :class:`TraceArrivals`
        yields an empty report.  The cyclesim tier validates every input
        bit-exactly against the golden model; the fast tier carries no
        functional outputs (``validate`` is ignored).
        """
        arrivals, resolved, releases = self._open_stream(
            inputs, batch, arrivals, seed
        )
        if not releases:
            return self._empty_report(arrivals.describe())
        if self.tier == "fast":
            report = self._submit_fast(releases, arrivals)
        else:
            report = self._submit_cyclesim(
                resolved, releases, arrivals, validate
            )
        if self.resident_weights:
            self._resident_loaded = True
        return report

    def run_trace(
        self,
        trace: Union[TraceArrivals, Sequence[int]],
        inputs=None,
        *,
        seed: int = 0,
        validate: bool = True,
    ) -> ServeReport:
        """Replay a recorded arrival trace (one release cycle per input).

        ``run_trace([0, 0, ..., 0])`` reproduces the batched streaming
        schedule of PR 4 exactly -- same makespan, bit-identical
        outputs.  An empty trace is legal and yields an empty report.
        """
        return self.submit(
            inputs, arrivals=trace, seed=seed, validate=validate
        )

    def _empty_report(self, arrival: str, load=None) -> ServeReport:
        """A zero-input report; ``load`` is a weight-load phase
        (:meth:`_resident_load_profile`) a replica paid without serving."""
        load_cycles, load_energy, load_macs, load_instr = load or _NO_LOAD
        return ServeReport(
            arch=self.arch,
            tier=self.tier,
            batch=0,
            arrival=arrival,
            releases=[],
            service_starts=[],
            input_finishes=[],
            makespan_cycles=0,
            steady_interval_cycles=0,
            shard_cycles=[0] * self.num_chips,
            shard_utilization=[0.0] * self.num_chips,
            energy_breakdown_pj=dict(load_energy),
            macs=load_macs,
            instructions=load_instr,
            per_input_outputs=[] if self.tier == "cyclesim" else None,
            resident=load is not None,
            load_cycles=load_cycles,
            load_energy_pj=dict(load_energy),
        )

    def _admit_stream(self, rows, releases):
        """Schedule one submission's measured rows; ``(load, schedule)``.

        Resident cold start: the load phase completes on every shard
        before the first input enters the pipeline, so the schedule sees
        releases clamped to the load-done cycle -- which is exactly what
        keeps makespan(B) = load + warm_makespan(1) + (B-1)*bottleneck.
        ``load`` is that phase's :meth:`_resident_load_profile` (zeros
        on a warm or non-resident submission).
        """
        load = _NO_LOAD
        if self.resident_weights and not self._resident_loaded:
            load = self._resident_load_profile()
        if load[0]:
            releases = [max(r, load[0]) for r in releases]
        return load, streaming_schedule(
            rows, self._transfer_edges(), self.arch.interchip, releases
        )

    def _serve_report(
        self, arrival, releases, starts, finishes, makespan, rows,
        energy, macs, instructions, load, **extra,
    ) -> ServeReport:
        """The report-assembly tail every non-empty stream shares:
        stream totals plus the weight-load phase ``load`` it paid."""
        load_cycles, load_energy, load_macs, load_instr = load
        return ServeReport(
            arch=self.arch,
            tier=self.tier,
            batch=len(releases),
            arrival=arrival,
            releases=list(releases),
            service_starts=starts,
            input_finishes=finishes,
            makespan_cycles=makespan,
            steady_interval_cycles=steady_state_interval(
                rows[0], self._transfer_edges(), self.arch.interchip
            ),
            shard_cycles=list(rows[0]),
            shard_utilization=_shard_utilization(rows, makespan),
            energy_breakdown_pj=sum_energy([energy, load_energy]),
            macs=macs + load_macs,
            instructions=instructions + load_instr,
            resident=self.resident_weights,
            load_cycles=load_cycles,
            load_energy_pj=dict(load_energy),
            **extra,
        )

    def _recorded_report(
        self, arrival, releases, starts, finishes, makespan, load=None,
        cost=None, validated=False,
    ) -> ServeReport:
        """One pipeline's report straight from recorded admissions (a
        :class:`~repro.sim.multichip.Dispatcher`'s, or the failover
        engine's full-service attempts): nothing is scheduled again,
        the recorded cycles are only priced.  ``cost`` is their measured
        ``(energy, MACs, instructions)`` (cyclesim tier; ``None`` reads
        the fast model), ``load`` a weight-load phase paid ahead of them.
        """
        count = len(releases)
        if not count:
            return self._empty_report(arrival, load)
        if cost is None:
            cost = self._fast_cost(count) + (0,)
        row = self._service_profile()[0]
        return self._serve_report(
            arrival, releases, starts, finishes, makespan, [row] * count,
            *cost, load or _NO_LOAD, validated=validated,
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

    def _validate(self, inputs, outputs, label, names=None):
        """Bit-exact golden check of every input; returns the first's
        golden outputs.  ``names[j]`` labels input ``j`` (default ``j``).
        The golden model runs the inputs group by group
        (:func:`repro.sim.functional.golden_batch`)."""
        graph = self.graph
        input_tensor = graph.input_operators[0].output
        goldens = golden_batch(graph, ({input_tensor: data} for data in inputs))
        golden = None
        for index, (expected, produced) in enumerate(zip(goldens, outputs)):
            name = index if names is None else names[index]
            _validate_outputs(
                graph, produced, expected, f"{label}, input {name}"
            )
            if golden is None:
                golden = expected
        return golden

    def _submit_cyclesim(
        self,
        inputs: Sequence[np.ndarray],
        releases: List[int],
        arrivals: ArrivalProcess,
        validate: bool,
    ) -> ServeReport:
        per_input_reports, per_input_outputs = self._execute(inputs)
        rows = [[r.cycles for r in reports] for reports in per_input_reports]
        load, schedule = self._admit_stream(rows, releases)
        starts, _, input_finishes, makespan = schedule
        stream_report = assemble_stream_report(
            self.arch, per_input_reports, self._transfer_edges(), schedule,
            self.compiled.interchip_bytes(),
        )
        golden = None
        if validate:
            label = (
                "resident session" if self.resident_weights
                else self._label()
            )
            golden = self._validate(
                inputs, per_input_outputs, f"{label}, serve {len(inputs)}"
            )
        return self._serve_report(
            arrivals.describe(), releases, [row[0] for row in starts],
            input_finishes, makespan, rows,
            stream_report.energy_breakdown_pj, stream_report.macs,
            stream_report.instructions, load,
            validated=bool(validate),
            stream_report=stream_report,
            per_input_outputs=list(per_input_outputs),
            golden=golden,
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
                self._plans, self._transfer_edges(), self.arch,
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

    def _submit_fast(
        self, releases: List[int], arrivals: ArrivalProcess
    ) -> ServeReport:
        dispatcher = self._new_dispatcher()
        for release in releases:
            dispatcher.dispatch(release)
        return self._report_dispatched(
            dispatcher, releases, arrivals.describe()
        )

    def _report_dispatched(
        self, dispatcher: Dispatcher, releases, arrival=None, replica=0
    ) -> ServeReport:
        """Fast tier: report what ``dispatcher`` admitted onto ``replica``
        (this deployment is replica 0 of its own :meth:`_new_dispatcher`),
        folded over ``releases`` by :meth:`submit` or fed them live by a
        :class:`repro.runtime.ServerHandle` (``arrival=None``: a recorded
        trace).  A cold resident session that served anything pays its
        weight load here and is warm afterwards.
        """
        mine = [
            i for i, r in enumerate(dispatcher.assignments) if r == replica
        ]
        load = None
        if mine and self.resident_weights:
            if not self._resident_loaded:
                load = self._resident_load_profile()
            self._resident_loaded = True
        finishes = [dispatcher.finishes[i] for i in mine]
        return self._recorded_report(
            arrival or _trace_label(len(mine)),
            [releases[i] for i in mine],
            [dispatcher.starts[i] for i in mine],
            finishes, max(finishes, default=0), load,
        )


# ---------------------------------------------------------------------------
# Replicated serving: Fleet
# ---------------------------------------------------------------------------

@dataclass
class FleetReport(_ServingMetrics):
    """One submission's view across all replicas of a :class:`Fleet`.

    ``assignments[i]`` names the replica that served global input ``i``;
    ``releases`` / ``input_finishes`` are in global submission order, so
    latency percentiles aggregate over the whole fleet.
    ``replica_reports[r]`` is replica ``r``'s own :class:`ServeReport`
    for its sub-stream (empty-report shaped when a replica received no
    inputs).  ``steady_interval_cycles`` is one replica's bottleneck
    interval; the fleet saturation rate is ``replicas`` times the
    single-replica ceiling.

    **Availability** (fault-injected submissions, :mod:`repro.faults`):
    ``assignments[i] == -1`` marks global input ``i`` as *dropped*
    (``drop_reasons`` says why, ``input_finishes[i] == 0``); request
    conservation always holds (``submitted == completed + dropped``).
    Latency series and percentiles cover completed requests only.
    ``attempt_counts`` is empty unless the failover engine ran; when it
    did, ``attempt_counts[i]`` counts input ``i``'s dispatches and
    ``retries`` the re-enqueues.  ``goodput_inf_per_s`` is the rate of
    *completed* work over the makespan; ``offered_inf_per_s`` the
    arrival-stream demand; ``replica_downtime[r]`` the injected
    crash/slowdown/degrade windows of replica ``r``.
    """

    arch: ArchConfig
    tier: str
    policy: str
    replicas: int
    batch: int
    arrival: str
    assignments: List[int]
    releases: List[int]
    input_finishes: List[int]
    makespan_cycles: int
    steady_interval_cycles: int
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
    #: Fault-injected submissions: per-replica busy cycles measured from
    #: the actually-executed attempt windows (crash-killed attempts count
    #: the cycles they ran before dying).  Empty on fault-free
    #: submissions, where every served input is one full service row.
    replica_busy_cycles: List[int] = field(default_factory=list)
    #: Resident-weights sessions: ``replica_load_cycles[r]`` is the
    #: weight-load phase replica ``r`` paid in THIS submission (0 when it
    #: was already warm or received no work).
    resident: bool = False
    replica_load_cycles: List[int] = field(default_factory=list)

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

    #: An all-dropped fleet has no latency distribution, and reporting
    #: "0 cycles" would read as a perfect one.
    _no_latency = None

    @property
    def saturation_inf_per_s(self) -> float:
        """The fleet ceiling: ``replicas`` inferences per bottleneck interval."""
        if self.steady_interval_cycles <= 0:
            return 0.0
        return self.replicas * 1e9 / (
            self.steady_interval_cycles * self.cycle_ns
        )

    @property
    def replica_batches(self) -> List[int]:
        return [report.batch for report in self.replica_reports]

    @property
    def replica_utilization(self) -> List[float]:
        """Mean shard busy fraction of the fleet makespan, per replica.

        Fault-free submissions use the exact closed form (every served
        input occupies each shard for its service row).  When the
        failover engine ran, busy cycles come from the recorded attempt
        windows instead (``replica_busy_cycles``): a full-service
        attempt charges one service row, and a crash-killed attempt
        charges the cycles it actually ran before dying -- counted once
        across the pipeline, an approximation that neither drops the
        partial work (the old bug) nor invents a phantom full row.
        """
        out = []
        for r, report in enumerate(self.replica_reports):
            if self.makespan_cycles <= 0 or report.num_shards == 0:
                out.append(0.0)
                continue
            if self.replica_busy_cycles:
                busy = self.replica_busy_cycles[r]
            else:
                busy = report.batch * sum(report.shard_cycles)
            out.append(busy / (report.num_shards * self.makespan_cycles))
        return out

    @property
    def energy_per_inference_mj(self) -> float:
        """Energy amortized over *completed* inferences (0 when none).

        A fault plan that drops requests must not dilute the per-
        inference cost over work that never finished.
        """
        if self.completed == 0:
            return 0.0
        return self.total_energy_mj / self.completed

    def to_dict(self) -> Dict:
        payload = self._metrics_dict()
        payload.update({
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
        })
        if self.resident:
            payload["resident"] = True
            payload["replica_load_cycles"] = [
                int(c) for c in self.replica_load_cycles
            ]
        return payload

    def __str__(self) -> str:
        lines = [
            f"tier              : {self.tier}",
            f"replicas          : {self.replicas} (policy {self.policy})",
            f"inputs            : {self.batch} ({self.arrival})",
            f"makespan          : {self.makespan_cycles:,} cycles "
            f"({self.makespan_ms:.3f} ms)",
            f"sustained rate    : {self.throughput_inf_per_s:,.0f} inf/s "
            f"(fleet saturation {self.saturation_inf_per_s:,.0f} inf/s)",
            *self._latency_lines(),
            f"energy            : {self.total_energy_mj:.4f} mJ "
            f"({self.energy_per_inference_mj:.4f} mJ/inference)",
        ]
        if self.resident:
            paid = ", ".join(
                f"r{r}={c:,}"
                for r, c in enumerate(self.replica_load_cycles)
            ) or "none"
            lines.append(f"resident load     : {paid} cycles")
        if self.attempt_counts:
            lines.append(
                f"conservation      : {self.submitted} submitted = "
                f"{self.completed} completed + {self.dropped} dropped"
            )
            lines.append(
                f"goodput           : {self.goodput_inf_per_s:,.0f} inf/s "
                f"(offered {self.offered_inf_per_s:,.0f} inf/s, "
                f"{self.retries} retries)"
            )
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


class Fleet:
    """R replicas of one compiled model behind a shared arrival stream.

    The model is compiled (or loaded from an artifact) exactly once; all
    replicas share the immutable compile product, which per-input
    isolation makes safe.  ``model`` accepts everything
    :class:`Deployment` does plus a path to a saved ``.artifact`` file::

        fleet = Fleet("model.artifact", replicas=4, policy="jsq")
        report = fleet.submit(batch=64, arrivals=FixedRate(8000))

    ``policy`` selects the dispatcher: ``"rr"`` (round-robin, input ``i``
    to replica ``i % R``) or ``"jsq"`` (join-shortest-queue on each
    replica's predicted in-flight count at release time, ties to the
    lowest index).  The cyclesim tier then executes each replica's
    sub-stream through the ordinary :meth:`Deployment.submit`; the fast
    tier reports each replica from the cycles the dispatcher recorded
    for it (the same queueing law, admitted once).  The per-replica
    reports merge into a :class:`FleetReport`.  With ``replicas=1`` the
    submission is passed through unchanged, so the fleet is
    bit-identical to a plain deployment.
    """

    def __init__(
        self,
        model,
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
        check_fleet(policy, replicas)
        self.num_replicas = int(replicas)
        self.policy = policy
        if _is_artifact_path(model):
            if (
                model_kwargs or chips != 1 or strategy != "dp"
                or closure_limit is not None
            ):
                raise ConfigError(
                    "an artifact carries its own sharding and strategy; "
                    "pass Fleet(artifact_path) with no compile keywords"
                )
            self.deployment = Deployment.load(
                model, arch, tier=tier, engine=engine,
                resident_weights=resident_weights,
            )
        else:
            self.deployment = Deployment(
                model, arch, chips=chips, strategy=strategy, engine=engine,
                tier=tier, closure_limit=closure_limit,
                resident_weights=resident_weights, **model_kwargs,
            )
        #: Resident sessions: which replicas hold loaded weights.  All
        #: replicas share one compile product and (cyclesim) one loaded
        #: simulator state -- identical by determinism -- but each pays
        #: its own load phase, and a crash invalidates the crashed
        #: replica's entry so failover re-pays the load.
        self._replica_warm = [False] * self.num_replicas

    # -- introspection ------------------------------------------------------
    @property
    def arch(self) -> ArchConfig:
        return self.deployment.arch

    @property
    def graph(self) -> ComputationGraph:
        return self.deployment.graph

    @property
    def tier(self) -> str:
        return self.deployment.tier

    @property
    def num_chips(self) -> int:
        return self.deployment.num_chips

    @property
    def strategy(self) -> str:
        return self.deployment.strategy

    def summary(self) -> str:
        return (
            f"{self.deployment.summary()}\n"
            f"  fleet: {self.num_replicas} replica(s), policy {self.policy}"
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
        """Open an async real-time serving session across the fleet.

        Like :meth:`Deployment.serve_forever`, with the fleet's rr/jsq
        dispatch and, when ``faults``/``retry`` are given, the failover
        engine routing each arrival online.  See :mod:`repro.runtime`.
        """
        from repro.runtime import serve_forever

        return serve_forever(
            self, clock=clock, seed=seed, validate=validate,
            faults=faults, retry=retry,
        )

    # -- dispatch -----------------------------------------------------------
    def _service_profile(self):
        """(per-shard cycle row, transfer edges) of one input."""
        return self.deployment._service_profile()

    def _pipeline_states(self) -> List[PipelineState]:
        return self.deployment._pipeline_states(self._replica_warm)

    def _new_dispatcher(self) -> Dispatcher:
        """The unfaulted step over this fleet's replicas as they stand."""
        return Dispatcher(self.policy, self._pipeline_states())

    def _new_engine(
        self, plan: Optional[FaultPlan], retry: Optional[RetryPolicy]
    ) -> FailoverEngine:
        """The faulted step over this fleet's replicas as they stand.
        Both tiers feed it the one-input service profile (timing is
        data-independent under per-input isolation), which makes the
        availability law tier-equivalent.

        A plan event naming a replica this fleet does not have would
        inject nothing, so it raises :class:`~repro.errors.FaultError`
        instead of reporting a clean run.  Sweeps price plans through
        :func:`repro.sim.fastmodel.serve_fleet`, not here: they cross
        one plan with several fleet sizes on purpose, and a replica a
        smaller fleet lacks is simply absent there.
        """
        if plan is not None:
            for event in plan.events:
                replica = getattr(event, "replica", None)
                if replica is not None and replica >= self.num_replicas:
                    raise FaultError(
                        f"fault event {event.describe()} names replica "
                        f"{replica}, but the fleet has {self.num_replicas} "
                        f"replica(s), 0..{self.num_replicas - 1}"
                    )
        dep = self.deployment
        row, edges = self._service_profile()
        return FailoverEngine(
            row, edges, self.arch.interchip, self.num_replicas,
            policy=self.policy, plan=plan, retry=retry,
            load_offsets=[
                dep._load_offset(warm) for warm in self._replica_warm
            ],
        )

    # -- submission ---------------------------------------------------------
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
        """Submit one stream, dispatched across the replicas.

        Arguments follow :meth:`Deployment.submit` exactly.  Inputs are
        drawn (or taken) at the *fleet* level in global submission
        order, then routed: replica sub-streams keep their global
        release cycles, so the merged report's latencies are what the
        clients of the whole fleet observe.

        ``faults`` injects a deterministic :class:`~repro.faults.
        FaultPlan`; ``retry`` overrides the plan's embedded
        :class:`~repro.faults.RetryPolicy`.  With a plan or policy in
        play the submission runs through the failover engine
        (:class:`repro.faults.FailoverEngine`): dead replicas stop
        receiving work, failed attempts are retried on survivors, and
        undeliverable requests are recorded as dropped (conservation:
        ``submitted == completed + dropped``).  ``faults=None`` (or an
        empty plan with no retry policy) takes the unfaulted path,
        bit-identical to a fault-free fleet in both tiers.
        """
        dep = self.deployment
        if engine_needed(faults, retry):
            return self._submit_faulted(
                inputs, batch, arrivals, seed, validate,
                faults if faults is not None else FaultPlan(), retry,
            )

        if self.num_replicas == 1:
            dep._resident_loaded = self._replica_warm[0]
            report = dep.submit(
                inputs, batch=batch, arrivals=arrivals, seed=seed,
                validate=validate,
            )
            self._replica_warm[0] = dep._resident_loaded
            return self._merge(
                [report], [0] * report.batch, report.releases, report.arrival
            )

        arrivals, resolved, releases = dep._open_stream(
            inputs, batch, arrivals, seed, min_batch=0
        )
        dispatcher = self._new_dispatcher()
        for release in releases:
            dispatcher.dispatch(release)
        if dep.tier == "fast":
            return self._report_dispatched(
                dispatcher, releases, arrivals.describe()
            )
        # The cyclesim tier executes each sub-stream and schedules its
        # measured rows; the dispatcher only chose the replicas.
        assignments = dispatcher.assignments
        reports: List[ServeReport] = []
        for replica in range(self.num_replicas):
            index = [i for i, a in enumerate(assignments) if a == replica]
            # Each replica tracks its own warmth; the shared deployment's
            # accounting flag is set per sub-stream.
            dep._resident_loaded = self._replica_warm[replica]
            reports.append(
                dep.submit(
                    None if resolved is None
                    else [resolved[i] for i in index],
                    arrivals=TraceArrivals([releases[i] for i in index]),
                    seed=seed, validate=validate,
                )
            )
            self._replica_warm[replica] = dep._resident_loaded
        return self._merge(
            reports, assignments, releases, arrivals.describe()
        )

    def _report_dispatched(
        self, dispatcher: Dispatcher, releases, arrival=None
    ) -> FleetReport:
        """Fast tier: the fleet's report of a stream its dispatcher has
        admitted (:meth:`Deployment._report_dispatched` per replica;
        sub-streams keep their global release cycles)."""
        dep = self.deployment
        reports: List[ServeReport] = []
        for replica in range(self.num_replicas):
            dep._resident_loaded = self._replica_warm[replica]
            reports.append(dep._report_dispatched(
                dispatcher, releases, replica=replica
            ))
            self._replica_warm[replica] = dep._resident_loaded
        return self._merge(
            reports, dispatcher.assignments, releases,
            arrival or _trace_label(len(releases)),
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
        """Replay a recorded arrival trace across the fleet."""
        return self.submit(
            inputs, arrivals=trace, seed=seed, validate=validate,
            faults=faults, retry=retry,
        )

    # -- fault-injected submission -----------------------------------------
    def _submit_faulted(
        self,
        inputs,
        batch: int,
        arrivals,
        seed: int,
        validate: bool,
        plan: FaultPlan,
        retry: Optional[RetryPolicy],
        engine: Optional[FailoverEngine] = None,
    ) -> FleetReport:
        """Run one stream through the failover engine, then report it.

        This half runs the schedule: a fresh :meth:`_new_engine` is fed
        the releases -- unless a live session hands in its own
        ``engine``, which has admitted exactly this stream already.
        :meth:`_schedule_report` is the other half.
        """
        rp = retry if retry is not None else (plan.retry or RetryPolicy())
        dep = self.deployment
        arrivals, resolved, releases = dep._open_stream(
            inputs, batch, arrivals, seed, min_batch=0
        )
        fault_fields = dict(
            fault_events=[e.to_dict() for e in plan.events],
            retry_policy=rp.to_dict(),
            replica_downtime=plan.replica_timeline(self.num_replicas),
        )
        if not releases:
            empty = [
                dep._empty_report(_trace_label(0))
                for _ in range(self.num_replicas)
            ]
            return self._merge(
                empty, [], [], arrivals.describe(), **fault_fields
            )
        if engine is None:
            engine = self._new_engine(plan, rp)
            for release in releases:
                engine.push(release)
        return self._schedule_report(
            engine.finish(), plan, arrivals.describe(), resolved, releases,
            validate, fault_fields,
        )

    def _schedule_report(
        self, schedule, plan, arrival, resolved, releases, validate,
        fault_fields,
    ) -> FleetReport:
        """Report a finished :class:`~repro.faults.FaultSchedule`.

        The cyclesim tier executes each request that received at least
        one full-service attempt exactly once on the exact simulator
        (bit-exact golden validation) and charges its measured energy
        once per full-service attempt; crash-killed attempts lose their
        partial work and are not charged.  Each replica's report reads
        its cycles straight off the engine's attempt records: the engine
        admits on the same kernel a replay would, so there is nothing
        left to cross-check.
        """
        dep = self.deployment
        row, edges = self._service_profile()
        load = dep._resident_load_profile() if dep.resident_weights else None
        # Which replicas paid their weight-load phase in this submission
        # (cold + received work); crashes then invalidate resident
        # weights, so failback re-pays the load next time.
        cold_paid = [
            dep.resident_weights
            and not self._replica_warm[r]
            and bool(schedule.replica_attempts[r])
            for r in range(self.num_replicas)
        ]
        if dep.resident_weights:
            for r in range(self.num_replicas):
                if plan.crash_cycle(r) is not None:
                    self._replica_warm[r] = False
                elif cold_paid[r]:
                    self._replica_warm[r] = True

        # Busy cycles from the actually-executed attempt windows: full-
        # service attempts charge one service row, crash-killed attempts
        # the cycles they ran before dying (counted once).
        busy_cycles = [
            sum(
                sum(row) if a.full_service
                else max(0, a.finish_cycle - a.start_cycle)
                for a in attempts
            )
            for attempts in schedule.replica_attempts
        ]

        req_reports, validated = None, False
        if dep.tier == "cyclesim":
            # A request with at least one full-service attempt executed
            # on real hardware; per-input isolation makes one execution's
            # report and outputs exact for every full-service attempt of
            # that request (crash-killed attempts never finished).
            wanted = sorted({
                a.request for a in schedule.attempts if a.full_service
            })
            served = [resolved[i] for i in wanted]
            per_reports, per_outputs = dep._execute(served)
            req_reports = dict(zip(wanted, per_reports))
            if validate:
                dep._validate(served, per_outputs, "faulted serve", wanted)
                validated = True

        reports = [
            self._faulted_replica_report(
                schedule.replica_attempts[r], req_reports, validated,
                load if cold_paid[r] else None,
            )
            for r in range(self.num_replicas)
        ]
        return self._fleet_report(
            reports, arrival, schedule.assignments, releases,
            schedule.finishes, schedule.makespan,
            steady_state_interval(row, edges, self.arch.interchip),
            dropped_indices=list(schedule.dropped),
            drop_reasons=dict(schedule.drop_reasons),
            attempt_counts=list(schedule.attempt_counts),
            retries=schedule.retries,
            replica_busy_cycles=busy_cycles,
            resident=dep.resident_weights,
            replica_load_cycles=(
                [load[0] if paid else 0 for paid in cold_paid]
                if dep.resident_weights else []
            ),
            **fault_fields,
        )

    def _faulted_replica_report(
        self, records, req_reports, validated, load=None,
    ) -> ServeReport:
        """One replica's ServeReport under the fault plan.

        ``records`` are the replica's attempts in admission order;
        the report covers the full-service ones, and energy/MACs charge
        one full per-inference cost per full-service attempt.  ``load``
        (resident sessions; :meth:`Deployment._resident_load_profile`)
        adds the weight-load phase a cold replica paid before its first
        attempt -- real even if every attempt was then crash-killed.
        """
        dep = self.deployment
        full = [a for a in records if a.full_service]
        cost = None
        if dep.tier == "cyclesim":
            flat = [rep for a in full for rep in req_reports[a.request]]
            cost = (
                merge_shard_energy(
                    [rep.energy_breakdown_pj for rep in flat],
                    dep.compiled.interchip_bytes() * len(full),
                    self.arch.interchip,
                ),
                sum(rep.macs for rep in flat),
                sum(rep.instructions for rep in flat),
            )
        return dep._recorded_report(
            _trace_label(len(full)),
            [a.dispatch_cycle for a in full],
            [a.start_cycle for a in full],
            [a.finish_cycle for a in full],
            max((a.finish_cycle for a in records), default=0),
            load, cost, validated,
        )

    def _merge(
        self,
        reports: List[ServeReport],
        assignments: List[int],
        releases: List[int],
        arrival: str,
        **fields,
    ) -> FleetReport:
        """Merge per-replica reports of directly-admitted sub-streams."""
        finishes = [0] * len(assignments)
        cursor = [0] * len(reports)
        for i, replica in enumerate(assignments):
            finishes[i] = reports[replica].input_finishes[cursor[replica]]
            cursor[replica] += 1
        resident = self.deployment.resident_weights
        return self._fleet_report(
            reports, arrival, assignments, releases, finishes,
            max(r.makespan_cycles for r in reports),
            max(r.steady_interval_cycles for r in reports),
            resident=resident,
            replica_load_cycles=(
                [r.load_cycles for r in reports] if resident else []
            ),
            **fields,
        )

    def _fleet_report(
        self, reports, arrival, assignments, releases, finishes, makespan,
        steady_interval, **fields,
    ) -> FleetReport:
        """The assembly tail both submission paths share: totals sum
        over the replica reports."""
        served = [r for r in reports if r.batch]
        return FleetReport(
            arch=self.arch,
            tier=self.tier,
            policy=self.policy,
            replicas=self.num_replicas,
            batch=len(assignments),
            arrival=arrival,
            assignments=list(assignments),
            releases=list(releases),
            input_finishes=list(finishes),
            makespan_cycles=makespan,
            steady_interval_cycles=steady_interval,
            replica_reports=reports,
            energy_breakdown_pj=sum_energy(
                [r.energy_breakdown_pj for r in reports]
            ),
            macs=sum(r.macs for r in reports),
            instructions=sum(r.instructions for r in reports),
            validated=bool(served) and all(r.validated for r in served),
            **fields,
        )


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
