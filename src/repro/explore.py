"""Design-space exploration engine behind the paper's evaluation section.

The paper's Sec. IV experiments are all cross-product sweeps over the
same axes -- models x compilation strategies x macro-group sizes x NoC
flit widths x input resolutions.  This module turns that into a proper
subsystem:

- :class:`SweepSpec` declaratively describes the cross product;
- :func:`run_sweep` executes it, fanning points out over a
  ``concurrent.futures.ProcessPoolExecutor`` (each worker keeps its own
  model-graph cache) and consulting an optional content-addressed on-disk
  :class:`~repro.explore_cache.ResultCache` so repeated sweeps skip
  already-evaluated points;
- :func:`evaluate_fast` plans and analyses a single point in-process
  (returning the full :class:`~repro.compiler.plan.ExecutionPlan` for
  inspection).

The figure drivers are thin wrappers over the engine:

- :func:`strategy_comparison` -- Fig. 5 (normalized speed/energy of the
  three compilation strategies);
- :func:`mg_flit_sweep` -- Fig. 6 (energy breakdown and throughput across
  macro-group sizes and NoC flit widths);
- :func:`design_space` -- Fig. 7 (the SW/HW co-design scatter).

The ``python -m repro sweep`` CLI (:mod:`repro.cli`) exposes the engine
from the command line with JSON/CSV export.  See ``docs/ARCHITECTURE.md``
("Design-space exploration") for the full picture.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import product
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.config import (
    ArchConfig,
    arch_fingerprint,
    default_arch,
    with_flit_bytes,
    with_mg_size,
)
from repro.errors import ConfigError
from repro.explore_cache import (
    ResultCache,
    SweepManifest,
    point_key,
    sweep_fingerprint,
)
from repro.sim.report import FastReport

# Specs, results and the cache pass of run_sweep need nothing heavier
# than the above: a sweep served from the cache never loads numpy, the
# model zoo, the planner or the fast model.  Those are imported by the
# functions that build graphs, plan, analyse and fan out.
if TYPE_CHECKING:
    from repro.compiler.partition import ShardingPlan
    from repro.compiler.plan import ExecutionPlan
    from repro.faults import FaultPlan
    from repro.graph.graph import ComputationGraph
    from repro.sim.multichip import MultiChipReport

#: Axes the paper sweeps in Fig. 6 / Fig. 7.
MG_SIZES = (4, 8, 12, 16)
FLIT_SIZES = (8, 16)

#: Rough relative evaluation cost of each zoo model (dominated by DP
#: closure enumeration and per-node lowering at paper resolution),
#: used only to order sweep work -- never to change results.
_MODEL_COST = {
    "vgg19": 8.0,
    "efficientnetb0": 6.0,
    "resnet18": 3.0,
    "mobilenetv2": 2.5,
    "tiny_mlp": 0.05,
    "tiny_cnn": 0.08,
    "tiny_resnet": 0.1,
}

_STRATEGY_COST = {"generic": 1.0, "duplication": 1.6, "dp": 4.0}

#: Per-model closure limit: a plain int, a {model: limit} map, or None.
#: Mappings are normalised to sorted (model, limit) tuples inside
#: :class:`SweepSpec` so specs stay hashable.
ClosureLimit = Union[
    None,
    int,
    Mapping[str, Optional[int]],
    Tuple[Tuple[str, Optional[int]], ...],
]


# ---------------------------------------------------------------------------
# Sweep coordinates
# ---------------------------------------------------------------------------

def _positive(value: Any) -> bool:
    return isinstance(value, int) and value > 0


def _rate_or_none(value: Any) -> bool:
    return value is None or (
        isinstance(value, (int, float)) and math.isfinite(value) and value > 0
    )


def _fault_plan_or_none(value: Any) -> bool:
    if value is None:
        return True
    from repro.faults import FaultPlan  # loads only when a plan is named

    return isinstance(value, FaultPlan)


def _boolean(value: Any) -> bool:
    return isinstance(value, bool)


def _coordinate(default: Any = MISSING, *, plural: Optional[str] = None,
                rule: Optional[Callable[[Any], bool]] = None,
                message: Optional[str] = None, key: Optional[str] = None,
                row: bool = True, continuation: bool = False,
                hardware: bool = False):
    """One sweep coordinate: a :class:`PointSpec` field plus what the
    engine must know about it, so that nothing else names it.

    ``plural`` is the :class:`SweepSpec` field that sweeps it (``None``:
    one value per sweep); ``rule`` / ``message`` the check every value
    passes and the :class:`ConfigError` text when one does not (or when
    the axis is empty); ``key`` the :func:`point_key` parameter it feeds
    where that is not its own name; ``row`` whether result rows list it;
    ``continuation`` whether it is a closed-form continuation of the
    base analysis (priced by :func:`_derive_report`, reset by
    :func:`_base_spec`); ``hardware`` whether it overrides the base
    architecture -- such an axis may be left unswept, varies innermost
    and reaches the cache key through the architecture fingerprint.
    """
    return field(default=default, metadata={
        "plural": plural, "rule": rule, "message": message, "key": key,
        "row": row, "continuation": continuation, "hardware": hardware,
    })


@dataclass(frozen=True)
class PointSpec:
    """Fully-resolved coordinates of one sweep point (picklable).

    ``mg_size`` / ``flit_bytes`` of ``None`` mean "keep the base
    architecture's value" -- used by sweeps that only vary software axes.

    The fields *are* the axis table (:data:`AXES`): declaration order is
    the key order of result rows and sweep-spec files and, hardware axes
    aside, the nesting order of the cross product.
    """

    model: str = _coordinate(
        plural="models", message="sweep needs at least one model")
    strategy: str = _coordinate(
        plural="strategies", message="sweep needs at least one strategy")
    mg_size: Optional[int] = _coordinate(
        None, plural="mg_sizes", hardware=True)
    flit_bytes: Optional[int] = _coordinate(
        None, plural="flit_sizes", hardware=True)
    input_size: int = _coordinate(
        224, plural="input_sizes",
        message="sweep needs at least one input size")
    num_classes: int = _coordinate(1000)
    closure_limit: Optional[int] = _coordinate(None, row=False)
    chips: int = _coordinate(
        1, plural="chip_counts", rule=_positive,
        message="chip counts must be positive")
    batch: int = _coordinate(
        1, plural="batch_sizes", rule=_positive, continuation=True,
        message="batch sizes must be positive")
    arrival_rate: Optional[float] = _coordinate(
        None, plural="arrival_rates", rule=_rate_or_none, continuation=True,
        message="arrival rates must be finite and positive "
                "(None = back-to-back)")
    replicas: int = _coordinate(
        1, plural="replica_counts", rule=_positive, continuation=True,
        message="replica counts must be positive")
    fault_plan: Optional[FaultPlan] = _coordinate(
        None, plural="fault_plans", rule=_fault_plan_or_none,
        continuation=True, key="fault_fingerprint",
        message="fault plans must be FaultPlan instances "
                "(None = fault-free)")
    resident_weights: bool = _coordinate(
        False, plural="resident_modes", rule=_boolean, key="resident",
        message="resident modes must be booleans "
                "(False = reload weights per input)")

    def coordinates(self, form: Optional[str] = None) -> Dict[str, Any]:
        """Every coordinate by name, in declaration order; JSON-safe
        (see :func:`_plain`) when a ``form`` is named."""
        values = _all_of(self)
        return dict(zip(_NAMES, _plain(values, form) if form else values))

    def resolve_arch(self, base: ArchConfig) -> ArchConfig:
        arch = base
        if self.mg_size is not None:
            arch = with_mg_size(arch, self.mg_size)
        if self.flit_bytes is not None:
            arch = with_flit_bytes(arch, self.flit_bytes)
        return arch

    def cache_key(self, base: ArchConfig) -> str:
        return self.key_for(arch_fingerprint(self.resolve_arch(base)))

    def key_for(self, arch_print: str) -> str:
        """The cache key, given the resolved architecture's fingerprint
        (:func:`run_sweep` computes one per distinct architecture, not
        one per point)."""
        material = _plain(_keyed_of(self), "fingerprint")
        return point_key(arch=arch_print, **dict(zip(_KEY_PARAMS, material)))


#: The axis table: one entry per sweep coordinate, declared nowhere else.
AXES = fields(PointSpec)

# Names and readers are fixed here, once: a warm sweep serialises and
# keys a point in ~50 us, so nothing walks the metadata per point.
_NAMES = tuple(axis.name for axis in AXES)
_ROW_NAMES = tuple(axis.name for axis in AXES if axis.metadata["row"])
_KEYED = tuple(axis for axis in AXES if not axis.metadata["hardware"])
_KEY_PARAMS = tuple(axis.metadata["key"] or axis.name for axis in _KEYED)
_all_of = attrgetter(*_NAMES)
_rows_of = attrgetter(*_ROW_NAMES)
_keyed_of = attrgetter(*(axis.name for axis in _KEYED))
_BASE_VALUES = {
    axis.name: axis.default for axis in AXES if axis.metadata["continuation"]
}
_SWEPT = tuple(axis for axis in AXES if axis.metadata["plural"])
#: Cross-product nesting, outer to inner: software and serving axes in
#: declaration order, then the hardware overrides, MG size fastest.
_NESTING = (
    tuple(axis for axis in _SWEPT if not axis.metadata["hardware"])
    + tuple(axis for axis in reversed(_SWEPT) if axis.metadata["hardware"])
)

_SCALARS = (type(None), bool, int, float, str)


def _plain(values: Iterable[Any], form: str) -> List[Any]:
    """JSON-safe forms of coordinate values: a scalar as it is, an
    object (a fault plan) through its ``form`` method -- ``fingerprint``
    in cache keys, ``describe`` in result rows, ``to_dict`` in specs."""
    return [
        value if isinstance(value, _SCALARS) else getattr(value, form)()
        for value in values
    ]


def _check_axis(axis, values: Optional[Tuple[Any, ...]]) -> None:
    """The one value rule of a coordinate, applied by :class:`SweepSpec`
    to an axis and by :func:`evaluate_fast` to a single value."""
    rule = axis.metadata["rule"]
    if not values or not (rule is None or all(map(rule, values))):
        raise ConfigError(axis.metadata["message"])


@dataclass(frozen=True)
class DesignPoint(PointSpec):
    """One evaluated (model, architecture, strategy) combination: its
    coordinates (``mg_size`` / ``flit_bytes`` resolved to what the
    architecture carries) plus the report."""

    # Required, but it follows defaulted coordinates (keyword-only
    # fields need Python 3.10): __post_init__ rejects a missing one.
    report: FastReport = None  # type: ignore[assignment]
    plan: Optional[ExecutionPlan] = field(repr=False, default=None)
    cached: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.report is None:
            raise TypeError("DesignPoint() needs a report")

    @property
    def cycles(self) -> int:
        return self.report.cycles

    @property
    def energy_mj(self) -> float:
        return self.report.total_energy_mj

    @property
    def tops(self) -> float:
        return self.report.tops

    @property
    def throughput_inf_s(self) -> float:
        """Sustained inferences/second (steady-state streaming rate).

        Fleet points (``replicas > 1``) scale linearly: each replica
        sustains the per-replica steady-state rate independently.
        """
        return self.report.throughput_inf_per_s * self.replicas

    @property
    def energy_per_inf_mj(self) -> float:
        return self.report.energy_per_inference_mj

    def _cycles_to_ms(self, cycles: int) -> float:
        return cycles / (self.report.clock_mhz * 1e3)

    @property
    def p50_latency_ms(self) -> Optional[float]:
        """p50 serving latency (arrival-rate points only, else ``None``)."""
        if self.arrival_rate is None:
            return None
        return self._cycles_to_ms(self.report.p50_latency_cycles)

    @property
    def p95_latency_ms(self) -> Optional[float]:
        if self.arrival_rate is None:
            return None
        return self._cycles_to_ms(self.report.p95_latency_cycles)

    @property
    def p99_latency_ms(self) -> Optional[float]:
        if self.arrival_rate is None:
            return None
        return self._cycles_to_ms(self.report.p99_latency_cycles)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form used by the CLI exporters (plan is not included)."""
        return {
            **dict(zip(_ROW_NAMES, _plain(_rows_of(self), "describe"))),
            "load_cycles": self.report.load_cycles,
            "dropped": self.report.dropped,
            "retries": self.report.retries,
            "goodput_inf_s": self.report.goodput_inf_per_s,
            "cycles": self.cycles,
            "time_ms": self.report.time_ms,
            "energy_mj": self.energy_mj,
            "tops": self.tops,
            "throughput_inf_s": self.throughput_inf_s,
            "energy_per_inf_mj": self.energy_per_inf_mj,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "cached": self.cached,
            "energy_groups_mj": self.report.grouped_energy_mj(),
            "report": self.report.to_dict(),
        }


def pareto_filter(items, coords: Callable[[Any], Tuple[float, float]]):
    """Non-dominated subset of ``items`` under (minimise, maximise).

    ``coords(item)`` returns ``(cost, benefit)``; an item survives iff
    no other item has cost <= and benefit >= with at least one strict
    inequality.  Coincident duplicates keep only the first occurrence;
    the result is sorted by ascending cost.  Shared by
    :meth:`SweepResult.pareto_front` and the CLI's ``report --pareto``.
    """
    items = list(items)
    pairs = [coords(item) for item in items]
    seen = set()
    front = []
    for (cost, benefit), item in zip(pairs, items):
        if (cost, benefit) in seen:
            continue
        dominated = any(
            (oc <= cost and ob >= benefit) and (oc < cost or ob > benefit)
            for oc, ob in pairs
        )
        if not dominated:
            seen.add((cost, benefit))
            front.append(item)
    return sorted(front, key=lambda item: (coords(item)[0], -coords(item)[1]))


_graph_cache: Dict[Tuple[str, int, int], ComputationGraph] = {}


def _cached_graph(model: str, input_size: int, num_classes: int) -> ComputationGraph:
    """Process-local model-graph cache.

    Sweep workers are separate processes, so each naturally keeps its own
    copy and a model built once per worker is reused for every strategy /
    architecture point that worker evaluates.
    """
    key = (model, input_size, num_classes)
    if key not in _graph_cache:
        from repro.graph.models import get_model

        _graph_cache[key] = get_model(
            model, input_size=input_size, num_classes=num_classes
        )
    return _graph_cache[key]


_sharding_cache: Dict[Tuple[str, int, int, int], ShardingPlan] = {}


def _cached_sharding(
    model: str, input_size: int, num_classes: int, chips: int
) -> ShardingPlan:
    """Process-local sharding cache, next to :func:`_cached_graph`.

    The cuts and shard subgraphs depend on the graph and the chip count
    only, so every strategy / architecture point of a worker shares one
    :class:`ShardingPlan` (planning and analysis only read it).
    """
    key = (model, input_size, num_classes, chips)
    if key not in _sharding_cache:
        from repro.compiler.partition import shard_graph

        _sharding_cache[key] = shard_graph(
            _cached_graph(model, input_size, num_classes), chips
        )
    return _sharding_cache[key]


def plan_graph(
    graph: ComputationGraph,
    arch: ArchConfig,
    strategy: str,
    closure_limit: Optional[int] = None,
) -> ExecutionPlan:
    """Plan one (shard) graph at the CG level.

    The sweep engine's one call into the compiler
    (:func:`repro.compiler.pipeline.plan_graph`), made once per base
    point that misses the cache -- so the compiler is imported here and
    not at module level, where a sweep served from the cache would pay
    for it.
    """
    from repro.compiler.pipeline import plan_graph as plan

    return plan(graph, arch, strategy, closure_limit)


def _rate_releases(arch: ArchConfig, rate: float, batch: int) -> List[int]:
    """Fixed-rate release cycles for an ``arrival_rate`` sweep point."""
    from repro.serve import FixedRate

    return FixedRate(rate).release_cycles(batch, arch.chip.cycle_ns)


def evaluate_fast(
    model: str,
    arch: Optional[ArchConfig] = None,
    strategy: str = "dp",
    input_size: int = 224,
    num_classes: int = 1000,
    **coords: Any,
) -> DesignPoint:
    """Plan and analyse one design point with the fast model.

    Unlike :func:`run_sweep` results, the returned point carries the full
    :class:`ExecutionPlan` for inspection (the *first shard's* plan for
    multi-chip points -- ``chips > 1`` pipeline-shards the model and
    composes the per-shard analyses over the inter-chip link model).
    ``batch > 1`` evaluates the point in throughput mode: a multi-chip
    pipeline streams the batch (closed-form ``fill + drain + (B-1) *
    bottleneck`` law), a single chip replays it sequentially.
    ``arrival_rate`` (inferences/s) instead releases the batch at a
    fixed rate through the serving queueing law
    (:func:`repro.sim.fastmodel.serve_arrivals`), adding latency
    percentiles to the report.  ``replicas > 1`` prices a serving
    fleet: the releases are round-robined across that many identical
    replicas (:func:`repro.sim.fastmodel.serve_fleet`).  ``fault_plan``
    replays a deterministic :class:`repro.faults.FaultPlan` against the
    fleet, adding dropped/retry counts and goodput to the report.
    ``resident_weights`` prices a resident-weights serving session
    (:class:`repro.serve.Deployment` with ``resident_weights=True``):
    every input replays the *warm* per-shard analysis (hoistable weight
    loads removed), the session pays the run-once load phase before the
    first release, and the hoisted load energy is charged exactly once
    rather than per input.

    ``coords`` are the remaining :class:`PointSpec` coordinates by name;
    each value passes the rule a :class:`SweepSpec` applies to that axis
    (same :class:`~repro.errors.ConfigError`).
    """
    pspec = PointSpec(
        model=model, strategy=strategy, input_size=input_size,
        num_classes=num_classes, **coords,
    )
    for axis in AXES:
        _check_axis(axis, (getattr(pspec, axis.name),))
    arch = pspec.resolve_arch(arch or default_arch())
    bundle, plan = _analyze_base(pspec, arch)
    return _point_from_report(
        pspec, arch, _derive_report(pspec, arch, bundle), plan=plan
    )


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a cross-product design-space sweep.

    Axes with value ``None`` are not varied: the corresponding parameter
    of ``base_arch`` is used unchanged.  ``chip_counts`` is the
    multi-chip sharding axis (``(1,)`` by default: single chip);
    ``batch_sizes`` is the streaming-batch axis (``(1,)`` by default:
    single-shot latency mode); ``arrival_rates`` is the serving axis
    (inferences/s offered at a fixed rate -- ``(None,)`` by default:
    back-to-back batched mode; rate points add p50/p95/p99 latency to
    the report); ``replica_counts`` is the fleet axis (``(1,)`` by
    default: a single deployment; ``R > 1`` round-robins the offered
    stream across R identical replicas, pricing replicas-vs-chips
    trade-offs); ``fault_plans`` is the availability axis (``(None,)``
    by default: fault-free serving; a :class:`repro.faults.FaultPlan`
    entry replays that deterministic fault schedule against the fleet,
    pricing capacity under failures); ``resident_modes`` is the
    resident-weights axis (``(False,)`` by default: every input re-pays
    its weight loads; a ``True`` entry prices a resident serving
    session -- warm per-input replay after a run-once load phase, load
    energy charged once per session).  ``closure_limit`` bounds the DP
    partitioner's closure
    enumeration and may be given per model (Fig. 7 caps EfficientNetB0
    at 64 to keep the sweep tractable).
    """

    models: Tuple[str, ...]
    strategies: Tuple[str, ...] = ("dp",)
    mg_sizes: Optional[Tuple[int, ...]] = None
    flit_sizes: Optional[Tuple[int, ...]] = None
    input_sizes: Tuple[int, ...] = (224,)
    num_classes: int = 1000
    base_arch: Optional[ArchConfig] = None
    closure_limit: ClosureLimit = None
    chip_counts: Tuple[int, ...] = (1,)
    batch_sizes: Tuple[int, ...] = (1,)
    arrival_rates: Tuple[Optional[float], ...] = (None,)
    replica_counts: Tuple[int, ...] = (1,)
    fault_plans: Tuple[Optional[FaultPlan], ...] = (None,)
    resident_modes: Tuple[bool, ...] = (False,)

    def __post_init__(self):
        for axis in _SWEPT:
            plural = axis.metadata["plural"]
            values = getattr(self, plural)
            if isinstance(values, str):
                raise ConfigError(
                    f"{plural} must be a sequence of values, "
                    f"not the bare string {values!r}"
                )
            # Normalise iterables handed in as lists/generators to tuples
            # so the spec stays hashable and its cross product is
            # re-iterable.
            if values is not None and not isinstance(values, tuple):
                values = tuple(values)
                object.__setattr__(self, plural, values)
            if not axis.metadata["hardware"]:
                _check_axis(axis, values)
        if isinstance(self.closure_limit, Mapping):
            object.__setattr__(
                self,
                "closure_limit",
                tuple(sorted(self.closure_limit.items())),
            )

    def arch(self) -> ArchConfig:
        return self.base_arch or default_arch()

    def limit_for(self, model: str) -> Optional[int]:
        if isinstance(self.closure_limit, tuple):
            return dict(self.closure_limit).get(model)
        return self.closure_limit

    def _values(self, axis) -> Tuple[Any, ...]:
        """The values an axis takes (an unswept hardware axis: the one
        ``None`` that keeps the base architecture's value)."""
        return getattr(self, axis.metadata["plural"]) or (axis.default,)

    def points(self) -> List[PointSpec]:
        """The cross product, in deterministic order.

        Order (outer to inner): model, strategy, input size, chip count,
        batch size, arrival rate, replica count, fault plan, resident
        mode, flit width, MG size -- matching the row order of the
        paper's figure tables (the serving axes ride between the
        software and hardware axes).
        """
        names = [axis.name for axis in _NESTING]
        out: List[PointSpec] = []
        for values in product(*map(self._values, _NESTING)):
            coords = dict(zip(names, values))
            out.append(PointSpec(
                num_classes=self.num_classes,
                closure_limit=self.limit_for(coords["model"]),
                **coords,
            ))
        return out

    def __len__(self) -> int:
        return math.prod(len(self._values(axis)) for axis in _SWEPT)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for sweep-result files (base arch by fingerprint)."""
        out: Dict[str, Any] = {}
        for axis in AXES:
            plural = axis.metadata["plural"]
            if plural is None:
                value = getattr(self, axis.name)
                # per-model closure limits are (model, limit) pairs
                out[axis.name] = (
                    dict(value) if isinstance(value, tuple) else value
                )
            else:
                values = getattr(self, plural)
                out[plural] = _plain(values, "to_dict") if values else None
        out["arch_fingerprint"] = arch_fingerprint(self.arch())
        out["num_points"] = len(self)
        return out


# ---------------------------------------------------------------------------
# Execution engine
# ---------------------------------------------------------------------------

@dataclass
class SweepStats:
    """Bookkeeping of one :func:`run_sweep` execution.

    ``resumed_points`` counts cache hits whose keys a previous
    *interrupted* run of the same spec had journalled in the sweep
    manifest -- i.e. how far through the cross product the restart
    picked up.
    """

    total_points: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    resumed_points: int = 0
    workers: int = 1
    wall_time_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total_points if self.total_points else 0.0


@dataclass
class SweepResult:
    """Evaluated sweep: points in :meth:`SweepSpec.points` order + stats."""

    spec: SweepSpec
    points: List[DesignPoint]
    stats: SweepStats

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def by_model(self) -> Dict[str, List[DesignPoint]]:
        out: Dict[str, List[DesignPoint]] = {}
        for pt in self.points:
            out.setdefault(pt.model, []).append(pt)
        return out

    def by_model_strategy(self) -> Dict[str, Dict[str, List[DesignPoint]]]:
        out: Dict[str, Dict[str, List[DesignPoint]]] = {}
        for pt in self.points:
            out.setdefault(pt.model, {}).setdefault(pt.strategy, []).append(pt)
        return out

    def best(self, metric: str = "tops") -> DesignPoint:
        """Best point: highest ``tops``/``throughput_inf_s``, or lowest
        ``energy_mj``/``energy_per_inf_mj``/``cycles``."""
        if not self.points:
            raise ConfigError("sweep has no points; cannot rank an empty sweep")
        if metric in ("tops", "throughput_inf_s"):
            return max(self.points, key=lambda p: getattr(p, metric))
        if metric in ("energy_mj", "energy_per_inf_mj", "cycles"):
            return min(self.points, key=lambda p: getattr(p, metric))
        raise ConfigError(
            f"unknown metric {metric!r}; expected tops/throughput_inf_s/"
            f"energy_mj/energy_per_inf_mj/cycles"
        )

    def pareto_front(self) -> List[DesignPoint]:
        """Energy/throughput Pareto front (Fig. 7's co-design frontier).

        A point survives iff no other point has both lower-or-equal
        ``energy_mj`` and higher-or-equal ``tops`` with at least one
        strict improvement.  Returned sorted by ascending energy, which
        makes the front directly plottable.  The CLI's ``report
        --pareto`` applies the same :func:`pareto_filter` to saved rows.
        """
        return pareto_filter(self.points, lambda p: (p.energy_mj, p.tops))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "stats": {
                "total_points": self.stats.total_points,
                "evaluated": self.stats.evaluated,
                "cache_hits": self.stats.cache_hits,
                "cache_misses": self.stats.cache_misses,
                "workers": self.stats.workers,
                "wall_time_s": self.stats.wall_time_s,
            },
            "points": [pt.to_dict() for pt in self.points],
        }


#: Batch-independent analysis of one point: the (possibly warm) base
#: report, the run-once load phase and its energy (zero / empty for
#: non-resident points).  This is what sweep workers ship back; the
#: execution plan never travels with it.
_BaseBundle = Tuple[FastReport, int, Dict[str, float]]


def _analyze_base(
    pspec: PointSpec, arch: ArchConfig
) -> Tuple[_BaseBundle, ExecutionPlan]:
    """Plan and analyse a point's batch-independent coordinates.

    ``arch`` is the point's resolved architecture.  Returns ``((report,
    load_cycles, load_energy_pj), plan)``: for resident points the report
    is the *warm* per-input analysis (hoistable weight loads removed)
    and the load fields carry the run-once load phase; otherwise the
    plain analysis with zero load.  ``plan`` is the (first shard's)
    execution plan for inspection.
    """
    from repro.sim.fastmodel import analyze_pipeline
    from repro.sim.multichip import sharding_edges

    if pspec.chips > 1:
        sharding = _cached_sharding(
            pspec.model, pspec.input_size, pspec.num_classes, pspec.chips
        )
        graphs = [shard.graph for shard in sharding.shards]
        edges = sharding_edges(sharding)
    else:
        graphs = [
            _cached_graph(pspec.model, pspec.input_size, pspec.num_classes)
        ]
        edges = []
    plans = [
        plan_graph(graph, arch, pspec.strategy, pspec.closure_limit)
        for graph in graphs
    ]
    bundle = analyze_pipeline(plans, edges, arch, pspec.resident_weights)
    return bundle, plans[0]


def _charge_session_load(
    report: FastReport,
    load_done: int,
    load_energy: Dict[str, float],
    extra_cycles: int,
) -> FastReport:
    """Fold a resident session's run-once load phase into a report.

    The hoisted load energy is paid exactly once per session (it does
    not scale with the batch); ``extra_cycles`` extends the makespan for
    continuations that never saw the load-clamped releases (plain batch
    streaming and single-shot points).
    """
    energy = dict(report.energy_breakdown_pj)
    for key, value in load_energy.items():
        energy[key] = energy.get(key, 0.0) + value
    return replace(
        report,
        cycles=report.cycles + extra_cycles,
        energy_breakdown_pj=energy,
        load_cycles=load_done,
    )


def _derive_report(
    pspec: PointSpec, arch: ArchConfig, bundle: _BaseBundle
) -> FastReport:
    """Closed-form serving/batch continuation of a base (batch=1) bundle.

    Arrival-rate points go through the serving queueing law
    (:func:`repro.sim.fastmodel.serve_arrivals`, fixed-rate releases);
    fleet points (``replicas > 1``) round-robin the releases across the
    replicas (:func:`repro.sim.fastmodel.serve_fleet`); fault points
    additionally replay the plan's deterministic fault schedule against
    the fleet; plain batch points go through the PR-4 streaming law
    (:func:`stream_batched`).  Either way the derivation is
    bit-identical to evaluating the point from scratch, which is what
    lets one base analysis serve a whole batch x rate x replicas x
    faults sub-grid.

    Resident points continue the *warm* base report: serving releases
    clamp to the load phase (the session loads before the first input
    enters the pipeline, so latency percentiles measure warm service),
    non-serving continuations extend the makespan by the load phase,
    and the hoisted load energy lands exactly once either way.
    """
    from repro.sim.fastmodel import serve_fleet, stream_batched

    report, load_done, load_energy = bundle
    if (pspec.arrival_rate is not None or pspec.replicas > 1
            or pspec.fault_plan is not None):
        releases = (
            _rate_releases(arch, pspec.arrival_rate, pspec.batch)
            if pspec.arrival_rate is not None else [0] * pspec.batch
        )
        if pspec.resident_weights:
            releases = [max(r, load_done) for r in releases]
        derived = serve_fleet(
            report, releases, arch.interchip, pspec.replicas,
            arrival_rate_inf_s=pspec.arrival_rate,
            faults=pspec.fault_plan,
        )
        extra_cycles = 0
    elif pspec.batch > 1:
        derived = stream_batched(report, pspec.batch)
        extra_cycles = load_done
    else:
        derived = report
        extra_cycles = load_done
    if pspec.resident_weights:
        derived = _charge_session_load(
            derived, load_done, load_energy, extra_cycles
        )
    return derived


def _base_spec(pspec: PointSpec) -> PointSpec:
    """The batch-independent, arrival-free, fault-free coordinates:
    every continuation axis back at its default.

    ``resident_weights`` survives: it changes the base analysis itself
    (warm report + load split), not just the continuation.
    """
    return replace(pspec, **_BASE_VALUES)


def _worker_evaluate(pspec: PointSpec, arch: ArchConfig) -> _BaseBundle:
    """Top-level pool entry point (must be importable for pickling).

    Drops the (large, partly unpicklable) execution plan so results are
    identical to cache-served points.
    """
    return _analyze_base(pspec, arch)[0]


def estimate_point_cost(pspec: PointSpec) -> float:
    """Relative evaluation-cost estimate of one sweep point.

    Points differ by more than 10x in cost (VGG19 under DP vs tiny
    models), so submitting expensive points to the worker pool *first*
    cuts the tail latency of wide sweeps: a worker is never left alone
    with the most expensive point while the rest of the pool idles.
    The estimate only orders work -- results are index-ordered and
    bit-identical regardless.
    """
    cost = _MODEL_COST.get(pspec.model, 1.0)
    cost *= _STRATEGY_COST.get(pspec.strategy, 1.0)
    cost *= max((pspec.input_size / 224.0) ** 2, 0.05)
    if pspec.closure_limit is not None and pspec.strategy == "dp":
        cost *= min(1.0, 0.25 + pspec.closure_limit / 256.0)
    return cost


def _point_from_report(
    pspec: PointSpec,
    arch: ArchConfig,
    report: FastReport,
    cached: bool = False,
    plan: Optional[ExecutionPlan] = None,
) -> DesignPoint:
    """``pspec`` evaluated at its resolved ``arch``."""
    coords = pspec.coordinates()
    coords["mg_size"] = arch.chip.core.cim_unit.macro_group.num_macros
    coords["flit_bytes"] = arch.chip.noc.flit_bytes
    return DesignPoint(**coords, report=report, plan=plan, cached=cached)


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int, DesignPoint], None]] = None,
    resume: bool = True,
) -> SweepResult:
    """Execute a sweep, optionally in parallel and/or through the cache.

    ``workers``: ``None``/``0``/``1`` evaluates serially in-process;
    ``N > 1`` fans uncached points out over a process pool (each worker
    keeps its own model-graph cache); a negative count is a
    :class:`~repro.errors.ConfigError`.  Results are returned in
    :meth:`SweepSpec.points` order regardless of completion order, and
    both run the one loop below (``pool.map`` or the builtin ``map`` over
    the unique base points), so the parallel path is bit-identical to
    the serial one and reports progress in the same order.

    ``cache``: a :class:`ResultCache`; hits skip evaluation entirely and
    fresh results are stored for the next run.

    ``resume``: when a cache is given, a sweep-level manifest
    (:class:`~repro.explore_cache.SweepManifest`, journalled next to the
    cache) records every completed point key as the sweep runs, so an
    interrupted ``python -m repro sweep`` restarts mid-cross-product:
    the restart reports how many points the previous run completed
    (``stats.resumed_points``) and only evaluates the remainder.  A
    sweep that finishes removes its manifest.

    ``progress``: called as ``progress(done, total, point)`` after every
    point completes (cache hits included).
    """
    if workers is not None and workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    base = spec.arch()
    base.validate()
    pspecs = spec.points()
    stats = SweepStats(total_points=len(pspecs), workers=max(1, workers or 1))
    started = time.perf_counter()

    # A sweep names few distinct architectures (|mg_sizes| x |flit_sizes|)
    # but many points: each is resolved and fingerprinted once.
    archs: Dict[
        Tuple[Optional[int], Optional[int]], Tuple[ArchConfig, str]
    ] = {}

    def resolved(pspec: PointSpec) -> Tuple[ArchConfig, str]:
        axes = (pspec.mg_size, pspec.flit_bytes)
        if axes not in archs:
            arch = pspec.resolve_arch(base)
            archs[axes] = (arch, arch_fingerprint(arch))
        return archs[axes]

    manifest: Optional[SweepManifest] = None
    previously: frozenset = frozenset()
    if cache is not None and resume:
        spec_dict = spec.to_dict()
        manifest = SweepManifest(
            cache.root, sweep_fingerprint(spec_dict), spec_meta=spec_dict
        )
        previously = manifest.load()

    results: List[Optional[DesignPoint]] = [None] * len(pspecs)
    done = 0

    def finish(index: int, point: DesignPoint) -> None:
        nonlocal done
        results[index] = point
        done += 1
        if progress is not None:
            progress(done, len(pspecs), point)

    def journal(key: str) -> None:
        if manifest is not None and key not in previously:
            manifest.mark(key)

    # Pass 1: serve what we can from the cache.
    pending: List[Tuple[int, PointSpec]] = []
    keys: Dict[int, str] = {}
    for index, pspec in enumerate(pspecs):
        if cache is not None:
            arch, arch_print = resolved(pspec)
            key = pspec.key_for(arch_print)
            keys[index] = key
            report = cache.lookup(key)
            if report is not None:
                stats.cache_hits += 1
                if key in previously:
                    stats.resumed_points += 1
                journal(key)
                finish(index, _point_from_report(
                    pspec, arch, report, cached=True
                ))
                continue
            stats.cache_misses += 1
        pending.append((index, pspec))

    # Pass 2: evaluate the misses.  The batch, arrival-rate, replicas
    # and fault-plan axes are closed-form continuations of the base
    # (batch=1, rate=None, replicas=1, fault-free) analysis, so only
    # *unique base points* are ever planned; every pending variant is
    # derived here via _derive_report -- bit-identical to evaluating it
    # directly, and each base is planned exactly once no matter how a
    # pool schedules it.
    groups: Dict[PointSpec, List[int]] = {}
    for index, pspec in pending:
        groups.setdefault(_base_spec(pspec), []).append(index)
    # Adaptive scheduling: expensive points first (stable on first
    # pending index for determinism); results are re-indexed, so
    # ordering only affects wall time, never output.
    ordered = sorted(
        groups,
        key=lambda point: (-estimate_point_cost(point), groups[point][0]),
    )
    archs_of = [resolved(point)[0] for point in ordered]
    if stats.workers > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=stats.workers)
        evaluate = pool.map
    else:  # a serial sweep is the pool path with a pool of one
        pool, evaluate = nullcontext(), map
    with pool:
        for base_point, bundle in zip(
                ordered, evaluate(_worker_evaluate, ordered, archs_of)):
            for index in groups[base_point]:
                pspec = pspecs[index]
                arch = resolved(pspec)[0]
                point = _point_from_report(
                    pspec, arch, _derive_report(pspec, arch, bundle)
                )
                stats.evaluated += 1
                if cache is not None:
                    cache.store(
                        keys[index], point.report,
                        meta=point.coordinates("describe"),
                    )
                    journal(keys[index])
                finish(index, point)

    if manifest is not None:
        manifest.complete()
    stats.wall_time_s = time.perf_counter() - started
    assert all(pt is not None for pt in results)
    return SweepResult(spec=spec, points=results, stats=stats)


# ---------------------------------------------------------------------------
# Cycle-accurate spot checks
# ---------------------------------------------------------------------------

@dataclass
class SpotCheckResult:
    """One sweep point re-validated on the cycle-accurate simulator.

    The check recompiles the point's (model, architecture, strategy)
    coordinates at a reduced ``input_size`` (full paper resolution is
    fast-model territory), runs the exact simulator with bit-exact
    golden-model validation, and compares the fast model's latency
    prediction *for the same compiled plan*, bounding the fast-model
    error at those coordinates.
    """

    point: DesignPoint
    input_size: int
    report: "MultiChipReport"
    fast_cycles: int
    validated: bool

    @property
    def cycle_ratio(self) -> float:
        """fast-model cycles / cycle-accurate cycles (1.0 = perfect)."""
        return self.fast_cycles / self.report.cycles if self.report.cycles else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.point.model,
            "strategy": self.point.strategy,
            "mg_size": self.point.mg_size,
            "flit_bytes": self.point.flit_bytes,
            "chips": self.point.chips,
            "batch": self.point.batch,
            "input_size": self.input_size,
            "cycles": int(self.report.cycles),
            "fast_cycles": int(self.fast_cycles),
            "cycle_ratio": self.cycle_ratio,
            "energy_mj": self.report.total_energy_mj,
            "validated": self.validated,
        }


def spot_check(
    result: SweepResult,
    n: int = 1,
    metric: str = "tops",
    input_size: int = 32,
    num_classes: int = 10,
    engine: Optional[str] = None,
    validate: bool = True,
) -> List[SpotCheckResult]:
    """Re-run the best ``n`` points of a sweep cycle-accurately.

    Closes the ROADMAP item "cycle-accurate spot checks inside sweeps":
    after a fast-model sweep, the most promising points are re-validated
    on the exact simulator (hot-block engine by default) so every sweep
    ships with an empirical fast-model error bound.  Exposed on the CLI
    as ``python -m repro sweep --spot-check N``.

    Arrival-rate and fleet points are re-checked at their *batch*
    coordinates (back-to-back, one replica): the cycle-level comparison
    bounds execution-model error, and arrival/dispatch idle time --
    identical in both tiers by construction -- would only dilute the
    ratio.
    """
    from repro.serve import Deployment
    from repro.sim.fastmodel import analyze_pipeline, stream_batched
    from repro.workflow import compile_model

    if n <= 0:
        return []
    reverse = metric == "tops"
    if metric not in ("tops", "energy_mj", "cycles"):
        raise ConfigError(
            f"unknown metric {metric!r}; expected tops/energy_mj/cycles"
        )
    ranked = sorted(
        result.points, key=lambda p: getattr(p, metric), reverse=reverse
    )
    spec = result.spec
    checks: List[SpotCheckResult] = []
    for pt in ranked[:n]:
        arch = pt.resolve_arch(spec.arch())
        compiled = compile_model(
            _cached_graph(pt.model, input_size, num_classes), arch,
            pt.strategy, chips=pt.chips,
            closure_limit=spec.limit_for(pt.model),
        )
        fast, _, _ = analyze_pipeline(
            [chip.plan for chip in compiled.chips],
            [(t.src_chip, t.dst_chip, t.nbytes) for t in compiled.transfers],
            arch,
        )
        fast_cycles = stream_batched(fast, pt.batch).cycles
        outcome = Deployment(compiled, engine=engine).submit(
            batch=pt.batch, validate=validate
        )
        checks.append(SpotCheckResult(
            point=pt,
            input_size=input_size,
            report=outcome.stream_report,
            fast_cycles=fast_cycles,
            validated=outcome.validated,
        ))
    return checks


# ---------------------------------------------------------------------------
# Figure drivers (thin wrappers over the engine)
# ---------------------------------------------------------------------------

def strategy_comparison(
    models: Iterable[str],
    arch: Optional[ArchConfig] = None,
    strategies: Iterable[str] = ("generic", "duplication", "dp"),
    input_size: int = 224,
    num_classes: int = 1000,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, Dict[str, DesignPoint]]:
    """Fig. 5: every strategy on every model at the default architecture."""
    spec = SweepSpec(
        models=tuple(models),
        strategies=tuple(strategies),
        input_sizes=(input_size,),
        num_classes=num_classes,
        base_arch=arch,
    )
    result = run_sweep(spec, workers=workers, cache=cache)
    return {
        model: {strategy: points[0] for strategy, points in by_strategy.items()}
        for model, by_strategy in result.by_model_strategy().items()
    }


def mg_flit_sweep(
    model: str,
    strategy: str = "generic",
    mg_sizes: Iterable[int] = MG_SIZES,
    flit_sizes: Iterable[int] = FLIT_SIZES,
    base_arch: Optional[ArchConfig] = None,
    input_size: int = 224,
    num_classes: int = 1000,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[DesignPoint]:
    """Fig. 6 / Fig. 7 hardware axes: MG size x NoC flit width (the
    :func:`design_space` of one strategy)."""
    return design_space(
        model, (strategy,), mg_sizes, flit_sizes, base_arch,
        input_size, num_classes, workers, cache,
    )


def design_space(
    model: str,
    strategies: Iterable[str] = ("generic", "dp"),
    mg_sizes: Iterable[int] = MG_SIZES,
    flit_sizes: Iterable[int] = FLIT_SIZES,
    base_arch: Optional[ArchConfig] = None,
    input_size: int = 224,
    num_classes: int = 1000,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[DesignPoint]:
    """Fig. 7: the full SW/HW cross product for one model."""
    spec = SweepSpec(
        models=(model,),
        strategies=tuple(strategies),
        mg_sizes=tuple(mg_sizes),
        flit_sizes=tuple(flit_sizes),
        input_sizes=(input_size,),
        num_classes=num_classes,
        base_arch=base_arch,
    )
    return run_sweep(spec, workers=workers, cache=cache).points
