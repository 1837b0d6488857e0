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

A point's ``tier`` coordinate says who prices it: the fast analytical
model (the default) or the cycle-level simulator, which executes one
input and validates it bit-exactly against the golden model.  Both
continue that one-input price over the batch, serving, fleet and fault
coordinates by the same closed-form law, so ``tiers=("fast",
"cyclesim")`` pairs every row with its cycle-tier twin.

:func:`strategy_comparison` (Fig. 5: normalized speed/energy of the
three compilation strategies) is a thin wrapper over the engine; the
Fig. 6/7 hardware axes are a :class:`SweepSpec` over ``mg_sizes`` x
``flit_sizes``.

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
from repro.errors import CapacityError, ConfigError
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

#: Relative cost of each strategy, also only to order sweep work:
#: ``_analyze_base`` seconds (best of 3, model graph cached, one core)
#: over resnet18, mobilenetv2 and efficientnetb0 at 224 px on 1 and 16
#: chips.  duplication runs 0.8-1.1x generic; dp runs 1.7-6.9x generic
#: on 16 chips and 3.5-16x on 1 chip (efficientnetb0: 0.017 s generic,
#: 0.27 s dp), about 5x as a geometric mean.
_STRATEGY_COST = {"generic": 1.0, "duplication": 1.0, "dp": 5.0}

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

# ``True`` is an ``int`` to Python but never a count or a rate here: it
# would key as ``true``.
def _positive(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _rate_or_none(value: Any) -> bool:
    return value is None or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value) and value > 0
    )


def _fault_plan_or_none(value: Any) -> bool:
    if value is None:
        return True
    from repro.faults import FaultPlan  # loads only when a plan is named

    return isinstance(value, FaultPlan)


def _boolean(value: Any) -> bool:
    return isinstance(value, bool)


def _tier(value: Any) -> bool:
    return value in ("fast", "cyclesim")


# An integral rate is the float it equals (the CLI's form): one cache
# key and one stored report per point.
def _float_rate(value: Any) -> Any:
    return float(value) if type(value) is int else value


def _coordinate(default: Any = MISSING, *, plural: Optional[str] = None,
                rule: Optional[Callable[[Any], bool]] = None,
                message: Optional[str] = None, key: Optional[str] = None,
                row: bool = True, continuation: bool = False,
                hardware: bool = False,
                coerce: Optional[Callable[[Any], Any]] = None):
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
    and reaches the cache key through the architecture fingerprint;
    ``coerce`` the one form a :class:`SweepSpec` gives each value.
    """
    return field(default=default, metadata={
        "plural": plural, "rule": rule, "message": message, "key": key,
        "row": row, "continuation": continuation, "hardware": hardware,
        "coerce": coerce,
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
        coerce=_float_rate,
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
    tier: str = _coordinate(
        "fast", plural="tiers", rule=_tier,
        message="tiers must be 'fast' (the analytical model) or "
                "'cyclesim' (exact execution, validated)")

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
#: What a base analysis reads: the keyed coordinates but the
#: continuations (the hardware overrides reach it in ``arch``).
_BASE_NAMES = tuple(
    axis.name for axis in _KEYED if not axis.metadata["continuation"]
)
_base_of = attrgetter(*_BASE_NAMES)
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

    def _latency_ms(self, cycles: int) -> Optional[float]:
        """A serving latency (arrival-rate points only, else ``None``)."""
        if self.arrival_rate is None:
            return None
        return cycles / (self.report.clock_mhz * 1e3)

    @property
    def p50_latency_ms(self) -> Optional[float]:
        return self._latency_ms(self.report.p50_latency_cycles)

    @property
    def p95_latency_ms(self) -> Optional[float]:
        return self._latency_ms(self.report.p95_latency_cycles)

    @property
    def p99_latency_ms(self) -> Optional[float]:
        return self._latency_ms(self.report.p99_latency_cycles)

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


#: The ranking table: each metric a sweep is ranked by, ``True`` where
#: higher ranks first -- and the frontier's (cost, benefit) pair.
RANKINGS = {"tops": True, "throughput_inf_s": True, "energy_mj": False,
            "energy_per_inf_mj": False, "cycles": False}
PARETO = ("energy_mj", "tops")


def rank(items, metric: str, reader=attrgetter):
    """``items`` best first by ``metric``, read by ``reader(metric)``
    (``attrgetter`` for points, ``itemgetter`` for JSON rows); ties keep
    their order."""
    if metric not in RANKINGS:
        raise ConfigError(
            f"unknown metric {metric!r}; expected {'/'.join(RANKINGS)}"
        )
    return sorted(items, key=reader(metric), reverse=RANKINGS[metric])


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


def _rate_releases(arch: ArchConfig, rate: float, batch: int) -> List[int]:
    """Fixed-rate release cycles for an ``arrival_rate`` sweep point."""
    from repro.arrivals import FixedRate

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
    Every point's stream is priced by the one fleet step
    (:func:`repro.sim.fastmodel.serve_fleet`), which adds latency
    percentiles to the report.  ``batch > 1`` releases the batch back to
    back: the pipeline streams it (closed-form ``fill + drain + (B-1) *
    bottleneck`` law; one chip is a one-shard pipeline, so it replays
    the batch sequentially).  ``arrival_rate`` (inferences/s) instead
    releases the batch at a fixed rate.  ``replicas > 1`` prices a
    serving fleet: the releases are round-robined across that many
    identical replicas.  ``fault_plan`` replays a deterministic
    :class:`repro.faults.FaultPlan` against the fleet, adding
    dropped/retry counts and goodput to the report.
    ``resident_weights`` prices a resident-weights serving session
    (:class:`repro.serve.Deployment` with ``resident_weights=True``): every
    input replays the *warm* per-shard analysis (hoistable weight loads
    removed), and the run-once load phase is priced by the fleet step's
    load rule.  ``tier="cyclesim"`` prices the one input on the
    cycle-level simulator instead (see :func:`_analyze_base`).

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

    One field per coordinate (:data:`AXES`): a swept coordinate's
    plural holds the values it takes -- by default the one-value tuple
    of the coordinate's default, so an unswept serving axis prices a
    single-chip, single-shot, back-to-back, one-replica, fault-free,
    reload-per-input deployment on the fast tier -- and a hardware
    plural of ``None`` keeps ``base_arch``'s value.  ``closure_limit``
    bounds the DP partitioner's closure enumeration and may be given per
    model (Fig. 7 caps EfficientNetB0 at 64 to keep the sweep
    tractable).
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
    tiers: Tuple[str, ...] = ("fast",)

    def __post_init__(self):
        for axis in _SWEPT:
            plural = axis.metadata["plural"]
            values = getattr(self, plural)
            if isinstance(values, str):
                raise ConfigError(
                    f"{plural} must be a sequence of values, "
                    f"not the bare string {values!r}"
                )
            # A tuple keeps the spec hashable and its cross product
            # re-iterable; each value takes its axis's one form.
            if values is not None:
                coerce = axis.metadata["coerce"]
                values = tuple(map(coerce, values) if coerce else values)
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
        """The cross product, in deterministic order: software and
        serving axes in declaration order, then flit width and MG size
        -- the row order of the paper's figure tables."""
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
        """The first point :func:`rank` puts ahead by ``metric``."""
        if not self.points:
            raise ConfigError("sweep has no points; cannot rank an empty sweep")
        return rank(self.points, metric)[0]

    def pareto_front(self) -> List[DesignPoint]:
        """Energy/throughput Pareto front (Fig. 7's co-design frontier).

        A point survives iff no other point has both lower-or-equal
        ``energy_mj`` and higher-or-equal ``tops`` with at least one
        strict improvement.  Returned sorted by ascending energy, which
        makes the front directly plottable.  The CLI's ``report
        --pareto`` applies the same :data:`PARETO` filter to saved rows.
        """
        return pareto_filter(self.points, attrgetter(*PARETO))

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
#: report, whose ``load_cycles`` is the run-once load phase, and that
#: phase's energy (zero / empty for non-resident points).  This is what
#: sweep workers ship back; the execution plan never travels with it.
_BaseBundle = Tuple[FastReport, Dict[str, float]]


def _analyze_base(
    pspec: PointSpec, arch: ArchConfig
) -> Tuple[_BaseBundle, ExecutionPlan]:
    """Plan and analyse a point's batch-independent coordinates.

    ``arch`` is the point's resolved architecture.  Returns ``((report,
    load_energy_pj), plan)``: for resident points the report is the
    *warm* per-input analysis (hoistable weight loads removed), its
    ``load_cycles`` and ``load_energy_pj`` the run-once load phase;
    otherwise the plain analysis with zero load.  ``plan`` is the (first
    shard's) execution plan for inspection.

    The ``tier`` picks who prices each chip.  A fast point plans its
    chips and analyses them (:func:`~repro.sim.fastmodel.
    analyze_pipeline`).  A cyclesim point compiles and executes one
    input on the cycle-level simulator, validated bit-exactly against
    the golden model, and takes each chip's measured report (warm, for
    a resident point) and the measured load phase.  Both compose the
    chips through the one law (:func:`~repro.sim.fastmodel.
    compose_pipeline`), so :func:`_derive_report` continues either.

    The sweep's one call into the compiler, made once per base point
    that misses the cache -- so the compiler is imported here and not at
    module level, where a sweep served from the cache would pay for it.
    """
    from repro.sim.fastmodel import analyze_pipeline, compose_pipeline

    if pspec.tier == "cyclesim":
        from repro.serve import Deployment

        # The point's base coordinates are the deployment's keywords.
        base = dict(zip(_BASE_NAMES, _base_of(pspec)))
        try:
            deployment = Deployment(base.pop("model"), arch, **base)
        except CapacityError as exc:
            raise CapacityError(
                f"{pspec.model} {pspec.strategy} at {pspec.input_size} px "
                f"on {pspec.chips} chip(s) does not fit: {exc}"
            ) from exc
        served = deployment.submit(batch=1, seed=0).replica_reports[0]
        reports = [
            FastReport(
                cycles=chip.cycles,
                energy_breakdown_pj=dict(chip.energy_breakdown_pj),
                macs=chip.macs, clock_mhz=arch.chip.clock_mhz,
                shard_cycles=[chip.cycles],
            )
            for chip in served.stream_report.chip_reports
        ]
        report = compose_pipeline(
            reports, deployment.compiled.transfer_edges(), arch,
            served.load_cycles,
        )
        plan = deployment.compiled.chips[0].plan
        return (report, served.load_energy_pj), plan

    from repro.compiler.pipeline import plan_chips

    model = (pspec.model, pspec.input_size, pspec.num_classes)
    sharding = None
    if pspec.chips > 1:
        sharding = _cached_sharding(*model, pspec.chips)
    plans, edges, _ = plan_chips(
        _cached_graph(*model), arch, pspec.chips, pspec.strategy,
        pspec.closure_limit, sharding=sharding,
    )
    report, _, load_energy = analyze_pipeline(
        plans, edges, arch, pspec.resident_weights
    )
    return (report, load_energy), plans[0]


def _derive_report(
    pspec: PointSpec, arch: ArchConfig, bundle: _BaseBundle
) -> FastReport:
    """The point's stream, priced from its base (batch=1) bundle by the
    one fleet step (:func:`repro.sim.fastmodel.serve_fleet`).

    Every continuation is the same call: ``batch`` inputs released back
    to back, or at ``arrival_rate`` (fixed-rate releases), across
    ``replicas`` under ``fault_plan``.  The derivation is bit-identical
    to evaluating the point from scratch, which is what lets one base
    analysis serve a whole batch x rate x replicas x faults sub-grid.

    A resident point continues the *warm* base report, and its load
    phase is priced by the fleet step's one load rule.
    """
    from repro.sim.fastmodel import serve_fleet

    report, load_energy = bundle
    releases = (
        _rate_releases(arch, pspec.arrival_rate, pspec.batch)
        if pspec.arrival_rate is not None else [0] * pspec.batch
    )
    return serve_fleet(
        report, releases, arch.interchip, pspec.replicas,
        arrival_rate_inf_s=pspec.arrival_rate, faults=pspec.fault_plan,
        load_energy_pj=load_energy,
    )


def _base_spec(pspec: PointSpec) -> PointSpec:
    """The batch-independent, arrival-free, fault-free coordinates:
    every continuation axis back at its default.

    ``resident_weights`` and ``tier`` survive: they change the base
    analysis itself (warm report + load split; who prices the chips),
    not just the continuation.
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

    # A sweep that raises part-way (an interrupted progress callback, a
    # failing point) closes its journal and leaves it for the resume.
    try:
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
    finally:
        if manifest is not None:
            manifest.close()

    if manifest is not None:
        manifest.complete()
    stats.wall_time_s = time.perf_counter() - started
    assert all(pt is not None for pt in results)
    return SweepResult(spec=spec, points=results, stats=stats)


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
