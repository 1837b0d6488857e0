"""CIMFlow reproduction: an integrated framework for systematic design and
evaluation of digital Compute-in-Memory (CIM) architectures.

This package reproduces the system described in "CIMFlow: An Integrated
Framework for Systematic Design and Evaluation of Digital CIM Architectures"
(DAC 2025).  It provides:

- :mod:`repro.config`  -- hierarchical hardware abstraction (chip / core /
  unit) and the energy/latency parameter library.
- :mod:`repro.isa`     -- the 32-bit CIMFlow instruction set: formats,
  encoding, assembler and the extension registry.
- :mod:`repro.graph`   -- DNN computation-graph IR, shape inference, INT8
  quantisation and the model zoo (ResNet18, VGG19, MobileNetV2,
  EfficientNetB0).
- :mod:`repro.compiler` -- the two-level compilation flow: CG-level DP-based
  partitioning/mapping and OP-level loop transformations plus code
  generation.
- :mod:`repro.sim`     -- the cycle-accurate multi-core simulator with NoC
  and energy models, the functional golden model, and the fast analytical
  model.
- :mod:`repro.serve`   -- the serving API and primary entry point: a
  :class:`~repro.serve.Deployment` compiles once and serves many
  submissions under an explicit :class:`~repro.serve.ArrivalProcess`
  (back-to-back, fixed-rate, Poisson, recorded trace), reporting
  latency percentiles and per-shard utilisation; a
  :class:`~repro.serve.Fleet` feeds one arrival stream to R replicas
  under round-robin or join-shortest-queue dispatch.
- :mod:`repro.faults`  -- deterministic fault injection for fleets: a
  seeded :class:`~repro.faults.FaultPlan` of crashes, slowdowns, link
  degradation and transient failures replayed identically by both
  fidelity tiers, with retries/deadlines via
  :class:`~repro.faults.RetryPolicy` and a conservation guarantee
  (submitted == completed + dropped).
- :mod:`repro.runtime` -- the async real-time serving frontend:
  ``await deployment.serve_forever()`` opens a live session whose
  :meth:`~repro.runtime.ServerHandle.submit` coroutine stamps requests
  with release cycles from a pluggable clock
  (:class:`~repro.runtime.VirtualClock` deterministic,
  :class:`~repro.runtime.WallClock` production) and resolves a future
  per request; draining replays the recorded trace offline,
  bit-identical to :class:`~repro.serve.TraceArrivals`.
- :mod:`repro.console` -- the ``repro watch`` live operator console
  (Textual ``DataTable`` dashboard over the runtime's typed event
  stream) and its dependency-free headless ``--snapshot`` JSON mode.
- :mod:`repro.artifact` -- the shippable compile product: a compiled
  model serialized to a single content-addressed ``.artifact`` file
  (``save_artifact`` / ``load_artifact`` / ``Deployment.load``), so a
  serving session never re-runs the compiler.
- :mod:`repro.workflow` -- what a deployment is built from:
  :func:`~repro.workflow.compile_model`, input resolution, the golden
  check and :class:`~repro.workflow.WorkflowResult`.
- :mod:`repro.explore` -- the design-space exploration engine: declarative
  :class:`~repro.explore.SweepSpec` cross products, parallel execution and
  the on-disk result cache (:mod:`repro.explore_cache`).
- :mod:`repro.cli`     -- the ``python -m repro`` command line
  (`run` / `compile` / `inspect` / `serve` / `watch` / `sweep` /
  `compare` / `report`).

See ``README.md`` for a quickstart and ``docs/ARCHITECTURE.md`` for the
compilation/simulation stack in detail.
"""

from repro.errors import (
    ArtifactError,
    CapacityError,
    CompileError,
    ConfigError,
    FaultError,
    ISAError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.faults import (
    FaultPlan,
    LinkDegrade,
    ReplicaCrash,
    ReplicaSlowdown,
    RetryPolicy,
    TransientRequestFailure,
    load_fault_plan,
    save_fault_plan,
)
from repro.artifact import inspect_artifact, load_artifact, save_artifact
from repro.config import ArchConfig, EnergyConfig, InterChipConfig, default_arch
from repro.compiler import (
    MultiChipModel,
    ShardingSpec,
    compile_sharded,
    shard_graph,
)
from repro.explore import (
    DesignPoint,
    SweepResult,
    SweepSpec,
    design_space,
    evaluate_fast,
    mg_flit_sweep,
    run_sweep,
    strategy_comparison,
)
from repro.explore_cache import ResultCache
from repro.sim.fastmodel import (
    FastReport,
    analyze_plan,
    analyze_sharded,
    serve_arrivals,
    serve_fleet,
    stream_batched,
)
from repro.sim.multichip import (
    MultiChipReport,
    MultiChipSimulator,
    steady_state_interval,
    streaming_schedule,
)
from repro.runtime import (
    ReplicaStateChanged,
    RequestAdmitted,
    RequestCompleted,
    RequestCompletion,
    RequestDropped,
    ServerHandle,
    VirtualClock,
    WallClock,
    serve_forever,
)
from repro.workflow import WorkflowResult, compile_model
from repro.serve import (
    ArrivalProcess,
    BackToBack,
    Deployment,
    FixedInterval,
    FixedRate,
    Fleet,
    FleetReport,
    PoissonArrivals,
    ServeReport,
    TraceArrivals,
)

__version__ = "0.1.0"

__all__ = [
    "ArchConfig",
    "EnergyConfig",
    "InterChipConfig",
    "default_arch",
    "Deployment",
    "ServeReport",
    "ArrivalProcess",
    "BackToBack",
    "FixedInterval",
    "FixedRate",
    "PoissonArrivals",
    "TraceArrivals",
    "serve_arrivals",
    "serve_fleet",
    "serve_forever",
    "ServerHandle",
    "VirtualClock",
    "WallClock",
    "RequestAdmitted",
    "RequestCompleted",
    "RequestDropped",
    "RequestCompletion",
    "ReplicaStateChanged",
    "Fleet",
    "FleetReport",
    "FaultPlan",
    "RetryPolicy",
    "ReplicaCrash",
    "ReplicaSlowdown",
    "LinkDegrade",
    "TransientRequestFailure",
    "load_fault_plan",
    "save_fault_plan",
    "save_artifact",
    "load_artifact",
    "inspect_artifact",
    "compile_model",
    "compile_sharded",
    "shard_graph",
    "ShardingSpec",
    "MultiChipModel",
    "MultiChipSimulator",
    "MultiChipReport",
    "analyze_sharded",
    "stream_batched",
    "steady_state_interval",
    "streaming_schedule",
    "WorkflowResult",
    "evaluate_fast",
    "design_space",
    "mg_flit_sweep",
    "strategy_comparison",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "ResultCache",
    "DesignPoint",
    "analyze_plan",
    "FastReport",
    "ReproError",
    "ConfigError",
    "ISAError",
    "CompileError",
    "CapacityError",
    "ArtifactError",
    "FaultError",
    "SimulationError",
    "ValidationError",
    "__version__",
]
