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
  generation; :func:`~repro.compiler.pipeline.compile_model` compiles a
  zoo model or graph for any chip count.
- :mod:`repro.sim`     -- the cycle-accurate multi-core simulator with NoC
  and energy models, the functional golden model, and the fast analytical
  model.
- :mod:`repro.serve`   -- the serving API and primary entry point: a
  :class:`~repro.serve.Deployment` compiles once and serves many
  submissions under an explicit :class:`~repro.arrivals.ArrivalProcess`
  (back-to-back, fixed-rate, Poisson, recorded trace) to R replicas
  under round-robin or join-shortest-queue dispatch (one by default),
  and every submission returns one :class:`~repro.serve.FleetReport`
  (latency percentiles, per-replica utilisation, availability).
- :mod:`repro.arrivals` -- the arrival processes and nearest-rank latency
  percentiles, NumPy-free so the sweep's serving continuation can read
  them without the serving stack; :mod:`repro.serve` re-exports them.
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
  bit-identical to :class:`~repro.arrivals.TraceArrivals`.
- :mod:`repro.console` -- the ``repro watch`` operator console: the
  runtime's typed event stream folded into shard / replica / latency
  tables and dumped as JSON.
- :mod:`repro.artifact` -- the shippable compile product: a compiled
  model serialized to a single content-addressed ``.artifact`` file
  (``save_artifact`` / ``load_artifact`` / ``Deployment.load``), so a
  serving session never re-runs the compiler.
- :mod:`repro.explore` -- the design-space exploration engine: declarative
  :class:`~repro.explore.SweepSpec` cross products, parallel execution and
  the on-disk result cache (:mod:`repro.explore_cache`).
- :mod:`repro.cli`     -- the ``python -m repro`` command line
  (`run` / `compile` / `inspect` / `serve` / `watch` / `sweep` /
  `compare` / `report`).

Importing the package is cheap: it loads :mod:`repro.config` and
:mod:`repro.errors`, and every other public name -- and every submodule,
``repro.serve`` -- resolves on first use (:mod:`repro.utils.lazy`), so a
``python -m repro`` command pays only for the layers it runs.  Measured
by ``benchmarks/perf`` before -> after imports were layered (raw seconds
of two traced ``sweep_warm`` passes per side for the first two, the
normalised median of ten alternating pairs for the third): ``import
repro`` 0.40-0.56 -> 0.08-0.10 s (``cli.import_s``), ``python -m repro
--help`` 0.46-0.55 -> 0.11-0.12 s (``cli.startup_s``), a 600-point sweep
served from the cache 0.579 -> 0.215 s (``sweep_warm`` ``wall_s``).

See ``README.md`` for a quickstart and ``docs/ARCHITECTURE.md`` for the
compilation/simulation stack in detail ("Import layering" for the rules
behind the numbers above).
"""

from typing import TYPE_CHECKING

from repro.config import ArchConfig, EnergyConfig, InterChipConfig, default_arch
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
from repro.utils.lazy import lazy_exports

#: Where every other public name lives.  Nothing here is imported until
#: it is first used (``repro.Deployment``, ``from repro import
#: run_sweep``); submodules resolve the same way (``repro.serve``).
_EXPORTS = {
    "repro.arrivals": (
        "ArrivalProcess", "BackToBack", "FixedInterval", "FixedRate",
        "PoissonArrivals", "TraceArrivals",
    ),
    "repro.artifact": ("inspect_artifact", "load_artifact", "save_artifact"),
    "repro.compiler.partition": ("ShardingSpec", "shard_graph"),
    "repro.compiler.pipeline": (
        "MultiChipModel", "compile_model", "compile_sharded",
    ),
    "repro.explore": (
        "DesignPoint", "SweepResult", "SweepSpec", "evaluate_fast",
        "run_sweep", "strategy_comparison",
    ),
    "repro.explore_cache": ("ResultCache",),
    "repro.faults": (
        "FaultPlan", "LinkDegrade", "ReplicaCrash", "ReplicaSlowdown",
        "RetryPolicy", "TransientRequestFailure", "load_fault_plan",
        "save_fault_plan",
    ),
    "repro.runtime": (
        "ReplicaStateChanged", "RequestAdmitted", "RequestCompleted",
        "RequestCompletion", "RequestDropped", "ServerHandle",
        "VirtualClock", "WallClock", "serve_forever",
    ),
    "repro.serve": (
        "Deployment", "Fleet", "FleetReport", "ServeReport", "WorkflowResult",
    ),
    "repro.sim.fastmodel": (
        "analyze_plan", "analyze_sharded", "serve_fleet", "stream_batched",
    ),
    "repro.sim.multichip": (
        "MultiChipReport", "MultiChipSimulator", "steady_state_interval",
        "streaming_schedule",
    ),
    "repro.sim.report": ("FastReport",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:  # the table above, spelled out for static tools
    from repro.arrivals import (
        ArrivalProcess,
        BackToBack,
        FixedInterval,
        FixedRate,
        PoissonArrivals,
        TraceArrivals,
    )
    from repro.artifact import inspect_artifact, load_artifact, save_artifact
    from repro.compiler.partition import ShardingSpec, shard_graph
    from repro.compiler.pipeline import (
        MultiChipModel,
        compile_model,
        compile_sharded,
    )
    from repro.explore import (
        DesignPoint,
        SweepResult,
        SweepSpec,
        evaluate_fast,
        run_sweep,
        strategy_comparison,
    )
    from repro.explore_cache import ResultCache
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
    from repro.serve import (
        Deployment,
        Fleet,
        FleetReport,
        ServeReport,
        WorkflowResult,
    )
    from repro.sim.fastmodel import (
        analyze_plan,
        analyze_sharded,
        serve_fleet,
        stream_batched,
    )
    from repro.sim.multichip import (
        MultiChipReport,
        MultiChipSimulator,
        steady_state_interval,
        streaming_schedule,
    )
    from repro.sim.report import FastReport

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
