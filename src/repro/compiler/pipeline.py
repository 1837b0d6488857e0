"""End-to-end compilation driver: ONNX-like graph -> per-core programs.

``compile_graph`` runs the full flow of Fig. 4: preprocessing and
condensation, CG-level partitioning/mapping under the selected strategy,
core and row assignment, global-memory layout, and OP-level code
generation, returning a :class:`CompiledModel` ready for simulation.
``plan_graph`` stops after the CG level, returning the
:class:`ExecutionPlan` that wide design-space sweeps evaluate with the
fast model.

:func:`plan_chips` is the one way a model is planned onto ``N`` chips:
it pipeline-shards the graph when ``N > 1``
(:func:`repro.compiler.partition.shard_graph`), plans every shard with
``plan_graph`` and returns the plans with their per-input transfer
edges.  The fast-tier :class:`~repro.serve.Deployment` and the sweep
engine price its plans; ``compile_sharded`` code-generates them and
emits the explicit :class:`InterChipTransfer` schedule the multi-chip
scheduler (:mod:`repro.sim.multichip`) executes.  :func:`compile_model`
is the user-facing front (zoo name or graph, architecture object or
JSON file, any chip count).  See ``docs/ARCHITECTURE.md`` ("Two-level
compilation" and "Multi-chip sharding") for the flow in detail.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.config import ArchConfig, default_arch
from repro.config.arch import GLOBAL_BASE
from repro.errors import CompileError
from repro.compiler.cost import CostModel
from repro.compiler.frontend import condense
from repro.compiler.partition import GraphShard, ShardingPlan, shard_graph
from repro.compiler.plan import (
    ExecutionPlan,
    assign_cores_and_rows,
    layout_global_memory,
)
from repro.compiler.strategies import build_geometries, partition_with_strategy
from repro.graph.graph import ComputationGraph

if TYPE_CHECKING:
    import numpy as np

    from repro.isa import ISARegistry, Program

#: What an architecture argument may be: a ready config, the path of a
#: JSON architecture file (the user-supplied configuration of Fig. 2),
#: or ``None`` for the paper's Table I chip.
ArchLike = Union[ArchConfig, str, Path, None]


def resolve_arch(arch: ArchLike) -> ArchConfig:
    if arch is None:
        return default_arch()
    if isinstance(arch, (str, Path)):
        from repro.config import load_arch

        return load_arch(arch)
    return arch


def resolve_graph(
    model: Union[str, ComputationGraph], **model_kwargs
) -> ComputationGraph:
    if isinstance(model, ComputationGraph):
        return model
    from repro.graph.models import get_model

    return get_model(model, **model_kwargs)


def _default_registry() -> ISARegistry:
    # Code generation and the ISA load with the first compiled model;
    # plan_graph and the model types the fast tier touches stay ISA-free.
    from repro.isa.extension import default_registry

    return default_registry()


@dataclass
class CompiledModel:
    """The compiler's final product.

    ``programs`` maps every core id to its finalized ISA program;
    ``global_image`` is the initial global-memory content (packed weight
    tiles and biases); tensors listed in ``plan.tensor_address`` live in
    global memory at run time (model inputs must be written there before
    simulation, spilled activations and graph outputs appear there after).
    """

    plan: ExecutionPlan
    programs: Dict[int, Program]
    global_image: np.ndarray
    registry: ISARegistry = field(default_factory=_default_registry)
    _resident: Optional[Tuple[Dict[int, Program], Dict[int, Program]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def graph(self) -> ComputationGraph:
        return self.plan.graph

    @property
    def arch(self) -> ArchConfig:
        return self.plan.arch

    def input_address(self, tensor: Optional[str] = None) -> int:
        """Global address of a model input tensor."""
        inputs = self.graph.input_operators
        if tensor is None:
            if len(inputs) != 1:
                raise CompileError("model has multiple inputs; name one")
            tensor = inputs[0].output
        return self.plan.tensor_address[tensor]

    def output_address(self, tensor: Optional[str] = None) -> int:
        """Global address of a graph output tensor."""
        if tensor is None:
            if len(self.graph.outputs) != 1:
                raise CompileError("model has multiple outputs; name one")
            tensor = self.graph.outputs[0]
        resolved = self.plan.cgraph.resolve(tensor)
        return self.plan.tensor_address[resolved]

    def activation_bytes(self) -> int:
        """End of the global activation window, 64-byte aligned.

        ``layout_global_memory`` places every input and spilled tensor
        (the ``tensor_address`` table) before every weight tile and bias,
        so a run writes global memory only below this offset and the
        image's bytes above it are read-only parameters.
        """
        end = max(
            (
                address - GLOBAL_BASE + self.graph.tensor(name).size_bytes
                for name, address in self.plan.tensor_address.items()
            ),
            default=0,
        )
        return (end + 63) & ~63

    def total_instructions(self) -> int:
        return sum(len(p) for p in self.programs.values())

    # -- the pipeline surface ----------------------------------------------
    # A single chip is a one-shard pipeline: the same surface
    # :class:`MultiChipModel` has, so one simulator
    # (:class:`repro.sim.multichip.MultiChipSimulator`) runs either product.
    transfers = ()
    num_chips = 1

    @property
    def chips(self) -> List["CompiledModel"]:
        return [self]

    def input_placements(
        self, tensor: Optional[str] = None
    ) -> List[Tuple[int, int]]:
        return [(0, self.input_address(tensor))]

    def output_placement(self, tensor: Optional[str] = None) -> Tuple[int, int]:
        return 0, self.output_address(tensor)

    def interchip_bytes(self) -> int:
        return 0

    def transfer_edges(self) -> List[Tuple[int, int, int]]:
        return []

    def supports_resident(self) -> bool:
        """Whether resident program segments can be generated.

        Requires the full CG-level :class:`ExecutionPlan`; plans loaded
        from a compiled artifact (:class:`repro.artifact.ArtifactPlan`)
        keep only the lean serving surface and cannot re-run codegen.
        """
        return getattr(self.plan, "stages", None) is not None

    def resident_segments(self) -> Tuple[Dict[int, Program], Dict[int, Program]]:
        """``(warm, load)`` program maps for resident-weights sessions.

        ``load`` executes each resident core's input-invariant weight
        prologue once; ``warm`` is the per-input activation program.
        Generated lazily from the plan and cached on the model.
        """
        from repro.compiler.codegen.lowering import ProgramGenerator

        if not self.supports_resident():
            raise CompileError(
                "resident segments need the full execution plan; "
                "artifact-loaded models carry only the serving surface"
            )
        if self._resident is None:
            generator = ProgramGenerator(self.plan, self.registry)
            self._resident = generator.generate_resident()
        return self._resident

    def summary(self) -> str:
        return (
            f"{self.plan.summary()}\n"
            f"  {self.total_instructions()} static instructions across "
            f"{len(self.programs)} cores, "
            f"global image {len(self.global_image) / 1024:.1f} KiB"
        )


def plan_graph(
    graph: ComputationGraph,
    arch: ArchConfig,
    strategy: str = "dp",
    closure_limit: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
) -> ExecutionPlan:
    """Run CG-level compilation only (no code generation).

    Returns the :class:`ExecutionPlan` -- partition stages, clusters,
    replicas -- which the fast analytical model can evaluate directly.
    Wide design-space sweeps use this path; :func:`compile_graph` adds
    OP-level code generation on top for cycle-accurate simulation.
    """
    arch.validate()
    cgraph = condense(graph)
    geometries = build_geometries(cgraph, arch)
    cost_model = cost_model or CostModel(arch)
    partition = partition_with_strategy(
        strategy, cgraph, geometries, arch, cost_model, closure_limit
    )
    stages = assign_cores_and_rows(cgraph, geometries, partition, arch)
    return ExecutionPlan(
        graph=graph,
        cgraph=cgraph,
        arch=arch,
        strategy=strategy,
        geometries=geometries,
        stages=stages,
        partition=partition,
    )


def compile_graph(
    graph: ComputationGraph,
    arch: ArchConfig,
    strategy: str = "dp",
    registry: Optional[ISARegistry] = None,
    closure_limit: Optional[int] = None,
) -> CompiledModel:
    """Compile a computation graph for a CIM architecture.

    ``strategy`` selects the CG-level optimization: ``"generic"``,
    ``"duplication"`` (CIM-MLC-style opportunistic duplication), or
    ``"dp"`` (Algorithm 1).
    """
    return _generate(plan_graph(graph, arch, strategy, closure_limit), registry)


def _generate(
    plan: ExecutionPlan, registry: Optional[ISARegistry]
) -> CompiledModel:
    """OP-level half of :func:`compile_graph`: lay out global memory and
    generate every core's program for one chip's plan."""
    from repro.compiler.codegen.lowering import (
        ProgramGenerator,
        build_global_image,
    )

    layout_global_memory(plan)
    programs = ProgramGenerator(plan, registry).generate()
    return CompiledModel(
        plan=plan,
        programs=programs,
        global_image=build_global_image(plan),
        registry=registry or _default_registry(),
    )


# ---------------------------------------------------------------------------
# Multi-chip compilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterChipTransfer:
    """One explicit inter-chip transfer instruction.

    The compiler/simulator contract (documented in
    ``docs/ARCHITECTURE.md``, "Multi-chip sharding"): after chip
    ``src_chip`` finishes its shard, ``nbytes`` of tensor ``tensor`` are
    moved from ``src_address`` in the source chip's global memory to
    ``dst_address`` in the destination chip's global memory over the
    :class:`~repro.config.InterChipConfig` link.  Transfers are listed
    in deterministic (src_chip, dst_chip, tensor) order; all transfers
    out of a chip depart when that chip's shard completes, and a chip
    starts only after all its inbound transfers have arrived.
    """

    src_chip: int
    dst_chip: int
    tensor: str
    src_address: int
    dst_address: int
    nbytes: int


@dataclass
class MultiChipModel:
    """The multi-chip compiler product: per-chip programs + transfers.

    Each entry of ``chips`` is a complete single-chip
    :class:`CompiledModel` for one shard; ``transfers`` is the explicit
    inter-chip transfer schedule between them.
    """

    sharding: ShardingPlan
    arch: ArchConfig
    chips: List[CompiledModel]
    transfers: List[InterChipTransfer]

    @property
    def graph(self) -> ComputationGraph:
        """The original (unsharded) model graph."""
        return self.sharding.graph

    @property
    def num_chips(self) -> int:
        return len(self.chips)

    def input_placements(
        self, tensor: Optional[str] = None
    ) -> List[Tuple[int, int]]:
        """(chip, global address) pairs a model input must be written to."""
        inputs = self.graph.input_operators
        if tensor is None:
            if len(inputs) != 1:
                raise CompileError("model has multiple inputs; name one")
            tensor = inputs[0].output
        placements = []
        for shard, compiled in zip(self.sharding.shards, self.chips):
            if tensor in shard.external_inputs:
                placements.append(
                    (shard.index, compiled.plan.tensor_address[tensor])
                )
        if not placements:
            raise CompileError(f"no shard consumes model input {tensor!r}")
        return placements

    def output_placement(self, tensor: Optional[str] = None) -> Tuple[int, int]:
        """(chip, global address) where a model output materialises."""
        if tensor is None:
            if len(self.graph.outputs) != 1:
                raise CompileError("model has multiple outputs; name one")
            tensor = self.graph.outputs[0]
        resolved = self.sharding.cgraph.resolve(tensor)
        for shard, compiled in zip(self.sharding.shards, self.chips):
            if resolved in shard.final_outputs:
                return shard.index, compiled.plan.tensor_address[resolved]
        raise CompileError(f"no shard produces model output {tensor!r}")

    def total_instructions(self) -> int:
        return sum(c.total_instructions() for c in self.chips)

    def interchip_bytes(self) -> int:
        return sum(t.nbytes for t in self.transfers)

    def transfer_edges(self) -> List[Tuple[int, int, int]]:
        """The per-input ``(src, dst, nbytes)`` edges the admission
        kernel schedules, in transfer order."""
        return [(t.src_chip, t.dst_chip, t.nbytes) for t in self.transfers]

    def summary(self) -> str:
        lines = [self.sharding.summary()]
        for chip, compiled in enumerate(self.chips):
            lines.append(f"chip {chip}: {compiled.summary()}")
        lines.append(
            f"  {len(self.transfers)} inter-chip transfers, "
            f"{self.interchip_bytes() / 1024:.1f} KiB over the link"
        )
        return "\n".join(lines)


class ChipPlans(NamedTuple):
    """What :func:`plan_chips` returns: one plan per chip, the per-input
    ``(src, dst, nbytes)`` transfer edges between them (schedule order,
    empty for one chip) and the sharding they came from (``None`` when
    the model was planned whole on one chip)."""

    plans: List[ExecutionPlan]
    edges: List[Tuple[int, int, int]]
    sharding: Optional[ShardingPlan]


@contextmanager
def _naming_chip(shard: GraphShard):
    """Prefix a shard's compile error with the chip it was compiled for,
    keeping its type (a :class:`~repro.errors.CapacityError` stays one)."""
    try:
        yield
    except CompileError as exc:
        raise type(exc)(
            f"chip {shard.index} (condensed nodes "
            f"{shard.node_indices[0]}..{shard.node_indices[-1]}): {exc}"
        ) from exc


def plan_chips(
    graph: ComputationGraph,
    arch: ArchConfig,
    chips: int = 1,
    strategy: str = "dp",
    closure_limit: Optional[int] = None,
    sharding: Optional[ShardingPlan] = None,
) -> ChipPlans:
    """Plan one model onto a pipeline of ``chips`` identical chips.

    The one pipeline builder every tier goes through: with ``chips > 1``
    the graph is sharded at layer cuts of its condensed linearization
    (balanced by weight bytes) and each shard is planned with
    :func:`plan_graph` against ``arch``; one chip plans the graph whole.
    ``sharding`` supplies the cuts ready-made (``compile_sharded``'s
    pinned ones, the sweep's per-worker cache).  Per-shard
    capacity/closure checks are the single-chip planner's own; a shard
    that cannot map re-raises its error naming the chip.
    """
    if chips < 1:
        raise CompileError(f"chip count must be >= 1, got {chips}")
    if sharding is None and chips > 1:
        sharding = shard_graph(graph, chips)
    if sharding is None:
        return ChipPlans(
            [plan_graph(graph, arch, strategy, closure_limit)], [], None
        )
    plans = []
    for shard in sharding.shards:
        with _naming_chip(shard):
            plans.append(
                plan_graph(shard.graph, arch, strategy, closure_limit)
            )
    return ChipPlans(plans, sharding.transfer_edges(), sharding)


def _generate_chips(
    arch: ArchConfig,
    planned: ChipPlans,
    registry: Optional[ISARegistry] = None,
) -> MultiChipModel:
    """Code-generate every chip of a sharded :class:`ChipPlans` and turn
    each boundary tensor into an explicit :class:`InterChipTransfer`
    from its producer's spill address to its consumer's input address."""
    sharding = planned.sharding
    chips: List[CompiledModel] = []
    for shard, plan in zip(sharding.shards, planned.plans):
        with _naming_chip(shard):
            chips.append(_generate(plan, registry))

    transfers: List[InterChipTransfer] = []
    for shard in sharding.shards:
        for tensor, src in sorted(shard.incoming.items()):
            src_plan = chips[src].plan
            dst_plan = chips[shard.index].plan
            nbytes = sharding.graph.tensor(tensor).size_bytes
            transfers.append(
                InterChipTransfer(
                    src_chip=src,
                    dst_chip=shard.index,
                    tensor=tensor,
                    src_address=src_plan.tensor_address[tensor],
                    dst_address=dst_plan.tensor_address[tensor],
                    nbytes=nbytes,
                )
            )
    transfers.sort(key=lambda t: (t.src_chip, t.dst_chip, t.tensor))
    return MultiChipModel(
        sharding=sharding, arch=arch, chips=chips, transfers=transfers
    )


def compile_sharded(
    graph: ComputationGraph,
    arch: ArchConfig,
    num_chips: int,
    strategy: str = "dp",
    registry: Optional[ISARegistry] = None,
    closure_limit: Optional[int] = None,
    cuts: Optional[Tuple[int, ...]] = None,
) -> MultiChipModel:
    """Compile one model for a pipeline of ``num_chips`` identical chips.

    The shards are cut (``cuts`` pins the cut points) and planned by
    :func:`plan_chips`, then code-generated with the unchanged
    single-chip flow; ``num_chips=1`` is a one-shard pipeline.  A shard
    that cannot map raises :class:`CompileError` naming the chip.
    """
    sharding = shard_graph(graph, num_chips, cuts=cuts)
    planned = plan_chips(
        graph, arch, num_chips, strategy, closure_limit, sharding=sharding
    )
    return _generate_chips(arch, planned, registry)


def compile_model(
    model: Union[str, ComputationGraph],
    arch: ArchLike = None,
    strategy: str = "dp",
    chips: int = 1,
    closure_limit: Optional[int] = None,
    **model_kwargs,
) -> Union[CompiledModel, MultiChipModel]:
    """Compile a model (zoo name or graph) for an architecture.

    ``arch`` accepts a ready :class:`ArchConfig` or the path of a JSON
    architecture configuration file (``None`` = the paper's Table I).
    With ``chips > 1`` the model is pipeline-sharded across that many
    identical chips and a :class:`MultiChipModel` is returned.
    ``closure_limit`` bounds the DP partitioner's closure enumeration.
    """
    graph = resolve_graph(model, **model_kwargs)
    arch = resolve_arch(arch)
    planned = plan_chips(graph, arch, chips, strategy, closure_limit)
    if planned.sharding is None:
        return _generate(planned.plans[0], None)
    return _generate_chips(arch, planned)
