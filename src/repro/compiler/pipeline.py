"""End-to-end compilation driver: ONNX-like graph -> per-core programs.

``compile_graph`` runs the full flow of Fig. 4: preprocessing and
condensation, CG-level partitioning/mapping under the selected strategy,
core and row assignment, global-memory layout, and OP-level code
generation, returning a :class:`CompiledModel` ready for simulation.
``plan_graph`` stops after the CG level, returning the
:class:`ExecutionPlan` that wide design-space sweeps evaluate with the
fast model.  ``compile_sharded`` is the multi-chip driver: it
pipeline-shards the graph (:func:`repro.compiler.partition.shard_graph`),
compiles every shard with the unchanged single-chip flow, and emits the
explicit :class:`InterChipTransfer` schedule the multi-chip scheduler
(:mod:`repro.sim.multichip`) executes.  See ``docs/ARCHITECTURE.md``
("Two-level compilation" and "Multi-chip sharding") for the flow in
detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import ArchConfig
from repro.errors import CompileError
from repro.compiler.cost import CostModel
from repro.compiler.frontend import CondensedGraph, condense
from repro.compiler.partition import ShardingPlan, shard_graph
from repro.compiler.plan import (
    ExecutionPlan,
    GLOBAL_BASE,
    assign_cores_and_rows,
    layout_global_memory,
)
from repro.compiler.strategies import (
    STRATEGIES,
    build_geometries,
    partition_with_strategy,
)
from repro.graph.graph import ComputationGraph

if TYPE_CHECKING:
    import numpy as np

    from repro.isa import ISARegistry, Program


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
    from repro.compiler.codegen.lowering import (
        ProgramGenerator,
        build_global_image,
    )

    if strategy not in STRATEGIES:
        raise CompileError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    plan = plan_graph(graph, arch, strategy, closure_limit)
    layout_global_memory(plan)
    generator = ProgramGenerator(plan, registry)
    programs = generator.generate()
    image = build_global_image(plan)
    return CompiledModel(
        plan=plan,
        programs=programs,
        global_image=image,
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

    def summary(self) -> str:
        lines = [self.sharding.summary()]
        for chip, compiled in enumerate(self.chips):
            lines.append(f"chip {chip}: {compiled.summary()}")
        lines.append(
            f"  {len(self.transfers)} inter-chip transfers, "
            f"{self.interchip_bytes() / 1024:.1f} KiB over the link"
        )
        return "\n".join(lines)


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

    The graph is sharded at layer cuts of its condensed linearization
    (balanced by weight bytes unless ``cuts`` pins them), each shard is
    compiled with the unchanged single-chip flow against ``arch``, and
    every boundary tensor becomes an explicit :class:`InterChipTransfer`
    from its producer's spill address to its consumer's input address.
    Per-shard capacity/closure checks are the single-chip compiler's
    own; a shard that cannot map raises :class:`CompileError` naming the
    chip.
    """
    plan = shard_graph(graph, num_chips, cuts=cuts)
    chips: List[CompiledModel] = []
    for shard in plan.shards:
        try:
            chips.append(
                compile_graph(
                    shard.graph, arch, strategy,
                    registry=registry, closure_limit=closure_limit,
                )
            )
        except CompileError as exc:
            raise CompileError(
                f"chip {shard.index} (condensed nodes "
                f"{shard.node_indices[0]}..{shard.node_indices[-1]}): {exc}"
            ) from exc

    transfers: List[InterChipTransfer] = []
    for shard in plan.shards:
        for tensor, src in sorted(shard.incoming.items()):
            src_plan = chips[src].plan
            dst_plan = chips[shard.index].plan
            nbytes = graph.tensor(tensor).size_bytes
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
        sharding=plan, arch=arch, chips=chips, transfers=transfers
    )
