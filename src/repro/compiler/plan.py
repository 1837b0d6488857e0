"""Execution-plan data structures: stages, clusters, replicas, memory map.

An :class:`ExecutionPlan` is the compiler's CG-level product: the chosen
partition stages, the core clusters and replica row-splits of every node,
and the global-memory layout (weight tiles, biases, spilled activation
tensors).  OP-level code generation consumes a plan and emits one ISA
program per core.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import ArchConfig
from repro.config.arch import GLOBAL_BASE
from repro.errors import CompileError
from repro.compiler.cost import StageEstimate, spill_flags
from repro.compiler.frontend import CondensedGraph, CondensedNode
from repro.compiler.geometry import NodeGeometry, WeightTile
from repro.compiler.partition import PartitionResult
from repro.graph.graph import ComputationGraph


def split_rows(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``total`` rows into ``parts`` balanced contiguous ranges."""
    if parts <= 0 or total <= 0:
        raise CompileError("rows and parts must be positive")
    parts = min(parts, total)
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass
class ReplicaAssignment:
    """One replica (duplication copy) of a node: its cores and row range."""

    index: int
    cores: List[int]
    rows: Tuple[int, int]

    @property
    def num_rows(self) -> int:
        return self.rows[1] - self.rows[0]


@dataclass
class NodeMapping:
    """Complete placement of one node within its stage."""

    node: CondensedNode
    geometry: NodeGeometry
    replicas: List[ReplicaAssignment]

    @property
    def all_cores(self) -> List[int]:
        return [core for replica in self.replicas for core in replica.cores]

    def replica_for_row(self, row: int) -> ReplicaAssignment:
        """The replica producing output row ``row``."""
        for replica in self.replicas:
            if replica.rows[0] <= row < replica.rows[1]:
                return replica
        raise CompileError(
            f"{self.node.name}: no replica owns output row {row}"
        )


@dataclass
class StagePlan:
    """One execution stage: nodes, their mappings, and spill flags."""

    index: int
    nodes: List[CondensedNode]
    mappings: Dict[str, NodeMapping]
    spill: Dict[str, bool]
    estimate: Optional[StageEstimate] = None

    def produces_in_stage(self, tensor: str) -> Optional[NodeMapping]:
        """Mapping of the stage node producing ``tensor``, if any."""
        for node in self.nodes:
            if node.output == tensor:
                return self.mappings[node.name]
        return None

    @property
    def cores_used(self) -> int:
        return sum(len(m.all_cores) for m in self.mappings.values())


@dataclass
class ExecutionPlan:
    """The CG-level compilation product."""

    graph: ComputationGraph
    cgraph: CondensedGraph
    arch: ArchConfig
    strategy: str
    geometries: Dict[str, NodeGeometry]
    stages: List[StagePlan]
    partition: PartitionResult
    tensor_address: Dict[str, int] = field(default_factory=dict)
    weight_address: Dict[Tuple[str, int, int], int] = field(default_factory=dict)
    bias_address: Dict[str, int] = field(default_factory=dict)
    global_bytes: int = 0

    def tile_address(self, node_name: str, tile: WeightTile) -> int:
        return self.weight_address[(node_name, tile.slice_index, tile.tile_index)]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def resident_cores(self) -> frozenset:
        """Cores whose weight-load prologue a resident session can hoist.

        A core assigned work in more than one stage reuses its macro
        groups, staging buffer and bias segment across stages, so its
        loads must stay inline with the stage body; only cores assigned
        work in exactly one stage can hoist them into a run-once load
        segment.  (Multipass cores stream weight tiles inside the compute
        body regardless -- for them only the bias copy is hoisted.)
        Code generation splits programs by this rule and the fast model
        prices the split by it.
        """
        stages: Dict[int, set] = {}
        for stage in self.stages:
            for mapping in stage.mappings.values():
                for core in mapping.all_cores:
                    stages.setdefault(core, set()).add(stage.index)
        return frozenset(
            core for core, seen in stages.items() if len(seen) == 1
        )

    @property
    def max_replication(self) -> int:
        return max(
            (len(m.replicas) for s in self.stages for m in s.mappings.values()),
            default=1,
        )

    def summary(self) -> str:
        lines = [
            f"plan[{self.strategy}] {self.graph.name}: {self.num_stages} stages, "
            f"global footprint {self.global_bytes / 1024:.1f} KiB"
        ]
        for stage in self.stages:
            parts = []
            for node in stage.nodes:
                mapping = self.mappings_of(stage, node)
                parts.append(
                    f"{node.name}(x{len(mapping.replicas)}@"
                    f"{len(mapping.replicas[0].cores)}c)"
                )
            lines.append(
                f"  stage {stage.index}: {stage.cores_used} cores: "
                + ", ".join(parts)
            )
        return "\n".join(lines)

    @staticmethod
    def mappings_of(stage: StagePlan, node: CondensedNode) -> NodeMapping:
        return stage.mappings[node.name]


def assign_cores_and_rows(
    cgraph: CondensedGraph,
    geometries: Dict[str, NodeGeometry],
    partition: PartitionResult,
    arch: ArchConfig,
) -> List[StagePlan]:
    """Turn partition decisions into concrete core ids and row ranges.

    Cores are assigned densely in node order; replicas of a node occupy
    adjacent core blocks (the paper's clusters), keeping intra-cluster NoC
    distances short under XY routing.
    """
    stages: List[StagePlan] = []
    for stage_index, decision in enumerate(partition.stages):
        next_core = 0
        nodes = [cgraph.nodes[i] for i in decision.node_indices]
        mappings: Dict[str, NodeMapping] = {}
        for node in nodes:
            geometry = geometries[node.name]
            replica_count = min(
                decision.replicas.get(node.name, 1), geometry.max_replicas
            )
            row_ranges = split_rows(geometry.out_h, replica_count)
            replicas = []
            for r_index, rows in enumerate(row_ranges):
                cores = list(range(next_core, next_core + geometry.cores_min))
                next_core += geometry.cores_min
                replicas.append(
                    ReplicaAssignment(index=r_index, cores=cores, rows=rows)
                )
            if next_core > arch.num_cores:
                raise CompileError(
                    f"stage {stage_index} overflows the chip "
                    f"({next_core} > {arch.num_cores} cores)"
                )
            mappings[node.name] = NodeMapping(
                node=node, geometry=geometry, replicas=replicas
            )
        stages.append(
            StagePlan(
                index=stage_index,
                nodes=nodes,
                mappings=mappings,
                spill=spill_flags(cgraph, decision.node_indices),
                estimate=decision.estimate,
            )
        )
    return stages


def layout_global_memory(plan: ExecutionPlan) -> None:
    """Assign global-memory addresses: inputs, spilled tensors, weights.

    A simple bump allocator over the global window.  The paper's Table I
    chip has 16 MB of global memory; models whose parameters exceed it are
    assumed to stream from off-chip backing store at the same port (the
    cost model charges identical per-byte energy either way).
    """
    cursor = 0

    def allocate(size: int) -> int:
        nonlocal cursor
        address = GLOBAL_BASE + cursor
        cursor += (size + 63) & ~63  # 64-byte alignment
        return address

    graph = plan.graph
    cgraph = plan.cgraph
    for op in graph.input_operators:
        plan.tensor_address[op.output] = allocate(graph.tensor(op.output).size_bytes)
    for stage in plan.stages:
        for node in stage.nodes:
            if stage.spill[node.name]:
                info = graph.tensor(node.output)
                plan.tensor_address[node.output] = allocate(info.size_bytes)
    for stage in plan.stages:
        for node in stage.nodes:
            geometry = plan.geometries[node.name]
            if not node.is_cim:
                continue
            for tile in geometry.pack_tiles():
                key = (node.name, tile.slice_index, tile.tile_index)
                plan.weight_address[key] = allocate(tile.nbytes)
            bias_shape = node.anchor.bias_shape
            if bias_shape is not None:
                plan.bias_address[node.name] = allocate(4 * math.prod(bias_shape))
    plan.global_bytes = cursor
