"""The CIMFlow compiler: CG-level and OP-level optimization (Sec. III-C)."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "repro.compiler.closures": ("closure_masks", "prefix_masks"),
    "repro.compiler.cost": ("CostModel", "StageEstimate"),
    "repro.compiler.frontend": ("CondensedGraph", "CondensedNode", "condense"),
    "repro.compiler.geometry": ("NodeGeometry", "WeightTile", "build_geometry"),
    "repro.compiler.mapping": ("optimal_mapping",),
    "repro.compiler.partition": (
        "GraphShard", "PartitionResult", "ShardingPlan", "ShardingSpec",
        "StageDecision", "dp_partition", "greedy_partition", "shard_graph",
    ),
    "repro.compiler.pipeline": (
        "CompiledModel", "InterChipTransfer", "MultiChipModel",
        "compile_graph", "compile_sharded",
    ),
    "repro.compiler.plan": ("ExecutionPlan", "GLOBAL_BASE", "StagePlan"),
    "repro.compiler.strategies": (
        "STRATEGIES", "build_geometries", "partition_with_strategy",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:  # the table above, spelled out for static tools
    from repro.compiler.closures import closure_masks, prefix_masks
    from repro.compiler.cost import CostModel, StageEstimate
    from repro.compiler.frontend import CondensedGraph, CondensedNode, condense
    from repro.compiler.geometry import NodeGeometry, WeightTile, build_geometry
    from repro.compiler.mapping import optimal_mapping
    from repro.compiler.partition import (
        GraphShard,
        PartitionResult,
        ShardingPlan,
        ShardingSpec,
        StageDecision,
        dp_partition,
        greedy_partition,
        shard_graph,
    )
    from repro.compiler.pipeline import (
        CompiledModel,
        InterChipTransfer,
        MultiChipModel,
        compile_graph,
        compile_sharded,
    )
    from repro.compiler.plan import ExecutionPlan, GLOBAL_BASE, StagePlan
    from repro.compiler.strategies import (
        STRATEGIES,
        build_geometries,
        partition_with_strategy,
    )

__all__ = [
    "condense",
    "CondensedGraph",
    "CondensedNode",
    "NodeGeometry",
    "WeightTile",
    "build_geometry",
    "build_geometries",
    "closure_masks",
    "prefix_masks",
    "CostModel",
    "StageEstimate",
    "optimal_mapping",
    "dp_partition",
    "greedy_partition",
    "PartitionResult",
    "StageDecision",
    "partition_with_strategy",
    "STRATEGIES",
    "ExecutionPlan",
    "StagePlan",
    "GLOBAL_BASE",
    "compile_graph",
    "CompiledModel",
    "shard_graph",
    "ShardingSpec",
    "ShardingPlan",
    "GraphShard",
    "compile_sharded",
    "MultiChipModel",
    "InterChipTransfer",
]
