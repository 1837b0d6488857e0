"""DP-based model partitioning and mapping (Algorithm 1), plus the
inter-chip sharding front-end.

**Within one chip** the model is divided into sequential *execution
stages* so each stage's weights fit the chip's CIM capacity
simultaneously.  Dependency closures of the condensed DAG are enumerated
as bitmasks; every pair of nested closures ``D[j] subset D[i]`` defines a
candidate stage ``D[i] - D[j]``; ``OptimalMapping`` prices each candidate
(with duplication), and dynamic programming selects the partition chain
with minimum total cost.

**Across chips**, :func:`shard_graph` pipeline-shards the condensed
linearization into contiguous per-chip segments (:class:`ShardingSpec`
/ :class:`ShardingPlan`): each shard becomes a standalone
:class:`~repro.graph.graph.ComputationGraph` whose boundary tensors are
explicit ``INPUT`` operators / marked outputs, so the single-chip
compiler runs unchanged per shard and boundary tensors become explicit
inter-chip transfers (see ``docs/ARCHITECTURE.md``, "Multi-chip
sharding").
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config import ArchConfig
from repro.errors import CompileError
from repro.compiler.closures import (
    DEFAULT_CLOSURE_LIMIT,
    closure_masks,
    is_subset,
    mask_nodes,
)
from repro.compiler.cost import CostModel, StageEstimate, spill_flags
from repro.compiler.frontend import CondensedGraph, condense
from repro.compiler.geometry import NodeGeometry
from repro.compiler.mapping import optimal_mapping
from repro.graph.graph import ComputationGraph
from repro.graph.ops import Operator, OpKind


@dataclass
class StageDecision:
    """One chosen stage: its node indices and replica counts."""

    node_indices: List[int]
    replicas: Dict[str, int]
    estimate: StageEstimate


@dataclass
class PartitionResult:
    """The full partition chain plus its estimated cost."""

    stages: List[StageDecision]
    total_cost: float

    @property
    def total_energy_pj(self) -> float:
        return sum(s.estimate.energy_pj for s in self.stages)


def dp_partition(
    cgraph: CondensedGraph,
    geometries: Dict[str, NodeGeometry],
    arch: ArchConfig,
    cost_model: Optional[CostModel] = None,
    duplicate: bool = True,
    closure_limit: int = DEFAULT_CLOSURE_LIMIT,
) -> PartitionResult:
    """Algorithm 1: DP-based partitioning and mapping."""
    cost_model = cost_model or CostModel(arch)
    deps = cgraph.dep_list()
    masks = closure_masks(deps, closure_limit)
    index_of = {mask: i for i, mask in enumerate(masks)}
    full = (1 << len(cgraph)) - 1
    if full not in index_of:
        raise CompileError("closure enumeration lost the full graph")

    INF = float("inf")
    dp = [INF] * len(masks)
    prev = [-1] * len(masks)
    decision: List[Optional[StageDecision]] = [None] * len(masks)
    stage_cache: Dict[int, Optional[Tuple[Dict[str, int], StageEstimate]]] = {}

    def price_stage(stage_mask: int) -> Optional[Tuple[Dict[str, int], StageEstimate]]:
        if stage_mask not in stage_cache:
            nodes = mask_nodes(stage_mask)
            geoms = [geometries[cgraph.nodes[i].name] for i in nodes]
            spill = spill_flags(cgraph, nodes)
            stage_cache[stage_mask] = optimal_mapping(
                geoms, arch, cost_model, duplicate=duplicate, spill=spill
            )
        return stage_cache[stage_mask]

    for i, mask_i in enumerate(masks):
        if mask_i == 0:
            dp[i] = 0.0
            continue
        for j in range(len(masks)):
            mask_j = masks[j]
            if mask_j == mask_i or not is_subset(mask_j, mask_i):
                continue
            if dp[j] == INF:
                continue
            stage_mask = mask_i & ~mask_j
            priced = price_stage(stage_mask)
            if priced is None:
                continue
            replicas, estimate = priced
            cost = dp[j] + estimate.cost
            if cost < dp[i]:
                dp[i] = cost
                prev[i] = j
                decision[i] = StageDecision(
                    node_indices=mask_nodes(stage_mask),
                    replicas=replicas,
                    estimate=estimate,
                )

    final = index_of[full]
    if dp[final] == INF:
        raise CompileError(
            "no feasible partition: some stage cannot fit the chip even alone"
        )
    stages: List[StageDecision] = []
    cursor = final
    while masks[cursor] != 0:
        stages.append(decision[cursor])
        cursor = prev[cursor]
    stages.reverse()
    return PartitionResult(stages=stages, total_cost=dp[final])


def greedy_partition(
    cgraph: CondensedGraph,
    geometries: Dict[str, NodeGeometry],
    arch: ArchConfig,
    cost_model: Optional[CostModel] = None,
    duplicate: bool = False,
) -> PartitionResult:
    """Baseline partitioning: pack the linear order greedily by capacity.

    This is the conventional scheme both baselines in Sec. IV-B use:
    stages are maximal prefixes of the linearization whose single-replica
    mappings fit the chip.  With ``duplicate=True`` the leftover cores of
    each stage are then filled by opportunistic weight duplication
    (CIM-MLC's strategy); with ``False`` it is the generic mapping.
    """
    cost_model = cost_model or CostModel(arch)
    stages: List[StageDecision] = []
    current: List[int] = []

    def close_stage() -> None:
        if not current:
            return
        geoms = [geometries[cgraph.nodes[i].name] for i in current]
        spill = spill_flags(cgraph, current)
        priced = optimal_mapping(
            geoms, arch, cost_model, duplicate=duplicate, spill=spill
        )
        if priced is None:  # pragma: no cover - guarded by the fit check
            raise CompileError("greedy stage unexpectedly infeasible")
        replicas, estimate = priced
        stages.append(
            StageDecision(
                node_indices=list(current), replicas=replicas, estimate=estimate
            )
        )
        current.clear()

    used_cores = 0
    for index, node in enumerate(cgraph.nodes):
        need = geometries[node.name].cores_min
        if current and used_cores + need > arch.num_cores:
            close_stage()
            used_cores = 0
        if need > arch.num_cores:
            raise CompileError(
                f"{node.name} needs {need} cores, chip has {arch.num_cores}"
            )
        current.append(index)
        used_cores += need
    close_stage()
    total = sum(s.estimate.cost for s in stages)
    return PartitionResult(stages=stages, total_cost=total)


# ---------------------------------------------------------------------------
# Inter-chip pipeline sharding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardingSpec:
    """How to split one model across several chips.

    ``num_chips`` chips execute a pipeline: chip ``k`` runs a contiguous
    segment of the condensed linearization (which is dependency-
    preserving, so every contiguous cut is a valid pipeline stage).
    ``cuts`` optionally pins the interior cut points -- ``cuts[k]`` is
    the first condensed-node index of chip ``k + 1``; when ``None`` the
    cuts are chosen automatically to balance per-chip weight bytes.
    """

    num_chips: int
    cuts: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.num_chips <= 0:
            raise CompileError("sharding needs at least one chip")
        if self.cuts is not None:
            if not isinstance(self.cuts, tuple):
                object.__setattr__(self, "cuts", tuple(self.cuts))
            if len(self.cuts) != self.num_chips - 1:
                raise CompileError(
                    f"{self.num_chips} chips need {self.num_chips - 1} "
                    f"interior cuts, got {len(self.cuts)}"
                )


@dataclass
class GraphShard:
    """One chip's slice of the model: a standalone computation graph.

    ``graph`` contains the shard's operators plus one ``INPUT`` operator
    per boundary tensor; every tensor another shard (or the host)
    consumes is a marked graph output, so the single-chip compiler
    spills it to global memory, where the inter-chip scheduler picks it
    up.
    """

    index: int
    node_indices: List[int]
    graph: ComputationGraph
    #: boundary tensors arriving from an earlier shard (tensor -> shard).
    incoming: Dict[str, int] = field(default_factory=dict)
    #: boundary tensors departing to later shards, in layout order.
    outgoing: List[str] = field(default_factory=list)
    #: original model inputs consumed by this shard (host-written).
    external_inputs: List[str] = field(default_factory=list)
    #: original model outputs produced by this shard (host-read).
    final_outputs: List[str] = field(default_factory=list)


@dataclass
class ShardingPlan:
    """The resolved sharding: per-chip subgraphs plus boundary metadata."""

    spec: ShardingSpec
    graph: ComputationGraph
    cgraph: CondensedGraph
    cuts: Tuple[int, ...]
    shards: List[GraphShard]

    @property
    def num_chips(self) -> int:
        return len(self.shards)

    def transfer_edges(self) -> List[Tuple[int, int, int]]:
        """The per-input ``(src, dst, nbytes)`` transfer edges, in
        schedule order: one edge per boundary tensor a shard receives."""
        return sorted(
            (shard.incoming[tensor], shard.index,
             self.graph.tensor(tensor).size_bytes)
            for shard in self.shards
            for tensor in shard.incoming
        )

    def summary(self) -> str:
        lines = [
            f"sharding {self.graph.name}: {self.num_chips} chips, cuts "
            f"{list(self.cuts)}"
        ]
        for shard in self.shards:
            weights = shard.graph.total_weight_bytes()
            lines.append(
                f"  chip {shard.index}: {len(shard.node_indices)} condensed "
                f"nodes, {weights / 1024:.1f} KiB weights, "
                f"{len(shard.incoming)} in / {len(shard.outgoing)} out "
                f"boundary tensors"
            )
        return "\n".join(lines)


def _balanced_cuts(cgraph: CondensedGraph, num_chips: int) -> Tuple[int, ...]:
    """Cut the linearization so per-chip weight bytes are balanced.

    Greedy prefix packing against the ideal per-chip share, constrained
    so every chip gets at least one condensed node (and later chips are
    never starved of the nodes they need to exist).
    """
    weights = [
        sum(op.weight_bytes() for op in node.operators)
        for node in cgraph.nodes
    ]
    total = sum(weights)
    n = len(cgraph)
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    cuts: List[int] = []
    cursor = 0
    for chip in range(num_chips - 1):
        target = total * (chip + 1) / num_chips
        # leave at least one node for each remaining chip
        hi = n - (num_chips - 1 - chip)
        cut = cursor + 1
        while cut < hi and prefix[cut] < target:
            cut += 1
        cuts.append(cut)
        cursor = cut
    return tuple(cuts)


def _shard_segments(
    cgraph: CondensedGraph, spec: ShardingSpec
) -> Tuple[Tuple[int, ...], List[List[int]]]:
    n = len(cgraph)
    if spec.num_chips > n:
        raise CompileError(
            f"cannot shard {n} condensed nodes across {spec.num_chips} "
            f"chips; at most {n} chips are usable"
        )
    cuts = spec.cuts if spec.cuts is not None else _balanced_cuts(
        cgraph, spec.num_chips
    )
    bounds = [0, *cuts, n]
    # Strict monotonicity against the 0 / n sentinels also rejects any
    # cut outside (0, n), so this is the single range check needed.
    if list(bounds) != sorted(set(bounds)):
        raise CompileError(
            f"sharding cuts {list(cuts)} must be strictly increasing in "
            f"(0, {n}) so every chip gets at least one node"
        )
    segments = [
        list(range(bounds[k], bounds[k + 1])) for k in range(spec.num_chips)
    ]
    return tuple(cuts), segments


def _build_shard_graph(
    graph: ComputationGraph,
    cgraph: CondensedGraph,
    node_indices: List[int],
    shard_index: int,
) -> GraphShard:
    """Extract one shard as a standalone computation graph."""
    member: Set[str] = set()
    for i in node_indices:
        for op in cgraph.nodes[i].operators:
            member.add(op.name)

    topo = graph.topological_order()
    included: List[Operator] = []
    included_names: Set[str] = set()
    # FLATTEN operators belong to no condensed node (they are aliases);
    # pull in, right-to-left, every flatten chain feeding a member op.
    consumed_here: Set[str] = set()
    for op in topo:
        if op.name in member:
            consumed_here.update(op.inputs)
    for op in reversed(topo):
        if op.kind is OpKind.FLATTEN and op.output in consumed_here:
            member.add(op.name)
            consumed_here.update(op.inputs)
    for op in topo:
        if op.name in member:
            included.append(op)
            included_names.add(op.name)

    produced = {op.output for op in included}
    boundary: List[str] = []
    for op in included:
        for tensor in op.inputs:
            if tensor not in produced and tensor not in boundary:
                boundary.append(tensor)

    sub = ComputationGraph(f"{graph.name}@chip{shard_index}")
    for tensor in boundary:
        sub.add_tensor(graph.tensor(tensor))
    for op in included:
        if op.output not in sub.tensors:
            sub.add_tensor(graph.tensor(op.output))
    for tensor in boundary:
        sub.add_operator(
            Operator(
                name=f"in:{tensor}",
                kind=OpKind.INPUT,
                inputs=[],
                output=tensor,
                attrs={"shape": graph.tensor(tensor).shape},
            )
        )
    for op in included:
        sub.add_operator(op)

    external = {op.output for op in graph.input_operators}
    shard = GraphShard(
        index=shard_index,
        node_indices=list(node_indices),
        graph=sub,
        external_inputs=[t for t in boundary if t in external],
    )
    shard.incoming = {t: -1 for t in boundary if t not in external}
    return shard


def shard_graph(
    graph: ComputationGraph,
    num_chips: int,
    cuts: Optional[Tuple[int, ...]] = None,
    cgraph: Optional[CondensedGraph] = None,
) -> ShardingPlan:
    """Pipeline-shard a model across ``num_chips`` chips at layer cuts.

    The condensed linearization is dependency-preserving, so contiguous
    segments are valid pipeline stages: every tensor a shard consumes is
    produced by an earlier shard (an inter-chip transfer), by the host
    (a model input), or within the shard.  Capacity feasibility of each
    shard is checked by the per-shard planning pass
    (:func:`repro.compiler.pipeline.plan_chips`), which re-raises a
    shard's :class:`CompileError` naming the offending chip.
    """
    spec = ShardingSpec(num_chips=num_chips, cuts=cuts)
    cgraph = cgraph or condense(graph)
    resolved_cuts, segments = _shard_segments(cgraph, spec)
    shards = [
        _build_shard_graph(graph, cgraph, segment, index)
        for index, segment in enumerate(segments)
    ]

    producer_shard: Dict[str, int] = {}
    for shard in shards:
        for op in shard.graph.operators:
            if op.kind is not OpKind.INPUT:
                producer_shard[op.output] = shard.index

    final_outputs = {cgraph.resolve(t) for t in graph.outputs}
    for shard in shards:
        for tensor in list(shard.incoming):
            src = producer_shard.get(tensor)
            if src is None or src >= shard.index:
                raise CompileError(
                    f"shard {shard.index}: boundary tensor {tensor!r} is "
                    f"not produced by an earlier shard (cuts are not "
                    f"dependency-preserving)"
                )
            shard.incoming[tensor] = src

    for shard in shards:
        outgoing = []
        for op in shard.graph.operators:
            if op.kind is OpKind.INPUT:
                continue
            consumers = [
                other
                for other in shards
                if other.index > shard.index and op.output in other.incoming
            ]
            if consumers:
                outgoing.append(op.output)
            if op.output in final_outputs or op.output in graph.outputs:
                shard.final_outputs.append(op.output)
        shard.outgoing = outgoing
        for tensor in [*outgoing, *shard.final_outputs]:
            shard.graph.mark_output(tensor)
        if not shard.graph.outputs:
            raise CompileError(
                f"shard {shard.index} produces no boundary or model "
                f"outputs; adjust the cuts"
            )
        shard.graph.validate()

    return ShardingPlan(
        spec=spec,
        graph=graph,
        cgraph=cgraph,
        cuts=resolved_cuts,
        shards=shards,
    )
