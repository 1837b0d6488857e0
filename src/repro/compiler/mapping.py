"""Core-mapping optimisation with operator (weight) duplication.

Given the nodes of one partition stage, :func:`optimal_mapping` decides how
many *replicas* each node gets (the paper's weight duplication across
clusters of cores): starting from the minimum feasible mapping, leftover
cores are granted to whichever node currently bounds the stage pipeline,
as long as the cost model says the extra replica actually helps --
"strategically duplicating operator weights across clusters of cores when
deemed beneficial by the cost estimation model".
"""

from typing import Dict, List, Optional, Tuple

from repro.config import ArchConfig
from repro.compiler.cost import CostModel, StageEstimate, stage_topology
from repro.compiler.geometry import NodeGeometry


def minimum_cores(geoms: List[NodeGeometry]) -> int:
    """Cores needed by one replica of every node in the stage."""
    return sum(g.cores_min for g in geoms)


def optimal_mapping(
    geoms: List[NodeGeometry],
    arch: ArchConfig,
    cost_model: CostModel,
    duplicate: bool = True,
    spill: Optional[Dict[str, bool]] = None,
) -> Optional[Tuple[Dict[str, int], StageEstimate]]:
    """Choose replica counts for a stage; ``None`` when the stage cannot fit.

    With ``duplicate=False`` the mapping is the generic single-replica
    placement (used by the baseline strategies).
    """
    total_cores = arch.num_cores
    base = minimum_cores(geoms)
    if base > total_cores:
        return None
    replicas: Dict[str, int] = {g.node.name: 1 for g in geoms}
    # Reads, writes and consumers are fixed by the stage's node set; a
    # duplication trial only re-estimates the one node it changes.
    topology = stage_topology([g.node for g in geoms], spill)
    node_costs = [
        cost_model.estimate_node(geom, 1, *topo)
        for geom, topo in zip(geoms, topology)
    ]
    estimate = cost_model.fold_stage(node_costs)
    if not duplicate or not geoms:
        return replicas, estimate

    # Stage latency is the slowest node plus fill and barrier terms that
    # replica counts do not move, so a replica lowers it only when granted
    # to the one slowest node and only if that node gets faster: a tie, a
    # bottleneck out of rows or cores, or a trial that does not help ends
    # the greedy, and no other trial needs pricing.  Every accepted trial
    # takes at least one core, so the loop ends.
    latencies = [cost.latency for cost in node_costs]
    cores_used = base
    while True:
        slowest = max(latencies)
        i = latencies.index(slowest)
        geom = geoms[i]
        name = geom.node.name
        if (
            latencies.count(slowest) > 1
            or replicas[name] >= geom.max_replicas
            or cores_used + geom.cores_min > total_cores
        ):
            break
        trial = cost_model.estimate_node(geom, replicas[name] + 1, *topology[i])
        if trial.latency >= slowest:
            break
        replicas[name] += 1
        node_costs[i] = trial
        latencies[i] = trial.latency
        cores_used += geom.cores_min
    if cores_used > base:
        estimate = cost_model.fold_stage(node_costs)
    return replicas, estimate
