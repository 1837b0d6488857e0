"""Core-mapping optimisation with operator (weight) duplication.

Given the nodes of one partition stage, :func:`grant_replicas` decides how
many *replicas* each node gets (the paper's weight duplication across
clusters of cores): starting from the minimum feasible mapping, leftover
cores are granted to whichever node currently bounds the stage pipeline,
as long as the cost model says the extra replica actually helps --
"strategically duplicating operator weights across clusters of cores when
deemed beneficial by the cost estimation model".  It works on the two
integers the cost model gives per node, ``(load_cycles, row_cycles)``,
so the DP (:func:`repro.compiler.partition.dp_partition`) compares
candidate stages without building an estimate; :func:`optimal_mapping`
runs the same greedy and then estimates the final mapping once.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ArchConfig
from repro.compiler.cost import (
    CostModel,
    NodeTopology,
    StageEstimate,
    node_latency,
)
from repro.compiler.geometry import NodeGeometry

#: The topology of a node priced alone: it reads and writes global memory.
ISOLATED = NodeTopology(True, True, 0)


def minimum_cores(geoms: List[NodeGeometry]) -> int:
    """Cores needed by one replica of every node in the stage."""
    return sum(g.cores_min for g in geoms)


def grant_replicas(
    geoms: Sequence[NodeGeometry],
    cycles: Sequence[Tuple[int, int]],
    spare_cores: int,
) -> Tuple[List[int], List[int]]:
    """Replica counts and node latencies after duplication, in ``geoms``
    order; ``cycles`` holds each node's ``(load_cycles, row_cycles)`` and
    ``spare_cores`` the cores one replica of every node leaves free.

    Stage latency is the slowest node plus fill and barrier terms that
    replica counts do not move, so a replica lowers it only when granted
    to the one slowest node and only if that node gets faster: a tie, a
    bottleneck out of rows or cores, or a trial that does not help ends
    the greedy, and no other trial needs pricing.  Every accepted trial
    takes at least one core, so the loop ends.
    """
    replicas = [1] * len(geoms)
    latencies = [
        node_latency(load, row, geom.out_h, 1)
        for geom, (load, row) in zip(geoms, cycles)
    ]
    while latencies:
        slowest = max(latencies)
        i = latencies.index(slowest)
        geom = geoms[i]
        if (
            latencies.count(slowest) > 1
            or replicas[i] >= geom.max_replicas
            or geom.cores_min > spare_cores
        ):
            break
        trial = node_latency(*cycles[i], geom.out_h, replicas[i] + 1)
        if trial >= slowest:
            break
        replicas[i] += 1
        latencies[i] = trial
        spare_cores -= geom.cores_min
    return replicas, latencies


def optimal_mapping(
    geoms: List[NodeGeometry],
    arch: ArchConfig,
    cost_model: CostModel,
    duplicate: bool = True,
    topology: Optional[Sequence[NodeTopology]] = None,
) -> Optional[Tuple[Dict[str, int], StageEstimate]]:
    """Choose replica counts for a stage; ``None`` when the stage cannot fit.

    ``topology`` is the stage's :func:`~repro.compiler.cost.stage_topology`
    in ``geoms`` order (default: every node :data:`ISOLATED`).  With
    ``duplicate=False`` the mapping is the generic single-replica
    placement (used by the baseline strategies).
    """
    spare = arch.num_cores - minimum_cores(geoms)
    if spare < 0:
        return None
    if topology is None:
        topology = [ISOLATED] * len(geoms)
    cycles = [
        cost_model.node_cycles(geom, *topo) for geom, topo in zip(geoms, topology)
    ]
    # Every replica takes at least one core: no spare core, no replica.
    counts, _ = grant_replicas(geoms, cycles, spare if duplicate else 0)
    estimate = cost_model.fold_stage([
        cost_model.estimate_node(geom, count, *topo)
        for geom, count, topo in zip(geoms, counts, topology)
    ])
    return {g.node.name: c for g, c in zip(geoms, counts)}, estimate
