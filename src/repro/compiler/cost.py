"""Analytic cost estimation guiding CG-level optimization (Sec. III-C).

"To balance parallel execution benefits against communication costs, the
estimation model accounts for both computation costs and data transfer
overheads across inter- and intra-cluster communications."

The estimates here mirror the structure of the code the backend actually
emits (patch assembly, bit-serial MVMs, epilogues, row transfers), using
the same architecture parameters the cycle-accurate simulator charges, so
DP decisions and simulated outcomes track each other.  The fast analytic
performance model (:mod:`repro.sim.fastmodel`) reuses this module.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.config import ArchConfig
from repro.compiler.closures import mask_nodes
from repro.compiler.frontend import CondensedGraph
from repro.compiler.geometry import NodeGeometry
from repro.graph.ops import OpKind
from repro.utils import ceil_div

#: fixed per-instruction issue overhead (IF/DE + scalar address set-up).
_ISSUE = 2
#: scalar loop-control instructions per x-loop iteration.
_LOOP_OVERHEAD = 4
#: cycles to cross the chip to the global-memory port, on average.
_GLOBAL_HOPS = 4


#: cycles of the synchronisation that starts every stage.
STAGE_BARRIER = 100


class NodeTopology(NamedTuple):
    """Where one node reads and writes, fixed by its stage's node set.

    Field order matches the trailing parameters of
    :meth:`CostModel.node_cycles` and :meth:`CostModel.estimate_node`.
    """

    read_global: bool
    write_global: bool
    same_stage_consumers: int


def stage_topology(cgraph: CondensedGraph, stage_mask: int) -> List[NodeTopology]:
    """Where each node of a stage reads and writes, in ascending node order.

    ``stage_mask`` holds the stage's nodes (bit ``i`` = node ``i``).  A
    node reads its main input from global memory unless a stage node
    produces it, streams its output to every stage node reading it, and
    also writes it to global memory when a node outside the stage reads
    it or the graph needs it regardless (a marked output, or no reader
    at all).  Each fact is one ``&`` against the graph's per-node masks,
    and none depends on replica counts, so one pass serves every
    duplication trial of the stage.
    """
    producers = cgraph.main_producer_bits
    readers = cgraph.reader_masks
    always = cgraph.always_spills
    topology = []
    for i in mask_nodes(stage_mask):
        local = readers[i] & stage_mask
        topology.append(NodeTopology(
            not (producers[i] & stage_mask),
            always[i] or local != readers[i],
            bin(local).count("1"),
        ))
    return topology


def stage_mask_of(stage_nodes: Iterable[int]) -> int:
    """The bitmask of a set of node indices."""
    mask = 0
    for index in stage_nodes:
        mask |= 1 << index
    return mask


def spill_flags(
    cgraph: CondensedGraph, stage_nodes: Iterable[int]
) -> Dict[str, bool]:
    """Which stage nodes must write their output to global memory."""
    mask = stage_mask_of(stage_nodes)
    return {
        cgraph.nodes[index].name: topology.write_global
        for index, topology in zip(mask_nodes(mask), stage_topology(cgraph, mask))
    }


def node_latency(load: int, row: int, out_h: int, replicas: int) -> int:
    """One node's cycles: its weight load, then its rows, split over
    ``replicas`` that run in parallel."""
    return load - (-out_h // replicas) * row  # ceil(out_h / replicas) rows


def stage_latency(latencies: Sequence[int], rows: Sequence[int]) -> int:
    """A stage's cycles from its nodes' latencies and row cycles.

    Nodes in a stage form an inter-operator pipeline: the slowest node
    sets the steady state, every other node adds one row of pipeline
    fill, and the stage start adds a barrier.  Only the first term moves
    with replica counts.
    """
    return max(latencies) + sum(rows) - max(rows) + STAGE_BARRIER


@dataclass
class NodeEstimate:
    """Latency/energy estimate of one node at a given duplication factor."""

    replicas: int
    cores: int
    load_cycles: int
    row_cycles: int
    rows_per_replica: int
    latency: int
    energy_pj: float
    energy_categories: Dict[str, float] = None  # type: ignore[assignment]


class CostModel:
    """Analytic per-node and per-stage cost estimation."""

    def __init__(self, arch: ArchConfig):
        self.arch = arch
        self.energy = arch.energy
        self._node_cache: Dict[tuple, NodeEstimate] = {}
        core = arch.chip.core
        self.local_bw = core.local_memory.bandwidth_bytes_per_cycle
        self.lanes = core.vector_unit.lanes
        self.flit = arch.chip.noc.flit_bytes
        self.glb_bw = arch.chip.global_memory.bandwidth_bytes_per_cycle
        self.glb_lat = arch.chip.global_memory.access_latency
        self.mvm_interval = core.cim_unit.mvm_issue_interval
        self.mvm_latency = core.cim_unit.mvm_latency

    # -- primitive costs -----------------------------------------------------
    def copy_cycles(self, nbytes: int) -> int:
        return ceil_div(nbytes, self.local_bw) + _ISSUE

    def vector_cycles(self, elements: int) -> int:
        return ceil_div(max(1, elements), self.lanes) + _ISSUE

    def noc_cycles(self, nbytes: int, hops: int = 2) -> int:
        return ceil_div(nbytes, self.flit) + hops * self.arch.chip.noc.hop_latency

    def global_cycles(self, nbytes: int) -> int:
        return (
            ceil_div(nbytes, self.glb_bw)
            + self.glb_lat
            + _GLOBAL_HOPS * self.arch.chip.noc.hop_latency
        )

    # -- node-level estimates ---------------------------------------------------
    def _input_row_bytes(self, geom: NodeGeometry) -> int:
        node = geom.node
        graph = geom._graph_ref
        main = node.main_input
        info = graph.tensor(main.tensor)
        if info.is_feature_map:
            return info.shape[1] * info.shape[2]
        return info.size_bytes

    def _per_position_cycles(self, geom: NodeGeometry) -> int:
        """Compute cycles for one output position on the busiest core."""
        node = geom.node
        anchor = node.anchor
        slices_owned = min(geom.col_slices, geom.slices_per_core) or 1
        if not node.is_cim:
            # vector nodes: dominated by gather + vector ops over channels
            k = anchor.attrs.get("kernel", 1)
            work = k * k * self.vector_cycles(geom.out_c)
            return work + _LOOP_OVERHEAD
        if anchor.kind is OpKind.DWCONV:
            k = anchor.attrs["kernel"]
            c_in = anchor.weight_shape[2]
            patch = k * k * self.copy_cycles(c_in)
            per_tile = (
                self.copy_cycles(k * k * geom.dw_group)  # gather
                + self.mvm_interval + _ISSUE * 3
                + 2 * self.vector_cycles(geom.dw_group)
            )
            return patch + slices_owned * per_tile + _LOOP_OVERHEAD
        if anchor.kind is OpKind.CONV:
            k = anchor.attrs["kernel"]
            c_in = anchor.weight_shape[2]
            patch = k * self.copy_cycles(k * c_in)
        else:  # GEMM: input vector already contiguous
            patch = 0
        mvms = slices_owned * geom.row_tiles * (self.mvm_interval + _ISSUE * 3)
        epilogue = slices_owned * 2 * self.vector_cycles(
            min(geom.out_c, geom.tile_cols)
        )
        return patch + mvms + epilogue + _LOOP_OVERHEAD

    def row_cycles(
        self,
        geom: NodeGeometry,
        read_global: bool,
        write_global: bool,
        same_stage_consumers: int,
    ) -> int:
        """Cycles the busiest core spends per output row."""
        per_pos = self._per_position_cycles(geom)
        in_bytes = self._input_row_bytes(geom)
        main = geom.node.main_input
        rows_in_per_out = main.stride if main.mode == "window" else 1
        if read_global:
            acquire = rows_in_per_out * self.global_cycles(in_bytes)
        else:
            acquire = rows_in_per_out * self.noc_cycles(in_bytes)
        band = geom.out_w * ceil_div(geom.out_c, max(1, geom.cores_min))
        emit = same_stage_consumers * self.noc_cycles(band)
        if write_global:
            emit += self.global_cycles(band)
        return geom.out_w * per_pos + acquire + emit

    def load_cycles(self, geom: NodeGeometry) -> int:
        """Weight-load cycles for the busiest core of one replica."""
        if not geom.node.is_cim:
            return 0
        tile_bytes = geom.tile_rows * geom.tile_cols
        tiles_per_core = min(
            geom.tiles_total,
            geom.slices_per_core * geom.row_tiles,
        )
        per_tile = self.global_cycles(tile_bytes) + self.copy_cycles(tile_bytes)
        return tiles_per_core * per_tile

    def node_cycles(
        self,
        geom: NodeGeometry,
        read_global: bool = True,
        write_global: bool = True,
        same_stage_consumers: int = 0,
    ) -> Tuple[int, int]:
        """``(load_cycles, row_cycles)`` of one node under one topology:
        the two integers :func:`node_latency` reads at any replica count."""
        return (
            self.load_cycles(geom),
            self.row_cycles(geom, read_global, write_global, same_stage_consumers),
        )

    def estimate_node(
        self,
        geom: NodeGeometry,
        replicas: int,
        read_global: bool = True,
        write_global: bool = True,
        same_stage_consumers: int = 0,
    ) -> NodeEstimate:
        """Latency and energy of one node at duplication factor ``replicas``."""
        # Keyed on the geometry object, not the node name: one model may
        # price several graphs whose nodes share names.
        key = (geom, replicas, read_global, write_global, same_stage_consumers)
        cached = self._node_cache.get(key)
        if cached is not None:
            return cached
        replicas = max(1, min(replicas, geom.max_replicas))
        load, row_cost = self.node_cycles(
            geom, read_global, write_global, same_stage_consumers
        )
        categories = self._node_energy(
            geom, replicas, read_global, write_global, same_stage_consumers
        )
        estimate = NodeEstimate(
            replicas=replicas,
            cores=replicas * geom.cores_min,
            load_cycles=load,
            row_cycles=row_cost,
            rows_per_replica=ceil_div(geom.out_h, replicas),
            latency=node_latency(load, row_cost, geom.out_h, replicas),
            energy_pj=sum(categories.values()),
            energy_categories=categories,
        )
        self._node_cache[key] = estimate
        return estimate

    def weight_load_energy(
        self, geom: NodeGeometry, replicas: int
    ) -> Dict[str, float]:
        """The weight-load share of one node execution's energy.

        The exact terms :meth:`_node_energy` charges for staging weight
        tiles from global memory and writing them into the macro groups.
        Resident-weights sessions pay these once per session instead of
        once per input, so the fast model splits them out of the warm
        per-input energy (:func:`repro.sim.fastmodel.analyze_pipeline`
        with ``resident=True``).
        """
        if not geom.node.is_cim:
            return {}
        e = self.energy
        weight_bytes = geom.tiles_total * geom.tile_rows * geom.tile_cols
        return {
            "global_mem": replicas * weight_bytes * e.global_mem_pj_per_byte,
            "cim_write": replicas * weight_bytes * e.cim_write_pj_per_byte,
            "noc": (
                replicas * weight_bytes * _GLOBAL_HOPS
                * e.noc_pj_per_byte_per_hop
            ),
        }

    def node_macs(self, geom: NodeGeometry) -> int:
        """MAC operations one execution of the node performs."""
        if not geom.node.is_cim:
            return 0
        anchor = geom.node.anchor
        positions = geom.out_h * geom.out_w
        if anchor.kind is OpKind.DWCONV:
            k = anchor.attrs["kernel"]
            return positions * anchor.weight_shape[2] * k * k
        return positions * geom.vec_rows * geom.out_c

    def _node_energy(
        self,
        geom: NodeGeometry,
        replicas: int,
        read_global: bool,
        write_global: bool,
        same_stage_consumers: int,
    ) -> Dict[str, float]:
        e = self.energy
        node = geom.node
        positions = geom.out_h * geom.out_w
        cat = {
            "cim_compute": 0.0, "cim_write": 0.0, "vector": 0.0,
            "local_mem": 0.0, "global_mem": 0.0, "noc": 0.0,
        }
        if node.is_cim:
            anchor = node.anchor
            macs = self.node_macs(geom)
            if anchor.kind is OpKind.DWCONV:
                k = anchor.attrs["kernel"]
                active_rows = geom.col_slices * geom.dw_group * k * k
            else:
                active_rows = geom.vec_rows
            cat["cim_compute"] += macs * e.cim_mac_pj
            cat["cim_compute"] += (
                positions * active_rows * e.cim_peripheral_pj_per_mvm_row
            )
            # weight loading: every replica reloads the full tile set
            for key, value in self.weight_load_energy(geom, replicas).items():
                cat[key] += value
            # im2col patch assembly traffic (read + write scratchpad)
            patch_bytes = positions * geom.vec_rows
            cat["local_mem"] += patch_bytes * (
                e.local_mem_read_pj_per_byte + e.local_mem_write_pj_per_byte
            )
        out_bytes = positions * geom.out_c
        # epilogue / vector work over the output activations
        cat["vector"] += out_bytes * e.vector_op_pj_per_element
        cat["local_mem"] += out_bytes * (
            e.local_mem_read_pj_per_byte + e.local_mem_write_pj_per_byte
        )

        def noc_pj(row_bytes: int, rows: int, hops: int) -> float:
            """Per-flit NoC energy: rows messages of row_bytes each."""
            flits = ceil_div(max(1, row_bytes), self.flit)
            return rows * flits * self.flit * hops * e.noc_pj_per_byte_per_hop

        in_row = self._input_row_bytes(geom)
        in_rows = geom.out_h * (
            geom.node.main_input.stride
            if geom.node.main_input.mode == "window" else 1
        )
        if read_global:
            cat["global_mem"] += in_row * in_rows * e.global_mem_pj_per_byte
            cat["noc"] += noc_pj(in_row, in_rows, _GLOBAL_HOPS)
        else:
            cat["noc"] += noc_pj(in_row, in_rows * replicas, 2)
        out_row = geom.out_w * geom.out_c
        if same_stage_consumers:
            cat["noc"] += noc_pj(out_row, geom.out_h * same_stage_consumers, 2)
        if write_global:
            cat["global_mem"] += out_bytes * e.global_mem_pj_per_byte
            cat["noc"] += noc_pj(out_row, geom.out_h, _GLOBAL_HOPS)
        return cat

    # -- stage-level estimate ---------------------------------------------------
    def estimate_stage(
        self,
        geoms: List[NodeGeometry],
        replicas: Dict[str, int],
        topology: Sequence[NodeTopology],
    ) -> "StageEstimate":
        """Stage estimate at the given replica counts, every node priced
        from scratch under its :func:`stage_topology` entry."""
        return self.fold_stage([
            self.estimate_node(geom, replicas.get(geom.node.name, 1), *topo)
            for geom, topo in zip(geoms, topology)
        ])

    def fold_stage(self, node_costs: List[NodeEstimate]) -> "StageEstimate":
        """Stage estimate from its nodes' estimates (in stage order)."""
        if not node_costs:
            return StageEstimate(0, 0.0, [])
        latency = stage_latency(
            [c.latency for c in node_costs], [c.row_cycles for c in node_costs]
        )
        energy = sum(c.energy_pj for c in node_costs)
        energy += latency * self.energy.static_pj_per_cycle(self.arch.chip.clock_mhz)
        return StageEstimate(latency, energy, node_costs)


@dataclass
class StageEstimate:
    """Estimated cost of one execution stage."""

    latency: int
    energy_pj: float
    node_costs: List[NodeEstimate]

    @property
    def cost(self) -> float:
        """Scalar DP objective (latency-driven)."""
        return float(self.latency)
