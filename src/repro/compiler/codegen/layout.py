"""Per-core local-memory layout for one execution stage.

The core's scratchpad is divided into the four architectural segments
(Fig. 3): input buffers, output slab, scratch, and constants.  This module
assigns concrete addresses inside those segments for everything a core's
stage program touches and enforces capacity, raising
:class:`~repro.errors.CapacityError` with a precise message on overflow.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityError
from repro.compiler.frontend import CondensedNode, NodeInput
from repro.compiler.geometry import CoreRole, NodeGeometry
from repro.compiler.plan import ExecutionPlan, NodeMapping, ReplicaAssignment, StagePlan
from repro.graph.ops import OpKind


class SegmentAllocator:
    """Bump allocator over one local-memory segment."""

    def __init__(self, name: str, base: int, size: int, owner: str):
        self.name = name
        self.base = base
        self.size = size
        self.owner = owner
        self.cursor = 0
        self.labels: List[Tuple[str, int, int]] = []

    def take(self, nbytes: int, label: str) -> int:
        nbytes = (nbytes + 3) & ~3  # keep everything word aligned
        if self.cursor + nbytes > self.size:
            raise CapacityError(
                f"{self.owner}: segment {self.name!r} overflow: "
                f"{label} needs {nbytes} B, {self.size - self.cursor} B left "
                f"of {self.size} B"
            )
        address = self.base + self.cursor
        self.labels.append((label, address, nbytes))
        self.cursor += nbytes
        return address


@dataclass
class InputBuffer:
    """A padded row buffer for one input of a node."""

    spec: NodeInput
    in_h: int
    in_w: int
    in_c: int
    pad: int
    p_lo: int
    p_hi: int
    base: int = 0
    staging: int = 0       # receive staging for channel-sliced producers
    fill_value: int = 0
    #: producer mapping when the tensor is produced inside this stage.
    producer: Optional[NodeMapping] = None
    producer_roles: Tuple[CoreRole, ...] = ()
    global_address: int = 0

    @property
    def slot_bytes(self) -> int:
        return (self.in_w + 2 * self.pad) * self.in_c

    @property
    def num_slots(self) -> int:
        return self.p_hi - self.p_lo

    @property
    def total_bytes(self) -> int:
        return self.num_slots * self.slot_bytes

    @property
    def row_bytes(self) -> int:
        """Bytes of one unpadded input row."""
        return self.in_w * self.in_c

    def slot_address(self, padded_row: int) -> int:
        if not self.p_lo <= padded_row < self.p_hi:
            raise CapacityError(
                f"padded row {padded_row} outside buffer "
                f"[{self.p_lo}, {self.p_hi})"
            )
        return self.base + (padded_row - self.p_lo) * self.slot_bytes

    def data_address(self, padded_row: int) -> int:
        """Address of the real (unpadded) data within a slot."""
        return self.slot_address(padded_row) + self.pad * self.in_c

    def needs_prefill(self) -> bool:
        return self.pad > 0


@dataclass
class CoreStageLayout:
    """All addresses a core's program for one stage uses."""

    node: CondensedNode
    geometry: NodeGeometry
    mapping: NodeMapping
    replica: ReplicaAssignment
    role: CoreRole
    inputs: Dict[str, InputBuffer] = field(default_factory=dict)
    out_base: int = 0
    imcol: int = 0
    dw_gather: int = 0
    acc_base: int = 0
    staging: int = 0          # weight-tile staging
    bias_base: int = 0
    resid_gather: int = 0
    pool_gather: int = 0
    pool_acc: int = 0

    @property
    def band(self) -> Tuple[int, int]:
        return self.role.band

    @property
    def band_width(self) -> int:
        return self.role.band[1] - self.role.band[0]

    @property
    def out_row_bytes(self) -> int:
        """Bytes of this core's band for one output row."""
        return self.geometry.out_w * self.band_width

    def out_row_address(self, y: int) -> int:
        y0 = self.replica.rows[0]
        return self.out_base + (y - y0) * self.out_row_bytes

    def main_buffer(self) -> InputBuffer:
        for key, buffer in self.inputs.items():
            if key.startswith("main:"):
                return buffer
        raise CapacityError(f"{self.node.name}: no main input buffer")

    def buffer_for_role(self, role: str) -> Optional[InputBuffer]:
        for key, buffer in self.inputs.items():
            if key.startswith(role + ":"):
                return buffer
        return None


def _input_range(spec: NodeInput, rows: Tuple[int, int], in_h: int) -> Tuple[int, int]:
    """Padded row range an input buffer must hold for output rows ``rows``."""
    y0, y1 = rows
    if spec.mode == "full":
        return 0, in_h
    if spec.mode == "one2one":
        return y0, y1
    return y0 * spec.stride, (y1 - 1) * spec.stride + spec.kernel


def build_core_layout(
    plan: ExecutionPlan,
    stage: StagePlan,
    node: CondensedNode,
    mapping: NodeMapping,
    replica: ReplicaAssignment,
    role: CoreRole,
    core_id: int,
) -> CoreStageLayout:
    """Compute the complete local-memory layout for one (core, stage)."""
    arch = plan.arch
    local = arch.chip.core.local_memory
    seg = local.segment_bytes
    owner = f"core {core_id} / stage {stage.index} / {node.name}"
    seg_in = SegmentAllocator("input", 0 * seg, seg, owner)
    seg_out = SegmentAllocator("output", 1 * seg, seg, owner)
    seg_scratch = SegmentAllocator("scratch", 2 * seg, seg, owner)
    seg_const = SegmentAllocator("const", 3 * seg, seg, owner)

    geometry = mapping.geometry
    layout = CoreStageLayout(
        node=node, geometry=geometry, mapping=mapping, replica=replica, role=role
    )

    graph = plan.graph
    anchor = node.anchor
    for spec in node.inputs:
        info = graph.tensor(spec.tensor)
        if info.is_feature_map:
            in_h, in_w, in_c = info.shape
        else:
            in_h, in_w, in_c = 1, 1, info.shape[0]
        pad = spec.padding if spec.mode == "window" else 0
        p_lo, p_hi = _input_range(spec, replica.rows, in_h + 2 * pad)
        p_hi = min(p_hi, in_h + 2 * pad)
        buffer = InputBuffer(
            spec=spec, in_h=in_h, in_w=in_w, in_c=in_c, pad=pad,
            p_lo=p_lo, p_hi=p_hi,
        )
        buffer.fill_value = -128 if anchor.kind is OpKind.MAXPOOL else 0
        producer_mapping = stage.produces_in_stage(spec.tensor)
        if producer_mapping is not None:
            buffer.producer = producer_mapping
            buffer.producer_roles = tuple(producer_mapping.geometry.core_roles())
            if len(buffer.producer_roles) > 1:
                widest = max(
                    r.band[1] - r.band[0] for r in buffer.producer_roles
                )
                buffer.staging = seg_const.take(
                    producer_mapping.geometry.out_w * widest,
                    f"recv staging {spec.tensor}",
                )
        else:
            buffer.global_address = plan.tensor_address[spec.tensor]
        buffer.base = seg_in.take(buffer.total_bytes, f"input {spec.tensor}")
        layout.inputs[spec.role + ":" + spec.tensor] = buffer

    layout.out_base = seg_out.take(
        replica.num_rows * layout.out_row_bytes, "output slab"
    )

    tile_rows = geometry.tile_rows
    tile_cols = geometry.tile_cols
    if node.is_cim:
        if anchor.kind is OpKind.DWCONV:
            kernel = anchor.attrs["kernel"]
            patch_bytes = kernel * kernel * layout.main_buffer().in_c
            layout.imcol = seg_scratch.take(max(4, patch_bytes), "im2col")
            layout.dw_gather = seg_scratch.take(
                geometry.dw_group * kernel * kernel, "dw gather"
            )
        else:
            layout.imcol = seg_scratch.take(
                max(4, geometry.vec_rows), "im2col"
            )
        slices_owned = len({t.slice_index for t in role.tiles}) or 1
        layout.acc_base = seg_scratch.take(
            slices_owned * tile_cols * 4, "accumulators"
        )
        max_tile = max((t.nbytes for t in role.tiles), default=0)
        if max_tile:
            layout.staging = seg_scratch.take(max_tile, "weight staging")
        if anchor.bias_shape is not None:
            layout.bias_base = seg_const.take(
                4 * layout.band_width, "bias band"
            )
    else:
        if anchor.kind in (OpKind.MAXPOOL, OpKind.AVGPOOL, OpKind.GLOBALAVGPOOL):
            layout.pool_gather = seg_scratch.take(
                max(4, geometry.out_w * geometry.out_c), "pool gather"
            )
            layout.pool_acc = seg_scratch.take(
                4 * max(4, geometry.out_w * geometry.out_c), "pool acc"
            )
    if any(op.kind is OpKind.ADD for op in node.fused) and layout.band_width < geometry.out_c:
        layout.resid_gather = seg_scratch.take(
            geometry.out_w * layout.band_width, "residual gather"
        )
    return layout
