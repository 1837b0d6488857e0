"""Mapping geometry: how a condensed node occupies CIM macro groups.

This module implements the *dimension matching* of the paper's OP-level
virtual-mapping phase (Fig. 4b): the software weight dimensions of each
MVM operator are laid onto the two-dimensional ``tile_rows x tile_cols``
macro-group array:

- **conv**: im2col turns the ``(k, k, C_in, C_out)`` kernel into a dense
  ``(k*k*C_in) x C_out`` matrix; rows are sliced into ``row_tiles`` chunks
  of ``tile_rows`` and columns into ``col_slices`` chunks of ``tile_cols``.
- **dwconv**: the block-diagonal depthwise matrix packs ``group`` channels
  per tile (``group * k * k`` rows by ``group`` columns), wasting the
  off-diagonal cells -- the structural reason compact models have small
  CIM footprints.
- **gemm**: the weight matrix maps directly.

Column slices are distributed over cores (a column slice never splits
across cores, so no cross-core partial sums exist); whole-node *replicas*
(the paper's weight duplication) split the output spatial rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.config import ArchConfig
from repro.errors import CapacityError, CompileError
from repro.compiler.frontend import CondensedNode
from repro.graph.ops import OpKind
from repro.utils import ceil_div

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class WeightTile:
    """One macro-group-sized weight tile of a node.

    ``data`` is the dense int8 matrix loaded into the macro group
    (``rows_used x cols_used``).  ``vec_lo`` is the tile's starting row in
    the node's im2col input vector (dwconv tiles gather their own vectors
    and use ``channel_lo/hi`` instead); ``col_lo/hi`` is the output-channel
    range the tile produces.
    """

    slice_index: int
    tile_index: int
    rows_used: int
    cols_used: int
    vec_lo: int
    col_lo: int
    col_hi: int
    data: Optional[np.ndarray] = None
    channel_lo: int = 0
    channel_hi: int = 0

    @property
    def nbytes(self) -> int:
        return self.rows_used * self.cols_used


@dataclass(frozen=True)
class CoreRole:
    """The column slices one core of a replica owns.

    ``band`` is the contiguous output-channel range [c0, c1) the core
    produces; ``tiles`` are the weight tiles it loads (one macro group
    each, in MG index order).
    """

    position: int  # core ordinal within the replica
    band: Tuple[int, int]
    tiles: Tuple[WeightTile, ...]


class NodeGeometry:
    """Everything the mapper and code generator need to place one node."""

    def __init__(self, node: CondensedNode, arch: ArchConfig, graph):
        self.node = node
        self.arch = arch
        self._graph_ref = graph
        shape = self._output_shape()
        if len(shape) == 3:
            self.out_h, self.out_w, self.out_c = shape
        else:
            self.out_h, self.out_w, self.out_c = 1, 1, shape[0]
        self.tile_rows = arch.mg_tile_rows
        self.tile_cols = arch.mg_tile_cols
        self.mgs_per_core = arch.mgs_per_core
        self.row_tiles = 0
        self.col_slices = 0
        self.slices_per_core = 0
        self.cores_min = 1
        self.dw_group = 0
        self.vec_rows = 0  # im2col vector length (conv / gemm)
        #: weight streaming: a column slice has more row tiles than macro
        #: groups, so tiles stream through the array (single-position
        #: operators only -- large fully-connected layers).
        self.multipass = False
        if node.is_cim:
            self._cim_geometry()

    # -- shape helpers -------------------------------------------------------
    def _output_shape(self) -> Tuple[int, ...]:
        # The node's output tensor shape comes from the underlying graph.
        return tuple(self._graph().tensor(self.node.output).shape)

    def _graph(self):
        return self._graph_ref

    # -- CIM occupancy --------------------------------------------------------
    def _cim_geometry(self) -> None:
        anchor = self.node.anchor
        if anchor.kind is OpKind.CONV:
            k = anchor.attrs["kernel"]
            c_in = anchor.weight_shape[2]
            self.vec_rows = k * k * c_in
            self.row_tiles = ceil_div(self.vec_rows, self.tile_rows)
            self.col_slices = ceil_div(self.out_c, self.tile_cols)
        elif anchor.kind is OpKind.GEMM:
            self.vec_rows = anchor.weight_shape[0]
            self.row_tiles = ceil_div(self.vec_rows, self.tile_rows)
            self.col_slices = ceil_div(self.out_c, self.tile_cols)
        elif anchor.kind is OpKind.DWCONV:
            k = anchor.attrs["kernel"]
            channels = anchor.weight_shape[2]
            group = min(self.tile_cols, self.tile_rows // (k * k))
            if group < 1:
                raise CapacityError(
                    f"{anchor.name}: {k}x{k} depthwise window does not fit "
                    f"{self.tile_rows} macro rows"
                )
            self.dw_group = group
            self.row_tiles = 1
            self.col_slices = ceil_div(channels, group)
        else:  # pragma: no cover - guarded by is_cim
            raise CompileError(f"unexpected CIM anchor {anchor.kind}")
        if self.row_tiles > self.mgs_per_core:
            if self.out_h * self.out_w != 1:
                raise CapacityError(
                    f"{anchor.name}: a column slice needs {self.row_tiles} "
                    f"macro groups but a core only has {self.mgs_per_core}, "
                    f"and weight streaming only applies to single-position "
                    f"operators"
                )
            self.multipass = True
            self.slices_per_core = 1
        else:
            self.slices_per_core = max(1, self.mgs_per_core // self.row_tiles)
        self.cores_min = ceil_div(self.col_slices, self.slices_per_core)
        if self.cores_min > self.arch.num_cores:
            raise CapacityError(
                f"{anchor.name}: needs {self.cores_min} cores, chip has "
                f"{self.arch.num_cores}"
            )

    @property
    def tiles_total(self) -> int:
        """Macro groups occupied by one replica of this node."""
        return self.row_tiles * self.col_slices if self.node.is_cim else 0

    @property
    def max_replicas(self) -> int:
        """Duplication is bounded by the output rows available to split."""
        return max(1, self.out_h)

    # -- weight packing --------------------------------------------------------
    def _weight_matrix(self) -> np.ndarray:
        anchor = self.node.anchor
        if anchor.kind is OpKind.CONV:
            k = anchor.attrs["kernel"]
            c_in = anchor.weight.shape[2]
            return anchor.weight.reshape(k * k * c_in, self.out_c)
        if anchor.kind is OpKind.GEMM:
            return anchor.weight
        raise CompileError(f"{anchor.name}: no dense weight matrix")

    def pack_tiles(self) -> List[WeightTile]:
        """Cut the node's weights into macro-group tiles.

        Tiles are listed slice-major (all row tiles of column slice 0,
        then slice 1, ...), the order cores load them into macro groups.
        """
        if not self.node.is_cim:
            return []
        import numpy as np

        anchor = self.node.anchor
        tiles: List[WeightTile] = []
        if anchor.kind is OpKind.DWCONV:
            k = anchor.attrs["kernel"]
            channels = anchor.weight.shape[2]
            for s in range(self.col_slices):
                g0 = s * self.dw_group
                g1 = min(channels, g0 + self.dw_group)
                group = g1 - g0
                rows = group * k * k
                data = np.zeros((rows, group), dtype=np.int8)
                for kk in range(k * k):
                    kr, kc = divmod(kk, k)
                    for g in range(group):
                        data[kk * group + g, g] = anchor.weight[kr, kc, g0 + g]
                tiles.append(
                    WeightTile(
                        slice_index=s, tile_index=0,
                        rows_used=rows, cols_used=group,
                        vec_lo=0, col_lo=g0, col_hi=g1,
                        data=data, channel_lo=g0, channel_hi=g1,
                    )
                )
            return tiles
        matrix = self._weight_matrix()
        for s in range(self.col_slices):
            c0 = s * self.tile_cols
            c1 = min(self.out_c, c0 + self.tile_cols)
            for t in range(self.row_tiles):
                r0 = t * self.tile_rows
                r1 = min(self.vec_rows, r0 + self.tile_rows)
                tiles.append(
                    WeightTile(
                        slice_index=s, tile_index=t,
                        rows_used=r1 - r0, cols_used=c1 - c0,
                        vec_lo=r0, col_lo=c0, col_hi=c1,
                        data=np.ascontiguousarray(matrix[r0:r1, c0:c1]),
                    )
                )
        return tiles

    def core_roles(self) -> List[CoreRole]:
        """Distribute column slices over the replica's cores.

        Consecutive slices go to the same core so each core owns one
        contiguous output-channel band.
        """
        if not self.node.is_cim:
            return [CoreRole(position=0, band=(0, self.out_c), tiles=())]
        tiles = self.pack_tiles()
        by_slice: List[List[WeightTile]] = [[] for _ in range(self.col_slices)]
        for tile in tiles:
            by_slice[tile.slice_index].append(tile)
        roles: List[CoreRole] = []
        for position in range(self.cores_min):
            s0 = position * self.slices_per_core
            s1 = min(self.col_slices, s0 + self.slices_per_core)
            owned = [tile for s in range(s0, s1) for tile in by_slice[s]]
            band = (by_slice[s0][0].col_lo, by_slice[s1 - 1][0].col_hi)
            roles.append(CoreRole(position=position, band=band, tiles=tuple(owned)))
        return roles


def build_geometry(node: CondensedNode, arch: ArchConfig, graph) -> NodeGeometry:
    """Construct geometry for one node (graph supplies tensor shapes)."""
    return NodeGeometry(node, arch, graph)
