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
from typing import TYPE_CHECKING, List, Tuple

from repro.config import ArchConfig
from repro.errors import CapacityError, CompileError
from repro.compiler.frontend import CondensedNode
from repro.graph.ops import OpKind
from repro.utils import ceil_div

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class WeightTile:
    """One macro-group-sized box of a node's weights: indices, no bytes.

    The box is ``rows_used x cols_used`` int8 cells;
    :meth:`NodeGeometry.tile_data` cuts its values.  ``vec_lo`` is the
    tile's starting row in the node's im2col input vector (dwconv tiles
    gather their own vectors and use ``channel_lo/hi`` instead);
    ``col_lo/hi`` is the output-channel range the tile produces.
    """

    slice_index: int
    tile_index: int
    rows_used: int
    cols_used: int
    vec_lo: int
    col_lo: int
    col_hi: int
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
    def pack_tiles(self) -> List[WeightTile]:
        """Cut the node's weight *shape* into macro-group tile boxes.

        Tiles are listed slice-major (all row tiles of column slice 0,
        then slice 1, ...), the order cores load them into macro groups.
        No parameter value is read: :meth:`tile_data` cuts the bytes.
        """
        if not self.node.is_cim:
            return []
        anchor = self.node.anchor
        tiles: List[WeightTile] = []
        if anchor.kind is OpKind.DWCONV:
            k = anchor.attrs["kernel"]
            channels = anchor.weight_shape[2]
            for s in range(self.col_slices):
                g0 = s * self.dw_group
                g1 = min(channels, g0 + self.dw_group)
                tiles.append(
                    WeightTile(
                        slice_index=s, tile_index=0,
                        rows_used=(g1 - g0) * k * k, cols_used=g1 - g0,
                        vec_lo=0, col_lo=g0, col_hi=g1,
                        channel_lo=g0, channel_hi=g1,
                    )
                )
            return tiles
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
                    )
                )
        return tiles

    def tile_data(self, tile: WeightTile) -> np.ndarray:
        """The int8 values of one tile box (``rows_used x cols_used``).

        The one place weight bytes are cut: a *view* of the im2col weight
        matrix for conv / gemm, and for dwconv the block-diagonal tile
        built dense (tap ``kk`` of the group's channel ``g`` sits at
        ``[kk * group + g, g]``).  Reads the anchor's weight values.
        """
        anchor = self.node.anchor
        weight = anchor.weight
        if anchor.kind is OpKind.DWCONV:
            import numpy as np

            group = tile.cols_used
            taps = weight[:, :, tile.channel_lo:tile.channel_hi]
            dense = np.zeros((tile.rows_used, group), dtype=np.int8)
            diagonal = np.arange(group)
            dense.reshape(-1, group, group)[:, diagonal, diagonal] = (
                taps.reshape(-1, group)
            )
            return dense
        if anchor.kind is OpKind.CONV:
            weight = weight.reshape(self.vec_rows, self.out_c)
        return weight[
            tile.vec_lo:tile.vec_lo + tile.rows_used, tile.col_lo:tile.col_hi
        ]

    def core_roles(self) -> List[CoreRole]:
        """Distribute column slices over the replica's cores.

        Consecutive slices go to the same core so each core owns one
        contiguous output-channel band.
        """
        if not self.node.is_cim:
            return [CoreRole(position=0, band=(0, self.out_c), tiles=())]
        tiles = self.pack_tiles()  # slice-major: a core's tiles are adjacent
        per_core = self.slices_per_core * self.row_tiles
        roles: List[CoreRole] = []
        for position in range(self.cores_min):
            owned = tuple(tiles[position * per_core:(position + 1) * per_core])
            band = (owned[0].col_lo, owned[-1].col_hi)
            roles.append(CoreRole(position=position, band=band, tiles=owned))
        return roles


def build_geometry(node: CondensedNode, arch: ArchConfig, graph) -> NodeGeometry:
    """Construct geometry for one node (graph supplies tensor shapes)."""
    return NodeGeometry(node, arch, graph)
