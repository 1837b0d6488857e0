"""OP-level code generation: execution plans -> per-core ISA programs.

For every (core, stage) assignment the emitter produces:

1. **weight load**: stage weight tiles staged from global memory and
   written into macro groups (``MEM_CPY`` + ``CIM_LOAD``), bias bands into
   the constant segment;
2. **row loop** over the replica's output rows: acquisition of the input
   rows each output row needs (``MEM_CPY`` from global memory across stage
   boundaries, ``RECV`` (+scatter) from same-stage producers), the
   compute body (im2col patch assembly + bit-serial ``CIM_MVM`` tiles +
   bias/requant epilogues for CIM nodes; gather/vector sequences for
   pooling and elementwise nodes), the fused elementwise epilogue, and
   emission (``SEND`` to same-stage consumers, spill to global memory);
3. a chip-wide ``BARRIER`` separating stages.

The inner x-loop over output positions is emitted as a real counted ISA
loop with pointer-increment registers, matching the paper's generated-code
example; the row loop is fully unrolled because its body (transfers,
padding) varies per row.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CompileError
from repro.compiler.codegen.layout import (
    CoreStageLayout,
    InputBuffer,
    build_core_layout,
)
from repro.compiler.frontend import CondensedNode
from repro.compiler.plan import ExecutionPlan, NodeMapping, StagePlan
from repro.graph.ops import OpKind, Operator
from repro.isa import ISARegistry, Program, ProgramBuilder, SReg, default_registry

# --- fixed register conventions shared by every emitted program -------------
R_ZERO = 0
R_XCNT, R_XBND = 1, 2
R_KR0 = 3            # R3..R9: up to 7 per-kernel-row source pointers
R_IMC, R_OUT = 11, 12
R_T1, R_T2, R_ACC, R_MG, R_SCR = 13, 14, 15, 16, 17
R_T3, R_T4 = 18, 19
R_LEN_PATCH, R_BIAS, R_LEN_FULL, R_LEN_PART = 20, 21, 22, 23
R_GBUF, R_CNT, R_LEN_ROW = 24, 25, 26
R_T5, R_T6 = 27, 28

_MAX_KERNEL = 7  # bounded by the register file convention above


class _Emitter:
    """Wraps a ProgramBuilder with special-register caching."""

    def __init__(self, registry: ISARegistry):
        self.builder = ProgramBuilder(registry)
        self._sregs: Dict[int, int] = {}

    def emit(self, mnemonic: str, **fields):
        return self.builder.emit(mnemonic, **fields)

    def li(self, reg: int, value: int) -> None:
        self.builder.li(reg, value)

    def sreg(self, sreg: SReg, value: int) -> None:
        """Set a special register unless it already holds ``value``."""
        if self._sregs.get(int(sreg)) == value:
            return
        self.li(R_SCR, value & 0xFFFFFFFF)
        self.emit("MV_G2S", rs=R_SCR, imm=int(sreg))
        self._sregs[int(sreg)] = value

    def mem_cpy(self, src: int, dst: int, nbytes: int) -> None:
        """Copy between two static addresses in the unified space."""
        self.li(R_T5, src)
        self.li(R_T6, dst)
        self.li(R_CNT, nbytes)
        self.emit("MEM_CPY", rs=R_T5, rt=R_T6, rd=R_CNT)

    def fill(self, addr: int, count: int, value: int, int32: bool = False) -> None:
        # Uses only T5/T6 so callers' count registers survive the fill.
        self.sreg(SReg.FILL_VALUE, value & 0xFF)
        self.li(R_T5, addr)
        self.li(R_T6, count)
        self.emit("VEC_FILL", rd=R_T5, re=R_T6, funct=4 if int32 else 0)


class ProgramGenerator:
    """Generates per-core programs for a full execution plan."""

    def __init__(self, plan: ExecutionPlan, registry: Optional[ISARegistry] = None):
        self.plan = plan
        self.registry = registry or default_registry()
        self.graph = plan.graph

    # -- public entry ---------------------------------------------------------
    def generate(self) -> Dict[int, Program]:
        assignments = self._assignments()
        return self._emit_programs(assignments, skip_loads=frozenset())

    def generate_resident(self) -> Tuple[Dict[int, Program], Dict[int, Program]]:
        """Split programs for resident-weights sessions.

        Returns ``(warm, load)`` program maps.  ``load`` holds, per
        resident core (:meth:`ExecutionPlan.resident_cores`), exactly the
        ``_emit_loads`` prologue (weight-tile
        ``MEM_CPY`` + ``CIM_LOAD`` passes and bias copies) followed by
        ``HALT`` -- no barriers, since loads touch only the core's own
        buffers and read-only global memory.  ``warm`` is structurally
        identical to :meth:`generate` output except that resident cores
        skip their load prologue; running ``load`` once and then ``warm``
        on persisted core state executes the same data operations in the
        same per-core order as the full program, which is what makes
        resident outputs bit-identical.
        """
        assignments = self._assignments()
        resident = self.plan.resident_cores()
        warm = self._emit_programs(assignments, skip_loads=resident)
        loads: Dict[int, Program] = {}
        for core_id in range(self.plan.arch.num_cores):
            emitter = _Emitter(self.registry)
            if core_id in resident:
                for stage in self.plan.stages:
                    work = assignments.get((stage.index, core_id))
                    if work is None:
                        continue
                    node, mapping, replica, role = work
                    layout = build_core_layout(
                        self.plan, stage, node, mapping, replica, role,
                        core_id,
                    )
                    self._emit_loads(emitter, layout)
            emitter.emit("HALT")
            loads[core_id] = emitter.builder.finalize()
        return warm, loads

    def _emit_programs(self, assignments,
                       skip_loads: frozenset) -> Dict[int, Program]:
        programs: Dict[int, Program] = {}
        for core_id in range(self.plan.arch.num_cores):
            emitter = _Emitter(self.registry)
            for stage in self.plan.stages:
                work = assignments.get((stage.index, core_id))
                if work is not None:
                    self._emit_stage(
                        emitter, stage, core_id, *work,
                        loads=core_id not in skip_loads,
                    )
                emitter.emit("BARRIER")
            emitter.emit("HALT")
            programs[core_id] = emitter.builder.finalize()
        return programs

    def _assignments(self):
        table = {}
        for stage in self.plan.stages:
            for node in stage.nodes:
                mapping = stage.mappings[node.name]
                roles = mapping.geometry.core_roles()
                for replica in mapping.replicas:
                    for position, core in enumerate(replica.cores):
                        table[(stage.index, core)] = (
                            node, mapping, replica, roles[position]
                        )
        return table

    # -- stage emission ----------------------------------------------------------
    def _emit_stage(self, e: _Emitter, stage: StagePlan, core_id: int,
                    node: CondensedNode, mapping: NodeMapping, replica, role,
                    loads: bool = True):
        layout = build_core_layout(
            self.plan, stage, node, mapping, replica, role, core_id
        )
        kernel = node.anchor.attrs.get("kernel", 1)
        if node.is_cim and node.anchor.kind is not OpKind.GEMM and kernel > _MAX_KERNEL:
            raise CompileError(
                f"{node.name}: kernel {kernel} exceeds the register "
                f"convention limit of {_MAX_KERNEL}"
            )
        if loads:
            self._emit_loads(e, layout)
        for buffer in layout.inputs.values():
            if buffer.needs_prefill():
                e.fill(buffer.base, buffer.total_bytes, buffer.fill_value)
        if node.anchor.qparams is not None:
            e.sreg(SReg.QMUL, node.anchor.qparams.qmul)
            e.sreg(SReg.QSHIFT, node.anchor.qparams.qshift)
        acquired = {key: buffer.p_lo for key, buffer in layout.inputs.items()}
        y0, y1 = replica.rows
        for y in range(y0, y1):
            self._emit_acquisition(e, layout, y, acquired)
            self._emit_compute_row(e, layout, y)
            self._emit_row_epilogue(e, layout, y)
            self._emit_outputs(e, stage, layout, y)

    # -- weight / constant loading ----------------------------------------------
    def _emit_loads(self, e: _Emitter, layout: CoreStageLayout) -> None:
        node = layout.node
        if not node.is_cim:
            return
        if layout.geometry.multipass:
            # Weight-streaming operators load tiles inside the compute
            # body (round-robin over macro groups); only constants here.
            if node.anchor.bias_shape is not None:
                c0 = layout.band[0]
                src = self.plan.bias_address[node.name] + 4 * c0
                e.mem_cpy(src, layout.bias_base, 4 * layout.band_width)
            return
        for mg_index, tile in enumerate(layout.role.tiles):
            src = self.plan.tile_address(node.name, tile)
            e.mem_cpy(src, layout.staging, tile.nbytes)
            e.sreg(SReg.MVM_ROWS, tile.rows_used)
            e.sreg(SReg.MVM_COLS, tile.cols_used)
            e.li(R_T5, layout.staging)
            e.li(R_MG, mg_index)
            e.emit("CIM_LOAD", rs=R_T5, rt=R_MG)
        if node.anchor.bias_shape is not None:
            c0 = layout.band[0]
            src = self.plan.bias_address[node.name] + 4 * c0
            e.mem_cpy(src, layout.bias_base, 4 * layout.band_width)

    # -- input acquisition ---------------------------------------------------------
    def _rows_hi_for_output(self, buffer: InputBuffer, y: int) -> int:
        spec = buffer.spec
        if spec.mode == "full":
            return buffer.p_hi
        if spec.mode == "one2one":
            return y + 1
        return y * spec.stride + spec.kernel

    def _emit_acquisition(self, e: _Emitter, layout: CoreStageLayout, y: int,
                          acquired: Dict[str, int]) -> None:
        for key, buffer in layout.inputs.items():
            hi = min(self._rows_hi_for_output(buffer, y), buffer.p_hi)
            for p in range(acquired[key], hi):
                r = p - buffer.pad
                if 0 <= r < buffer.in_h:
                    self._emit_fetch_row(e, buffer, p, r)
            acquired[key] = max(acquired[key], hi)

    def _emit_fetch_row(self, e: _Emitter, buffer: InputBuffer, p: int, r: int) -> None:
        dst = buffer.data_address(p)
        if buffer.producer is None:
            src = buffer.global_address + r * buffer.row_bytes
            e.mem_cpy(src, dst, buffer.row_bytes)
            return
        producer = buffer.producer
        prod_replica = producer.replica_for_row(r)
        roles = buffer.producer_roles
        if len(roles) == 1:
            e.li(R_T5, dst)
            e.li(R_T6, prod_replica.cores[0])
            e.li(R_CNT, buffer.row_bytes)
            e.emit("RECV", rs=R_T5, rt=R_T6, rd=R_CNT)
            return
        out_w = producer.geometry.out_w
        for position, core in enumerate(prod_replica.cores):
            band = roles[position].band
            width = band[1] - band[0]
            nbytes = out_w * width
            e.li(R_T5, buffer.staging)
            e.li(R_T6, core)
            e.li(R_CNT, nbytes)
            e.emit("RECV", rs=R_T5, rt=R_T6, rd=R_CNT)
            e.sreg(SReg.CHUNK, width)
            e.sreg(SReg.STRIDE, buffer.in_c)
            e.li(R_T5, buffer.staging)
            e.li(R_T6, dst + band[0])
            e.li(R_CNT, out_w)
            e.emit("MEM_SCATTER", rs=R_T5, rt=R_T6, rd=R_CNT)

    # -- compute -------------------------------------------------------------------
    def _emit_compute_row(self, e: _Emitter, layout: CoreStageLayout, y: int) -> None:
        kind = layout.node.anchor.kind
        if kind in (OpKind.CONV, OpKind.GEMM):
            self._compute_conv_row(e, layout, y)
        elif kind is OpKind.DWCONV:
            self._compute_dwconv_row(e, layout, y)
        elif kind in (OpKind.MAXPOOL, OpKind.AVGPOOL):
            self._compute_pool_row(e, layout, y)
        elif kind is OpKind.GLOBALAVGPOOL:
            self._compute_gap(e, layout)
        elif kind is OpKind.MUL_CHANNEL:
            self._compute_cmul_row(e, layout, y)
        elif kind in (OpKind.RELU, OpKind.RELU6, OpKind.SILU, OpKind.SIGMOID,
                      OpKind.ADD):
            self._compute_eltwise_row(e, layout, y)
        else:  # pragma: no cover
            raise CompileError(f"no lowering for anchor kind {kind}")

    def _slice_groups(self, layout: CoreStageLayout) -> List[Tuple[int, list]]:
        """Owned tiles grouped by column slice, with local slice ordinals."""
        groups: Dict[int, list] = {}
        for mg_index, tile in enumerate(layout.role.tiles):
            groups.setdefault(tile.slice_index, []).append((mg_index, tile))
        return [(s, groups[s]) for s in sorted(groups)]

    def _x_loop(self, e: _Emitter, layout: CoreStageLayout, body) -> None:
        """Emit the counted loop over output positions of one row."""
        out_w = layout.geometry.out_w
        if out_w == 1:
            body(single=True)
            return
        e.li(R_XCNT, 0)
        e.li(R_XBND, out_w)
        head = e.builder.program.new_label("xloop")
        e.builder.program.place_label(head)
        body(single=False)
        e.emit("SC_ADDI", rs=R_XCNT, rt=R_XCNT, imm=1)
        e.emit("BLT", rs=R_XCNT, rt=R_XBND, target=head)

    def _epilogue_slices(self, e: _Emitter, layout: CoreStageLayout,
                         groups) -> None:
        """Per-position bias add + requantisation for every owned slice."""
        c0 = layout.band[0]
        tile_cols = layout.geometry.tile_cols
        for local, (s, tiles) in enumerate(groups):
            first_tile = tiles[0][1]
            cols = first_tile.cols_used
            len_reg = R_LEN_FULL if cols == tile_cols else R_LEN_PART
            acc_off = local * tile_cols * 4
            e.emit("SC_ADDIW", rs=R_ACC, rt=R_T1, offset=acc_off)
            if layout.bias_base:
                bias_off = (first_tile.col_lo - c0) * 4
                e.emit("SC_ADDIW", rs=R_BIAS, rt=R_T2, offset=bias_off)
                e.emit("VEC_ADD32", rs=R_T1, rt=R_T2, rd=R_T1, re=len_reg)
            out_off = first_tile.col_lo - c0
            e.emit("SC_ADDIW", rs=R_OUT, rt=R_T2, offset=out_off)
            e.emit("VEC_QNT", rs=R_T1, rd=R_T2, re=len_reg)

    def _prep_length_regs(self, e: _Emitter, layout: CoreStageLayout) -> None:
        groups = self._slice_groups(layout)
        tile_cols = layout.geometry.tile_cols
        e.li(R_LEN_FULL, tile_cols)
        partial = [
            tiles[0][1].cols_used
            for _, tiles in groups
            if tiles[0][1].cols_used != tile_cols
        ]
        if partial:
            e.li(R_LEN_PART, partial[0])

    def _compute_conv_row(self, e: _Emitter, layout: CoreStageLayout, y: int) -> None:
        node = layout.node
        geometry = layout.geometry
        main = layout.main_buffer()
        is_gemm = node.anchor.kind is OpKind.GEMM
        kernel = 1 if is_gemm else node.anchor.attrs["kernel"]
        stride = 1 if is_gemm else node.anchor.attrs["stride"]
        groups = self._slice_groups(layout)
        tile_rows = geometry.tile_rows
        in_c = main.in_c

        # loop-invariant registers
        self._prep_length_regs(e, layout)
        if is_gemm:
            e.li(R_IMC, main.base)  # the flat vector is the buffer itself
        else:
            e.li(R_IMC, layout.imcol)
            e.li(R_LEN_PATCH, kernel * in_c)
            for kr in range(kernel):
                e.li(R_KR0 + kr, main.slot_address(y * stride + kr))
        e.li(R_OUT, layout.out_row_address(y))
        e.li(R_ACC, layout.acc_base)
        if layout.bias_base:
            e.li(R_BIAS, layout.bias_base)

        def body(single: bool) -> None:
            if not is_gemm:
                for kr in range(kernel):
                    e.emit("SC_ADDIW", rs=R_IMC, rt=R_T1,
                           offset=kr * kernel * in_c)
                    e.emit(
                        "MEM_CPY", rs=R_KR0 + kr, rt=R_T1, rd=R_LEN_PATCH
                    )
            num_mgs = self.plan.arch.mgs_per_core
            if geometry.multipass:
                vec_base = main.base if is_gemm else layout.imcol
                self._multipass_tiles(e, layout, groups, vec_base)
            else:
                for local, (s, tiles) in enumerate(groups):
                    acc_off = local * geometry.tile_cols * 4
                    for mg_index, tile in tiles:
                        slot = mg_index % num_mgs
                        e.emit("SC_ADDIW", rs=R_IMC, rt=R_T1,
                               offset=tile.vec_lo)
                        e.emit("SC_ADDIW", rs=R_ACC, rt=R_T2,
                               offset=acc_off)
                        e.li(R_MG, slot)
                        e.emit(
                            "CIM_MVM", rs=R_T1, rt=R_MG, re=R_T2,
                            flags=0 if tile.tile_index == 0 else 1,
                        )
            self._epilogue_slices(e, layout, groups)
            if not single:
                for kr in range(kernel):
                    e.emit("SC_ADDIW", rs=R_KR0 + kr, rt=R_KR0 + kr,
                           offset=stride * in_c)
                e.emit("SC_ADDIW", rs=R_OUT, rt=R_OUT,
                       offset=layout.band_width)

        self._x_loop(e, layout, body)

    # -- weight streaming (multipass) ------------------------------------------
    #: Longest SC_ADDIW chain allowed for one pointer step; steps needing
    #: more stay unrolled.
    _MAX_STEP_ADDS = 3
    #: Minimum uniform passes worth a counted loop (below the block
    #: engine's batch threshold a loop only adds branch overhead).
    _MIN_PASS_RUN = 4

    def _step_chunks(self, step: int) -> Optional[List[int]]:
        """Split a pointer step into SC_ADDIW-sized signed immediates."""
        chunks: List[int] = []
        sign = 1 if step >= 0 else -1
        rest = abs(step)
        while rest:
            c = min(rest, 32767)
            chunks.append(sign * c)
            rest -= c
            if len(chunks) > self._MAX_STEP_ADDS:
                return None
        return chunks

    def _uniform_run(self, tiles, addrs, i: int):
        """Maximal run of identical-shape accumulating passes from ``i``.

        Returns ``(length, addr_step, vec_step)`` when the run is loopable
        (every pass accumulates, shapes match, and both the global tile
        address and the vector offset advance by a constant encodable
        stride), else ``None``.
        """
        t0 = tiles[i][1]
        if t0.tile_index == 0 or i + 1 >= len(tiles):
            return None
        d_addr = addrs[i + 1] - addrs[i]
        d_vec = tiles[i + 1][1].vec_lo - t0.vec_lo
        length = 1
        while i + length < len(tiles):
            tile = tiles[i + length][1]
            prev = tiles[i + length - 1][1]
            if (tile.rows_used != t0.rows_used
                    or tile.cols_used != t0.cols_used
                    or addrs[i + length] - addrs[i + length - 1] != d_addr
                    or tile.vec_lo - prev.vec_lo != d_vec):
                break
            length += 1
        if length < self._MIN_PASS_RUN:
            return None
        if self._step_chunks(d_addr) is None or self._step_chunks(d_vec) is None:
            return None
        return length, d_addr, d_vec

    def _emit_one_pass(self, e: _Emitter, layout: CoreStageLayout,
                       mg_index: int, tile, addr: int, acc_off: int) -> None:
        """One unrolled weight-streaming pass: stage, load, multiply."""
        slot = mg_index % self.plan.arch.mgs_per_core
        e.mem_cpy(addr, layout.staging, tile.nbytes)
        e.sreg(SReg.MVM_ROWS, tile.rows_used)
        e.sreg(SReg.MVM_COLS, tile.cols_used)
        e.li(R_T5, layout.staging)
        e.li(R_MG, slot)
        e.emit("CIM_LOAD", rs=R_T5, rt=R_MG)
        e.emit("SC_ADDIW", rs=R_IMC, rt=R_T1, offset=tile.vec_lo)
        e.emit("SC_ADDIW", rs=R_ACC, rt=R_T2, offset=acc_off)
        e.li(R_MG, slot)
        e.emit(
            "CIM_MVM", rs=R_T1, rt=R_MG, re=R_T2,
            flags=0 if tile.tile_index == 0 else 1,
        )

    def _multipass_tiles(self, e: _Emitter, layout: CoreStageLayout,
                         groups, vec_base: int) -> None:
        """Weight-streaming passes over each owned column slice.

        Maximal runs of uniform accumulating passes -- same tile shape,
        constant global-address and vector strides -- are emitted as one
        counted ISA loop per run, so the block engine can replay them
        iteration-major (including the per-pass NoC transfer).  The
        leading ``flags=0`` pass and any irregular tail stay unrolled.
        """
        geometry = layout.geometry
        name = layout.node.name
        for local, (s, tiles) in enumerate(groups):
            acc_off = local * geometry.tile_cols * 4
            addrs = [self.plan.tile_address(name, t) for _, t in tiles]
            i = 0
            while i < len(tiles):
                run = self._uniform_run(tiles, addrs, i)
                if run is None:
                    mg_index, tile = tiles[i]
                    self._emit_one_pass(
                        e, layout, mg_index, tile, addrs[i], acc_off
                    )
                    i += 1
                    continue
                length, d_addr, d_vec = run
                mg_index, t0 = tiles[i]
                slot = mg_index % self.plan.arch.mgs_per_core
                e.sreg(SReg.MVM_ROWS, t0.rows_used)
                e.sreg(SReg.MVM_COLS, t0.cols_used)
                e.li(R_T3, addrs[i])                # stepping tile source
                e.li(R_T4, vec_base + t0.vec_lo)    # stepping vector ptr
                e.li(R_T5, layout.staging)
                e.li(R_CNT, t0.nbytes)
                e.emit("SC_ADDIW", rs=R_ACC, rt=R_T2, offset=acc_off)
                e.li(R_MG, slot)
                e.li(R_XCNT, 0)
                e.li(R_XBND, length)
                head = e.builder.program.new_label("wpass")
                e.builder.program.place_label(head)
                e.emit("MEM_CPY", rs=R_T3, rt=R_T5, rd=R_CNT)
                e.emit("CIM_LOAD", rs=R_T5, rt=R_MG)
                e.emit("CIM_MVM", rs=R_T4, rt=R_MG, re=R_T2, flags=1)
                for c in self._step_chunks(d_addr):
                    e.emit("SC_ADDIW", rs=R_T3, rt=R_T3, offset=c)
                for c in self._step_chunks(d_vec):
                    e.emit("SC_ADDIW", rs=R_T4, rt=R_T4, offset=c)
                e.emit("SC_ADDI", rs=R_XCNT, rt=R_XCNT, imm=1)
                e.emit("BLT", rs=R_XCNT, rt=R_XBND, target=head)
                i += length

    def _compute_dwconv_row(self, e: _Emitter, layout: CoreStageLayout, y: int) -> None:
        node = layout.node
        geometry = layout.geometry
        main = layout.main_buffer()
        kernel = node.anchor.attrs["kernel"]
        stride = node.anchor.attrs["stride"]
        in_c = main.in_c
        groups = self._slice_groups(layout)
        c0 = layout.band[0]

        e.li(R_IMC, layout.imcol)
        e.li(R_GBUF, layout.dw_gather)
        e.li(R_LEN_PATCH, in_c)
        e.li(R_CNT, kernel * kernel)
        for kr in range(kernel):
            e.li(R_KR0 + kr, main.slot_address(y * stride + kr))
        e.li(R_OUT, layout.out_row_address(y))
        e.li(R_ACC, layout.acc_base)
        if layout.bias_base:
            e.li(R_BIAS, layout.bias_base)
        e.sreg(SReg.STRIDE, in_c)

        def body(single: bool) -> None:
            for kr in range(kernel):
                for kc in range(kernel):
                    e.emit("SC_ADDIW", rs=R_KR0 + kr, rt=R_T1,
                           offset=kc * in_c)
                    e.emit("SC_ADDIW", rs=R_IMC, rt=R_T2,
                           offset=(kr * kernel + kc) * in_c)
                    e.emit("MEM_CPY", rs=R_T1, rt=R_T2, rd=R_LEN_PATCH)
            for mg_index, tile in enumerate(layout.role.tiles):
                width = tile.channel_hi - tile.channel_lo
                e.sreg(SReg.CHUNK, width)
                e.emit("SC_ADDIW", rs=R_IMC, rt=R_T1,
                       offset=tile.channel_lo)
                e.emit("MEM_GATHER", rs=R_T1, rt=R_GBUF, rd=R_CNT)
                e.li(R_MG, mg_index)
                e.emit("CIM_MVM", rs=R_GBUF, rt=R_MG, re=R_ACC, flags=0)
                # epilogue for this tile's channel group
                e.li(R_T3, width)
                if layout.bias_base:
                    e.emit("SC_ADDIW", rs=R_BIAS, rt=R_T2,
                           offset=(tile.channel_lo - c0) * 4)
                    e.emit("VEC_ADD32", rs=R_ACC, rt=R_T2, rd=R_ACC, re=R_T3)
                e.emit("SC_ADDIW", rs=R_OUT, rt=R_T2,
                       offset=tile.channel_lo - c0)
                e.emit("VEC_QNT", rs=R_ACC, rd=R_T2, re=R_T3)
            if not single:
                for kr in range(kernel):
                    e.emit("SC_ADDIW", rs=R_KR0 + kr, rt=R_KR0 + kr,
                           offset=stride * in_c)
                e.emit("SC_ADDIW", rs=R_OUT, rt=R_OUT,
                       offset=layout.band_width)

        self._x_loop(e, layout, body)

    def _compute_pool_row(self, e: _Emitter, layout: CoreStageLayout, y: int) -> None:
        node = layout.node
        geometry = layout.geometry
        main = layout.main_buffer()
        kernel = node.anchor.attrs["kernel"]
        stride = node.anchor.attrs["stride"]
        channels = geometry.out_c
        out_w = geometry.out_w
        is_max = node.anchor.kind is OpKind.MAXPOOL
        row_len = out_w * channels
        e.li(R_LEN_ROW, row_len)
        e.li(R_OUT, layout.out_row_address(y))
        e.li(R_GBUF, layout.pool_gather)
        e.li(R_CNT, out_w)
        e.sreg(SReg.CHUNK, channels)
        e.sreg(SReg.STRIDE, stride * channels)
        if is_max:
            e.fill(layout.out_row_address(y), row_len, -128)
            e.li(R_OUT, layout.out_row_address(y))
        else:
            e.fill(layout.pool_acc, row_len, 0, int32=True)
            e.li(R_T4, layout.pool_acc)
        for ky in range(kernel):
            for kx in range(kernel):
                src = main.slot_address(y * stride + ky) + kx * channels
                e.li(R_T1, src)
                e.emit("MEM_GATHER", rs=R_T1, rt=R_GBUF, rd=R_CNT)
                if is_max:
                    e.emit("VEC_MAX", rs=R_GBUF, rt=R_OUT, rd=R_OUT,
                           re=R_LEN_ROW)
                else:
                    e.emit("VEC_ACC32", rs=R_GBUF, rd=R_T4, re=R_LEN_ROW)
        if not is_max:
            e.emit("VEC_QNT", rs=R_T4, rd=R_OUT, re=R_LEN_ROW)

    def _compute_gap(self, e: _Emitter, layout: CoreStageLayout) -> None:
        main = layout.main_buffer()
        channels = layout.geometry.out_c
        e.fill(layout.pool_acc, channels, 0, int32=True)
        e.li(R_T4, layout.pool_acc)
        e.li(R_LEN_ROW, channels)
        for r in range(main.in_h):
            e.li(R_T1, main.slot_address(r + main.pad) if False else main.data_address(r + main.pad))
            if main.in_w == 1:
                e.emit("VEC_ACC32", rs=R_T1, rd=R_T4, re=R_LEN_ROW)
                continue
            e.li(R_XCNT, 0)
            e.li(R_XBND, main.in_w)
            head = e.builder.program.new_label("gap")
            e.builder.program.place_label(head)
            e.emit("VEC_ACC32", rs=R_T1, rd=R_T4, re=R_LEN_ROW)
            e.emit("SC_ADDIW", rs=R_T1, rt=R_T1, offset=channels)
            e.emit("SC_ADDI", rs=R_XCNT, rt=R_XCNT, imm=1)
            e.emit("BLT", rs=R_XCNT, rt=R_XBND, target=head)
        e.li(R_OUT, layout.out_row_address(0))
        e.emit("VEC_QNT", rs=R_T4, rd=R_OUT, re=R_LEN_ROW)

    def _compute_cmul_row(self, e: _Emitter, layout: CoreStageLayout, y: int) -> None:
        main = layout.main_buffer()
        scale = layout.buffer_for_role("scale")
        if scale is None:
            raise CompileError(f"{layout.node.name}: missing scale input")
        channels = layout.geometry.out_c
        row_len = layout.geometry.out_w * channels
        e.sreg(SReg.CHANNEL_LEN, channels)
        e.li(R_T1, main.data_address(y))
        e.li(R_T2, scale.data_address(0))
        e.li(R_OUT, layout.out_row_address(y))
        e.li(R_LEN_ROW, row_len)
        e.emit("VEC_CMUL", rs=R_T1, rt=R_T2, rd=R_OUT, re=R_LEN_ROW)

    def _compute_eltwise_row(self, e: _Emitter, layout: CoreStageLayout, y: int) -> None:
        node = layout.node
        main = layout.main_buffer()
        row_len = layout.geometry.out_w * layout.geometry.out_c
        e.li(R_T1, main.data_address(y))
        e.li(R_OUT, layout.out_row_address(y))
        e.li(R_LEN_ROW, row_len)
        kind = node.anchor.kind
        if kind is OpKind.ADD:
            resid = layout.buffer_for_role("residual")
            if resid is None:
                raise CompileError(f"{node.name}: missing residual input")
            e.li(R_T2, resid.data_address(y))
            e.emit("VEC_ADD", rs=R_T1, rt=R_T2, rd=R_OUT, re=R_LEN_ROW)
        else:
            mnemonic = {
                OpKind.RELU: "VEC_RELU",
                OpKind.RELU6: "VEC_RELU6",
                OpKind.SILU: "VEC_SILU",
                OpKind.SIGMOID: "VEC_SIGMOID",
            }[kind]
            e.emit(mnemonic, rs=R_T1, rd=R_OUT, re=R_LEN_ROW)

    # -- fused epilogue ------------------------------------------------------------
    def _emit_row_epilogue(self, e: _Emitter, layout: CoreStageLayout, y: int) -> None:
        node = layout.node
        if not node.fused:
            return
        row_addr = layout.out_row_address(y)
        row_len = layout.out_row_bytes
        e.li(R_T1, row_addr)
        e.li(R_LEN_ROW, row_len)
        residual_iter = iter(
            buf for key, buf in layout.inputs.items()
            if key.startswith("residual:")
        )
        for op in node.fused:
            if op.kind is OpKind.ADD:
                resid = next(residual_iter, None)
                if resid is None:
                    raise CompileError(f"{node.name}: fused add lacks residual")
                self._emit_residual_add(e, layout, resid, y)
            elif op.kind is OpKind.RELU:
                e.emit("VEC_RELU", rs=R_T1, rd=R_T1, re=R_LEN_ROW)
            elif op.kind is OpKind.RELU6:
                e.emit("VEC_RELU6", rs=R_T1, rd=R_T1, re=R_LEN_ROW)
            elif op.kind is OpKind.SILU:
                e.emit("VEC_SILU", rs=R_T1, rd=R_T1, re=R_LEN_ROW)
            elif op.kind is OpKind.SIGMOID:
                e.emit("VEC_SIGMOID", rs=R_T1, rd=R_T1, re=R_LEN_ROW)
            else:  # pragma: no cover
                raise CompileError(f"cannot fuse {op.kind} into an epilogue")

    def _emit_residual_add(self, e: _Emitter, layout: CoreStageLayout,
                           resid: InputBuffer, y: int) -> None:
        geometry = layout.geometry
        band = layout.band
        if layout.band_width == geometry.out_c:
            e.li(R_T2, resid.data_address(y))
            e.emit("VEC_ADD", rs=R_T1, rt=R_T2, rd=R_T1, re=R_LEN_ROW)
            return
        # channel-banded core: gather its channels from the NHWC residual row
        e.sreg(SReg.CHUNK, layout.band_width)
        e.sreg(SReg.STRIDE, geometry.out_c)
        e.li(R_T2, resid.data_address(y) + band[0])
        e.li(R_T4, layout.resid_gather)
        e.li(R_CNT, geometry.out_w)
        e.emit("MEM_GATHER", rs=R_T2, rt=R_T4, rd=R_CNT)
        e.emit("VEC_ADD", rs=R_T1, rt=R_T4, rd=R_T1, re=R_LEN_ROW)

    # -- output emission -------------------------------------------------------------
    def _consumer_cores_for_row(self, stage: StagePlan, node: CondensedNode,
                                y: int) -> List[int]:
        """Same-stage consumer cores needing output row ``y``, in canonical
        (node, input, replica, core) order."""
        cores: List[int] = []
        out_h = self.plan.geometries[node.name].out_h
        for consumer in stage.nodes:
            if consumer.name == node.name:
                continue
            for spec in consumer.inputs:
                if spec.tensor != node.output:
                    continue
                cmap = stage.mappings[consumer.name]
                for replica in cmap.replicas:
                    needed = spec.rows_needed(
                        replica.rows[0], replica.rows[1], out_h
                    )
                    if y in needed:
                        cores.extend(replica.cores)
        return cores

    def _emit_outputs(self, e: _Emitter, stage: StagePlan,
                      layout: CoreStageLayout, y: int) -> None:
        node = layout.node
        row_addr = layout.out_row_address(y)
        nbytes = layout.out_row_bytes
        for core in self._consumer_cores_for_row(stage, node, y):
            e.li(R_T5, row_addr)
            e.li(R_T6, core)
            e.li(R_CNT, nbytes)
            e.emit("SEND", rs=R_T5, rt=R_T6, rd=R_CNT)
        if stage.spill[node.name]:
            geometry = layout.geometry
            out_row_bytes = geometry.out_w * geometry.out_c
            dst = self.plan.tensor_address[node.output] + y * out_row_bytes
            if layout.band_width == geometry.out_c:
                e.mem_cpy(row_addr, dst, nbytes)
            else:
                e.sreg(SReg.CHUNK, layout.band_width)
                e.sreg(SReg.STRIDE, geometry.out_c)
                e.li(R_T5, row_addr)
                e.li(R_T6, dst + layout.band[0])
                e.li(R_CNT, geometry.out_w)
                e.emit("MEM_SCATTER", rs=R_T5, rt=R_T6, rd=R_CNT)


def build_global_image(plan: ExecutionPlan) -> np.ndarray:
    """Materialise the initial global-memory contents (weights, biases).

    The one place compilation reads parameter values: each tile is cut
    (:meth:`NodeGeometry.tile_data`) straight into its image slice.
    """
    from repro.compiler.plan import GLOBAL_BASE

    image = np.zeros(plan.global_bytes, dtype=np.uint8)
    for stage in plan.stages:
        for node in stage.nodes:
            geometry = plan.geometries[node.name]
            if not node.is_cim:
                continue
            for tile in geometry.pack_tiles():
                offset = plan.tile_address(node.name, tile) - GLOBAL_BASE
                image[offset:offset + tile.nbytes].view(np.int8).reshape(
                    tile.rows_used, tile.cols_used
                )[...] = geometry.tile_data(tile)
            bias = node.anchor.bias
            if bias is not None:
                offset = plan.bias_address[node.name] - GLOBAL_BASE
                image[offset:offset + 4 * bias.size].view(np.int32)[...] = (
                    bias.reshape(-1)
                )
    return image
