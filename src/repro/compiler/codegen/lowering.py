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

**Registers.**  Every program follows one convention (the ``R_*``
constants below): ``R_XCNT`` / ``R_XBND`` count the one open counted loop,
``R_KR0``.. hold the per-kernel-row source pointers and ``R_IMC`` /
``R_OUT`` / ``R_ACC`` / ``R_BIAS`` / ``R_GBUF`` the im2col, output,
accumulator, bias and gather bases, ``R_T5`` / ``R_T6`` / ``R_CNT`` the
operands of a transfer, ``R_SCR`` an S_Reg value in flight, and
``R_T1``..``R_T4`` scratch.

**Idioms.**  Each is written once: :class:`_Emitter` is the
:class:`ProgramBuilder` that caches S_Reg values
(``sreg``), issues a three-operand transfer (``transfer``: ``MEM_CPY``,
``RECV``, ``SEND``, ``MEM_SCATTER``), fills memory (``fill``) and opens
counted loops (``counted``); :meth:`ProgramGenerator._load_tile` and
:meth:`~ProgramGenerator._mvm_tile` stage / multiply one weight tile,
:meth:`~ProgramGenerator._x_positions` runs a conv / dwconv body over a
row's output positions, ``_UNARY`` maps elementwise kinds to mnemonics,
and :meth:`~ProgramGenerator._programs` is the one walk over cores and
stages.

**The loop-head rule.**  ``sreg`` elides a set whose value the register
already holds.  Inside a counted loop the cache describes the first
iteration only, so a set elided against the value cached at the loop
head is valid only while the body leaves that S_Reg unchanged; when the
body changes it, ``counted`` re-establishes the head's value at the end
of the body, so every iteration starts from the state the elision
assumed.
"""

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import CompileError
from repro.compiler.codegen.layout import (
    CoreStageLayout,
    InputBuffer,
    build_core_layout,
)
from repro.compiler.frontend import CondensedNode
from repro.compiler.plan import ExecutionPlan, StagePlan
from repro.graph.ops import OpKind
from repro.isa import ISARegistry, Program, ProgramBuilder, SReg, default_registry

# --- fixed register conventions shared by every emitted program -------------
R_XCNT, R_XBND = 1, 2
R_KR0 = 3            # R3..R9: up to 7 per-kernel-row source pointers
R_IMC, R_OUT = 11, 12
R_T1, R_T2, R_ACC, R_MG, R_SCR = 13, 14, 15, 16, 17
R_T3, R_T4 = 18, 19
R_LEN_PATCH, R_BIAS, R_LEN_FULL, R_LEN_PART = 20, 21, 22, 23
R_GBUF, R_CNT, R_LEN_ROW = 24, 25, 26
R_T5, R_T6 = 27, 28

_MAX_KERNEL = 7  # bounded by the register file convention above

#: Elementwise kinds lowered to one vector instruction over a row.
_UNARY = {
    OpKind.RELU: "VEC_RELU",
    OpKind.RELU6: "VEC_RELU6",
    OpKind.SILU: "VEC_SILU",
    OpKind.SIGMOID: "VEC_SIGMOID",
}


class _Emitter(ProgramBuilder):
    """A ProgramBuilder that caches special-register values."""

    def __init__(self, registry: ISARegistry):
        super().__init__(registry)
        self._sregs: Dict[int, int] = {}
        #: S_Reg -> whether its first set in the open counted loop's body
        #: was elided against the head's value (None outside a loop).
        self._leaned: Optional[Dict[int, bool]] = None

    def sreg(self, sreg: SReg, value: int) -> None:
        """Set a special register unless it already holds ``value``."""
        key = int(sreg)
        held = self._sregs.get(key) == value
        if self._leaned is not None:
            self._leaned.setdefault(key, held)
        if held:
            return
        self.li(R_SCR, value & 0xFFFFFFFF)
        self.emit("MV_G2S", rs=R_SCR, imm=key)
        self._sregs[key] = value

    def transfer(self, mnemonic: str, a: int, b: int, count: int) -> None:
        """``mnemonic T5, T6, CNT`` with the three operands loaded first."""
        self.li(R_T5, a)
        self.li(R_T6, b)
        self.li(R_CNT, count)
        self.emit(mnemonic, rs=R_T5, rt=R_T6, rd=R_CNT)

    def fill(self, addr: int, count: int, value: int, int32: bool = False) -> None:
        # Uses only T5/T6 so callers' count registers survive the fill.
        self.sreg(SReg.FILL_VALUE, value & 0xFF)
        self.li(R_T5, addr)
        self.li(R_T6, count)
        self.emit("VEC_FILL", rd=R_T5, re=R_T6, funct=4 if int32 else 0)

    @contextmanager
    def counted(self, n: int) -> Iterator[None]:
        """Counted loop over ``R_XCNT`` in ``range(n)``: the body is the
        ``with`` block, run once per iteration.  Loops do not nest (they
        share the counter registers).  The loop-head rule: an S_Reg whose
        first set in the body was elided against the head's cached value,
        and which the body leaves changed, is set back to that value at
        the end of the body."""
        if self._leaned is not None:
            raise CompileError("counted loops do not nest")
        self.li(R_XCNT, 0)
        self.li(R_XBND, n)
        head, self._leaned = dict(self._sregs), {}
        with self.loop(R_XCNT, R_XBND):
            yield
            leaned, self._leaned = self._leaned, None
            for key in sorted(leaned):
                if leaned[key]:
                    self.sreg(key, head[key])


class ProgramGenerator:
    """Generates per-core programs for a full execution plan."""

    def __init__(self, plan: ExecutionPlan, registry: Optional[ISARegistry] = None):
        self.plan = plan
        self.registry = registry or default_registry()

    # -- public entry ---------------------------------------------------------
    def generate(self) -> Dict[int, Program]:
        return self._programs(frozenset())[0]

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
        return self._programs(self.plan.resident_cores())

    def _programs(self, resident: frozenset):
        """The one walk over cores and stages: ``(warm, load)`` program
        maps, the load prologue of every core in ``resident`` hoisted
        into its ``load`` program."""
        assignments = self._assignments()
        warm: Dict[int, Program] = {}
        load: Dict[int, Program] = {}
        for core_id in range(self.plan.arch.num_cores):
            e, hoisted = _Emitter(self.registry), _Emitter(self.registry)
            for stage in self.plan.stages:
                work = assignments.get((stage.index, core_id))
                if work is not None:
                    layout = build_core_layout(
                        self.plan, stage, *work, core_id
                    )
                    if core_id in resident:
                        self._emit_loads(hoisted, layout)
                    self._emit_stage(e, stage, layout,
                                     loads=core_id not in resident)
                e.emit("BARRIER")
            for emitter, programs in ((e, warm), (hoisted, load)):
                emitter.halt()
                programs[core_id] = emitter.finalize()
        return warm, load

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
    def _emit_stage(self, e: _Emitter, stage: StagePlan,
                    layout: CoreStageLayout, loads: bool) -> None:
        node = layout.node
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
        y0, y1 = layout.replica.rows
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
        # Weight-streaming operators load tiles inside the compute body
        # (round-robin over macro groups); only constants here.
        if not layout.geometry.multipass:
            for mg_index, tile in enumerate(layout.role.tiles):
                src = self.plan.tile_address(node.name, tile)
                self._load_tile(e, layout, tile, src, mg_index)
        if node.anchor.bias_shape is not None:
            src = self.plan.bias_address[node.name] + 4 * layout.band[0]
            e.transfer("MEM_CPY", src, layout.bias_base, 4 * layout.band_width)

    def _load_tile(self, e: _Emitter, layout: CoreStageLayout, tile,
                   src: int, slot: int) -> None:
        """Stage one weight tile from ``src`` and write macro group ``slot``."""
        e.transfer("MEM_CPY", src, layout.staging, tile.nbytes)
        e.sreg(SReg.MVM_ROWS, tile.rows_used)
        e.sreg(SReg.MVM_COLS, tile.cols_used)
        e.li(R_T5, layout.staging)
        e.li(R_MG, slot)
        e.emit("CIM_LOAD", rs=R_T5, rt=R_MG)

    @staticmethod
    def _mvm_tile(e: _Emitter, tile, slot: int, acc_off: int) -> None:
        """Multiply the im2col patch by macro group ``slot``'s tile into
        the accumulator slice at ``acc_off`` (the slice's first tile
        overwrites, the rest accumulate)."""
        e.emit("SC_ADDIW", rs=R_IMC, rt=R_T1, offset=tile.vec_lo)
        e.emit("SC_ADDIW", rs=R_ACC, rt=R_T2, offset=acc_off)
        e.li(R_MG, slot)
        e.emit(
            "CIM_MVM", rs=R_T1, rt=R_MG, re=R_T2,
            flags=0 if tile.tile_index == 0 else 1,
        )

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
            e.transfer("MEM_CPY", src, dst, buffer.row_bytes)
            return
        producer = buffer.producer
        prod_replica = producer.replica_for_row(r)
        roles = buffer.producer_roles
        if len(roles) == 1:
            e.transfer("RECV", dst, prod_replica.cores[0], buffer.row_bytes)
            return
        out_w = producer.geometry.out_w
        for position, core in enumerate(prod_replica.cores):
            band = roles[position].band
            width = band[1] - band[0]
            e.transfer("RECV", buffer.staging, core, out_w * width)
            e.sreg(SReg.CHUNK, width)
            e.sreg(SReg.STRIDE, buffer.in_c)
            e.transfer("MEM_SCATTER", buffer.staging, dst + band[0], out_w)

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
        elif kind in _UNARY or kind is OpKind.ADD:
            self._compute_eltwise_row(e, layout, y)
        else:  # pragma: no cover
            raise CompileError(f"no lowering for anchor kind {kind}")

    def _slice_groups(self, layout: CoreStageLayout) -> List[Tuple[int, list]]:
        """Owned tiles grouped by column slice, with local slice ordinals."""
        groups: Dict[int, list] = {}
        for mg_index, tile in enumerate(layout.role.tiles):
            groups.setdefault(tile.slice_index, []).append((mg_index, tile))
        return [(s, groups[s]) for s in sorted(groups)]

    @staticmethod
    def _row_pointers(e: _Emitter, layout: CoreStageLayout, y: int,
                      taps: int, stride: int) -> None:
        """Kernel-row source pointers, then output, accumulator and bias
        bases, for output row ``y`` of a conv / dwconv."""
        main = layout.main_buffer()
        for kr in range(taps):
            e.li(R_KR0 + kr, main.slot_address(y * stride + kr))
        e.li(R_OUT, layout.out_row_address(y))
        e.li(R_ACC, layout.acc_base)
        if layout.bias_base:
            e.li(R_BIAS, layout.bias_base)

    @staticmethod
    @contextmanager
    def _x_positions(e: _Emitter, layout: CoreStageLayout, taps: int,
                     step: int) -> Iterator[None]:
        """The ``with`` block once per output position of a row: inline
        for a one-wide row, else a counted loop whose body ends by
        advancing the kernel-row pointers by ``step`` and the output
        pointer by the band."""
        out_w = layout.geometry.out_w
        if out_w == 1:
            yield
            return
        with e.counted(out_w):
            yield
            for kr in range(taps):
                e.emit("SC_ADDIW", rs=R_KR0 + kr, rt=R_KR0 + kr, offset=step)
            e.emit("SC_ADDIW", rs=R_OUT, rt=R_OUT, offset=layout.band_width)

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
        in_c = main.in_c

        # loop-invariant registers
        self._prep_length_regs(e, layout)
        if is_gemm:
            e.li(R_IMC, main.base)  # the flat vector is the buffer itself
        else:
            e.li(R_IMC, layout.imcol)
            e.li(R_LEN_PATCH, kernel * in_c)
        self._row_pointers(e, layout, y, 0 if is_gemm else kernel, stride)

        with self._x_positions(e, layout, kernel, stride * in_c):
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
                        self._mvm_tile(e, tile, mg_index % num_mgs, acc_off)
            self._epilogue_slices(e, layout, groups)

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
        num_mgs = self.plan.arch.mgs_per_core
        for local, (s, tiles) in enumerate(groups):
            acc_off = local * geometry.tile_cols * 4
            addrs = [self.plan.tile_address(name, t) for _, t in tiles]
            i = 0
            while i < len(tiles):
                mg_index, t0 = tiles[i]
                slot = mg_index % num_mgs
                run = self._uniform_run(tiles, addrs, i)
                if run is None:
                    self._load_tile(e, layout, t0, addrs[i], slot)
                    self._mvm_tile(e, t0, slot, acc_off)
                    i += 1
                    continue
                length, d_addr, d_vec = run
                e.sreg(SReg.MVM_ROWS, t0.rows_used)
                e.sreg(SReg.MVM_COLS, t0.cols_used)
                e.li(R_T3, addrs[i])                # stepping tile source
                e.li(R_T4, vec_base + t0.vec_lo)    # stepping vector ptr
                e.li(R_T5, layout.staging)
                e.li(R_CNT, t0.nbytes)
                e.emit("SC_ADDIW", rs=R_ACC, rt=R_T2, offset=acc_off)
                e.li(R_MG, slot)
                with e.counted(length):
                    e.emit("MEM_CPY", rs=R_T3, rt=R_T5, rd=R_CNT)
                    e.emit("CIM_LOAD", rs=R_T5, rt=R_MG)
                    e.emit("CIM_MVM", rs=R_T4, rt=R_MG, re=R_T2, flags=1)
                    for c in self._step_chunks(d_addr):
                        e.emit("SC_ADDIW", rs=R_T3, rt=R_T3, offset=c)
                    for c in self._step_chunks(d_vec):
                        e.emit("SC_ADDIW", rs=R_T4, rt=R_T4, offset=c)
                i += length

    def _compute_dwconv_row(self, e: _Emitter, layout: CoreStageLayout, y: int) -> None:
        node = layout.node
        kernel = node.anchor.attrs["kernel"]
        stride = node.anchor.attrs["stride"]
        in_c = layout.main_buffer().in_c
        c0 = layout.band[0]

        e.li(R_IMC, layout.imcol)
        e.li(R_GBUF, layout.dw_gather)
        e.li(R_LEN_PATCH, in_c)
        e.li(R_CNT, kernel * kernel)
        self._row_pointers(e, layout, y, kernel, stride)
        e.sreg(SReg.STRIDE, in_c)

        with self._x_positions(e, layout, kernel, stride * in_c):
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
            e.li(R_T1, main.data_address(r + main.pad))
            if main.in_w == 1:
                e.emit("VEC_ACC32", rs=R_T1, rd=R_T4, re=R_LEN_ROW)
                continue
            with e.counted(main.in_w):
                e.emit("VEC_ACC32", rs=R_T1, rd=R_T4, re=R_LEN_ROW)
                e.emit("SC_ADDIW", rs=R_T1, rt=R_T1, offset=channels)
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
            e.emit(_UNARY[kind], rs=R_T1, rd=R_OUT, re=R_LEN_ROW)

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
        if node.anchor.kind is OpKind.ADD:
            # The anchor's own operand, which _compute_eltwise_row added.
            next(residual_iter, None)
        for op in node.fused:
            if op.kind is OpKind.ADD:
                resid = next(residual_iter, None)
                if resid is None:
                    raise CompileError(f"{node.name}: fused add lacks residual")
                self._emit_residual_add(e, layout, resid, y)
            elif op.kind in _UNARY:
                e.emit(_UNARY[op.kind], rs=R_T1, rd=R_T1, re=R_LEN_ROW)
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
            e.transfer("SEND", row_addr, core, nbytes)
        if stage.spill[node.name]:
            geometry = layout.geometry
            out_row_bytes = geometry.out_w * geometry.out_c
            dst = self.plan.tensor_address[node.output] + y * out_row_bytes
            if layout.band_width == geometry.out_c:
                e.transfer("MEM_CPY", row_addr, dst, nbytes)
            else:
                e.sreg(SReg.CHUNK, layout.band_width)
                e.sreg(SReg.STRIDE, geometry.out_c)
                e.transfer("MEM_SCATTER", row_addr, dst + layout.band[0],
                           geometry.out_w)


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
