"""Per-core execution: a three-stage (IF/DE/EX) in-order pipeline.

Each core executes its program functionally *in order* while timing is
tracked per execution unit: an instruction issues once its unit is free
and its register operands are ready (the bitmap scoreboard of Sec. III-D
reduces to per-register ready cycles plus per-unit busy-until counters),
occupies its unit for the parameter-derived duration, and retires.
Different units overlap, giving instruction-level parallelism between
scalar address arithmetic, scratchpad DMA, vector work and bit-serial CIM
MVMs.  ``RECV`` and ``BARRIER`` blocks return control to the chip
scheduler (:mod:`repro.sim.chip`).

Instructions are pre-translated into plain tuples so the interpreter loop
stays lean enough to execute the multi-hundred-thousand-instruction
streams real models compile into; the translation is memoised on the
:class:`~repro.isa.Program` it decodes.  The handlers below are also the
block engine's cold tier and its fallback for blocking opcodes
(:mod:`repro.sim.blockengine`), so they are the one reference both
engines are held to.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.graph.quantize import (
    RELU6_CLIP,
    SIGMOID_LUT,
    SILU_LUT,
    apply_lut,
    cmul_i8,
    int_matmul,
    requantize,
    saturate_i8,
    QuantParams,
)
from repro.isa import ISARegistry, Opcode, Program, SReg
from repro.isa.opcodes import Category
from repro.utils import ceil_div

#: blocking states returned by Core.run()
RUNNING, BLOCKED_RECV, BLOCKED_BARRIER, HALTED = range(4)

_UNITS = ("scalar", "vector", "cim", "mem", "xfer")


def translate_program(program: Program, registry: ISARegistry):
    """Pre-decode a program into flat tuples for the interpreter.

    Each instruction becomes ``(opcode, rs, rt, rd, re, imm, offset,
    funct, flags, desc)``.  ``desc`` rides along only where a handler
    reads it (extension opcodes); built-ins dispatch on the opcode alone
    and carry ``None``, so a decoded program is a tuple of plain values
    that hashes at C speed -- it is the block-program cache key
    (:func:`repro.sim.blockengine.block_program_for`).

    Memoised on the program object (``Program._invalidate`` drops the
    memo next to the other derived state), so every core and every
    repeated simulation of one compiled model decodes it once.
    """
    memo = program._translated
    if memo is not None and memo[0] is registry:
        return memo[1]
    if not program.finalized:
        program.finalize()
    translated = []
    for instr in program.instructions:
        desc = registry.lookup(instr.mnemonic)
        opcode = int(desc.opcode)
        f = instr.fields
        translated.append((
            opcode,
            f.get("rs", 0), f.get("rt", 0), f.get("rd", 0), f.get("re", 0),
            f.get("imm", 0), f.get("offset", 0), f.get("funct", 0),
            f.get("flags", 0),
            desc if _DISPATCH[opcode] is _h_extension else None,
        ))
    code = tuple(translated)
    program._translated = (registry, code)
    return code


class Core:
    """One CIM core: register state, macro groups, pipeline timing."""

    def __init__(self, core_id: int, chip, program: Program):
        self.core_id = core_id
        self.chip = chip
        arch = chip.arch
        self.arch = arch
        self.registry = chip.registry
        self.program = program
        #: Set by the chip when the hot-block engine is selected
        #: (see :mod:`repro.sim.blockengine`); None = interpreter.
        self._blockprog = None
        self.code = translate_program(program, self.registry)
        self.pc = 0
        self.clock = 0
        self.regs: List[int] = [0] * 32
        self.sregs: List[int] = [0] * 16
        self.sregs[int(SReg.CORE_ID)] = core_id
        self.sregs[int(SReg.NUM_CORES)] = arch.chip.num_cores
        self.reg_ready: List[int] = [0] * 32
        self.unit_free: Dict[str, int] = {u: 0 for u in _UNITS}
        self.busy: Dict[str, int] = {u: 0 for u in _UNITS}
        mgs = arch.chip.core.cim_unit.num_macro_groups
        self.mgs: List[Optional[Tuple[np.ndarray, int, int]]] = [None] * mgs
        self.state = RUNNING
        self.instructions_retired = 0
        self._pending_recv: Optional[Tuple[int, int, int]] = None
        # cached unit parameters
        cim = arch.chip.core.cim_unit
        self._mvm_interval = cim.mvm_issue_interval
        self._mvm_latency = cim.mvm_latency
        vec = arch.chip.core.vector_unit
        self._lanes = vec.lanes
        self._vec_depth = vec.pipeline_depth
        local = arch.chip.core.local_memory
        self._local_bw = local.bandwidth_bytes_per_cycle
        self._local_lat = local.access_latency
        glb = arch.chip.global_memory
        self._glb_bw = glb.bandwidth_bytes_per_cycle
        self._glb_lat = glb.access_latency
        self._dispatch = _DISPATCH

    def reset_for_program(self, program: Program) -> None:
        """Rebind to a new program, keeping macro groups + local memory.

        Resident-weights runs call this between program segments: the
        weight state loaded into ``self.mgs`` (and everything in the
        memory system) persists, while architectural registers, the
        timing scoreboard and the pipeline state restart exactly as a
        fresh core would -- so a warm run is indistinguishable from an
        isolated run of the warm program against the persisted state.
        """
        self.program = program
        self._blockprog = None
        self.code = translate_program(program, self.registry)
        self.pc = 0
        self.clock = 0
        self.regs = [0] * 32
        self.sregs = [0] * 16
        self.sregs[int(SReg.CORE_ID)] = self.core_id
        self.sregs[int(SReg.NUM_CORES)] = self.arch.chip.num_cores
        self.reg_ready = [0] * 32
        self.unit_free = {u: 0 for u in _UNITS}
        self.busy = {u: 0 for u in _UNITS}
        self.state = RUNNING
        self.instructions_retired = 0
        self._pending_recv = None

    # -- helpers ----------------------------------------------------------
    def _write_reg(self, index: int, value: int, ready: int) -> None:
        if index != 0:
            self.regs[index] = value
            self.reg_ready[index] = ready

    def _issue(self, unit: str, latency: int, occupancy: Optional[int] = None,
               deps: Tuple[int, ...] = ()) -> Tuple[int, int]:
        """Issue on ``unit``; returns (start, finish) and advances clock."""
        start = max(self.clock, self.unit_free[unit])
        for reg in deps:
            ready = self.reg_ready[reg]
            if ready > start:
                start = ready
        occupancy = latency if occupancy is None else occupancy
        self.unit_free[unit] = start + occupancy
        self.busy[unit] += occupancy
        self.clock = start + 1
        return start, start + latency

    def _mem(self):
        return self.chip.memory

    def _copy_cost(self, nbytes: int, src_global: bool, dst_global: bool) -> int:
        cycles = ceil_div(max(1, nbytes), self._local_bw) + self._local_lat
        if src_global or dst_global:
            cycles = max(
                cycles, ceil_div(max(1, nbytes), self._glb_bw) + self._glb_lat
            )
        return cycles

    def _charge_copy_energy(self, nbytes: int, src_global: bool,
                            dst_global: bool, start: int) -> None:
        acct = self.chip.acct
        if src_global or dst_global:
            acct.global_access(nbytes)
            acct.local_copy(nbytes)  # the local half of the transfer
            from repro.sim.noc import GLOBAL_PORT

            self.chip.noc.transfer(
                GLOBAL_PORT if src_global else self.core_id,
                self.core_id if src_global else GLOBAL_PORT,
                nbytes,
                start,
            )
            acct.noc_transfer(
                self.chip.noc.energy_pj(
                    nbytes,
                    GLOBAL_PORT if src_global else self.core_id,
                    self.core_id if src_global else GLOBAL_PORT,
                )
            )
        else:
            acct.local_copy(nbytes)

    # -- main loop ----------------------------------------------------------
    def run(self, max_instructions: int = 50_000_000) -> int:
        """Execute until HALT, a blocking RECV, or a BARRIER."""
        if self.state == HALTED:
            return HALTED
        self.state = RUNNING
        if self._blockprog is not None:
            from repro.sim.blockengine import run_core

            return run_core(self, max_instructions)
        executed = 0
        code = self.code
        dispatch = self._dispatch
        while True:
            if executed >= max_instructions:
                raise SimulationError(
                    f"core {self.core_id}: runaway execution "
                    f"(> {max_instructions} instructions without blocking)"
                )
            if not 0 <= self.pc < len(code):
                raise SimulationError(
                    f"core {self.core_id}: pc {self.pc} outside program "
                    f"of {len(code)} instructions"
                )
            tup = code[self.pc]
            self.chip.acct.instruction()
            result = dispatch[tup[0]](self, tup)
            executed += 1
            self.instructions_retired += 1
            if result is not None:
                self.state = result
                return result


# ---------------------------------------------------------------------------
# instruction handlers (module-level functions bound through a dispatch list)
# ---------------------------------------------------------------------------

def _h_scalar2(core: Core, t) -> None:
    op, rs, rt, rd = t[0], t[1], t[2], t[3]
    a, b = core.regs[rs], core.regs[rt]
    if op == Opcode.SC_ADD:
        value = a + b
    elif op == Opcode.SC_SUB:
        value = a - b
    elif op == Opcode.SC_MUL:
        value = a * b
    elif op == Opcode.SC_SLT:
        value = 1 if a < b else 0
    elif op == Opcode.SC_AND:
        value = a & b
    elif op == Opcode.SC_OR:
        value = a | b
    elif op == Opcode.SC_XOR:
        value = a ^ b
    elif op == Opcode.SC_SLL:
        value = a << (b & 31)
    else:  # SC_SRL
        value = (a & 0xFFFFFFFF) >> (b & 31)
    start, finish = core._issue("scalar", 1, deps=(rs, rt))
    core._write_reg(rd, value, finish)
    core.chip.acct.scalar_op()
    core.pc += 1


def _h_scalar_imm(core: Core, t) -> None:
    op, rs, rt, imm = t[0], t[1], t[2], t[5]
    a = core.regs[rs]
    if op == Opcode.SC_ADDI:
        value = a + imm
    elif op == Opcode.SC_MULI:
        value = a * imm
    else:  # SC_SLTI
        value = 1 if a < imm else 0
    start, finish = core._issue("scalar", 1, deps=(rs,))
    core._write_reg(rt, value, finish)
    core.chip.acct.scalar_op()
    core.pc += 1


def _h_lui(core: Core, t) -> None:
    rt, offset = t[2], t[6]
    start, finish = core._issue("scalar", 1)
    core._write_reg(rt, (offset & 0xFFFF) << 16, finish)
    core.chip.acct.scalar_op()
    core.pc += 1


def _h_ori(core: Core, t) -> None:
    rs, rt, offset = t[1], t[2], t[6]
    start, finish = core._issue("scalar", 1, deps=(rs,))
    core._write_reg(rt, core.regs[rs] | (offset & 0xFFFF), finish)
    core.chip.acct.scalar_op()
    core.pc += 1


def _h_addiw(core: Core, t) -> None:
    rs, rt, offset = t[1], t[2], t[6]
    start, finish = core._issue("scalar", 1, deps=(rs,))
    core._write_reg(rt, core.regs[rs] + offset, finish)
    core.chip.acct.scalar_op()
    core.pc += 1


def _h_mv_g2s(core: Core, t) -> None:
    rs, imm = t[1], t[5]
    core._issue("scalar", 1, deps=(rs,))
    if not 0 <= imm < len(core.sregs):
        raise SimulationError(f"core {core.core_id}: bad S_Reg index {imm}")
    core.sregs[imm] = core.regs[rs]
    core.chip.acct.scalar_op()
    core.pc += 1


def _h_mv_s2g(core: Core, t) -> None:
    rt, imm = t[2], t[5]
    start, finish = core._issue("scalar", 1)
    core._write_reg(rt, core.sregs[imm], finish)
    core.chip.acct.scalar_op()
    core.pc += 1


def _h_jmp(core: Core, t) -> None:
    core._issue("scalar", 1)
    core.pc += t[6]


def _h_branch(core: Core, t) -> None:
    op, rs, rt, offset = t[0], t[1], t[2], t[6]
    a, b = core.regs[rs], core.regs[rt]
    if op == Opcode.BEQ:
        taken = a == b
    elif op == Opcode.BNE:
        taken = a != b
    elif op == Opcode.BLT:
        taken = a < b
    else:  # BGE
        taken = a >= b
    core._issue("scalar", 1, deps=(rs, rt))
    core.chip.acct.scalar_op()
    core.pc += offset if taken else 1


def _h_nop(core: Core, t) -> None:
    core._issue("scalar", 1)
    core.pc += 1


def _h_halt(core: Core, t) -> int:
    core.pc += 1
    return HALTED


def _h_barrier(core: Core, t) -> int:
    core.pc += 1
    return BLOCKED_BARRIER


def _h_mem_cpy(core: Core, t) -> None:
    rs, rt, rd, offset = t[1], t[2], t[3], t[6]
    src = core.regs[rs]
    dst = core.regs[rt] + offset
    nbytes = core.regs[rd]
    mem = core._mem()
    src_g, dst_g = mem.is_global(src), mem.is_global(dst)
    cost = core._copy_cost(nbytes, src_g, dst_g)
    start, _ = core._issue("mem", cost, deps=(rs, rt, rd))
    data = mem.read(core.core_id, src, nbytes)
    mem.write(core.core_id, dst, data)
    core._charge_copy_energy(nbytes, src_g, dst_g, start)
    core.pc += 1


def _h_mem_ld(core: Core, t) -> None:
    rs, rt, offset = t[1], t[2], t[6]
    addr = core.regs[rs] + offset
    mem = core._mem()
    cost = core._copy_cost(4, mem.is_global(addr), False)
    start, finish = core._issue("mem", cost, deps=(rs,))
    core._write_reg(rt, mem.read_word(core.core_id, addr), finish)
    core._charge_copy_energy(4, mem.is_global(addr), False, start)
    core.pc += 1


def _h_mem_st(core: Core, t) -> None:
    rs, rt, offset = t[1], t[2], t[6]
    addr = core.regs[rs] + offset
    mem = core._mem()
    cost = core._copy_cost(4, False, mem.is_global(addr))
    start, _ = core._issue("mem", cost, deps=(rs, rt))
    mem.write_word(core.core_id, addr, core.regs[rt])
    core._charge_copy_energy(4, False, mem.is_global(addr), start)
    core.pc += 1


def _gather_indices(count: int, chunk: int, stride: int) -> np.ndarray:
    return (
        np.arange(count, dtype=np.int64)[:, None] * stride
        + np.arange(chunk, dtype=np.int64)[None, :]
    ).reshape(-1)


def _h_mem_gather(core: Core, t) -> None:
    rs, rt, rd = t[1], t[2], t[3]
    count = core.regs[rd]
    chunk = core.sregs[int(SReg.CHUNK)]
    stride = core.sregs[int(SReg.STRIDE)]
    if chunk <= 0 or stride <= 0 or count < 0:
        raise SimulationError(
            f"core {core.core_id}: bad gather chunk={chunk} stride={stride}"
        )
    src, dst = core.regs[rs], core.regs[rt]
    mem = core._mem()
    span = (count - 1) * stride + chunk if count else 0
    nbytes = count * chunk
    src_g, dst_g = mem.is_global(src), mem.is_global(dst)
    cost = core._copy_cost(nbytes, src_g, dst_g) + count
    start, _ = core._issue("mem", cost, deps=(rs, rt, rd))
    if count:
        window = mem.read(core.core_id, src, span)
        mem.write(core.core_id, dst, window[_gather_indices(count, chunk, stride)])
    core._charge_copy_energy(nbytes, src_g, dst_g, start)
    core.pc += 1


def _h_mem_scatter(core: Core, t) -> None:
    rs, rt, rd = t[1], t[2], t[3]
    count = core.regs[rd]
    chunk = core.sregs[int(SReg.CHUNK)]
    stride = core.sregs[int(SReg.STRIDE)]
    if chunk <= 0 or stride <= 0 or count < 0:
        raise SimulationError(
            f"core {core.core_id}: bad scatter chunk={chunk} stride={stride}"
        )
    src, dst = core.regs[rs], core.regs[rt]
    mem = core._mem()
    span = (count - 1) * stride + chunk if count else 0
    nbytes = count * chunk
    src_g, dst_g = mem.is_global(src), mem.is_global(dst)
    cost = core._copy_cost(nbytes, src_g, dst_g) + count
    start, _ = core._issue("mem", cost, deps=(rs, rt, rd))
    if count:
        data = mem.read(core.core_id, src, nbytes)
        window = mem.read(core.core_id, dst, span)
        window[_gather_indices(count, chunk, stride)] = data
        mem.write(core.core_id, dst, window)
    core._charge_copy_energy(nbytes, src_g, dst_g, start)
    core.pc += 1


def _h_send(core: Core, t) -> None:
    rs, rt, rd = t[1], t[2], t[3]
    src = core.regs[rs]
    dst_core = core.regs[rt]
    nbytes = core.regs[rd]
    mem = core._mem()
    serialization = ceil_div(max(1, nbytes), core.chip.noc.flit_bytes)
    start, _ = core._issue("xfer", serialization, deps=(rs, rt, rd))
    data = mem.read(core.core_id, src, nbytes)
    arrival = core.chip.noc.transfer(core.core_id, dst_core, nbytes, start)
    core.chip.deliver(core.core_id, dst_core, arrival, data)
    core.chip.acct.noc_transfer(
        core.chip.noc.energy_pj(nbytes, core.core_id, dst_core)
    )
    core.chip.acct.local_copy(nbytes)
    core.pc += 1


def _h_recv(core: Core, t) -> Optional[int]:
    rs, rt, rd = t[1], t[2], t[3]
    core._pending_recv = (core.regs[rs], core.regs[rt], core.regs[rd])
    # The chip scheduler completes the receive; pc advances there.
    return BLOCKED_RECV


def _h_sync(core: Core, t) -> None:
    core._issue("scalar", 1)
    core.pc += 1


def _h_cim_load(core: Core, t) -> None:
    rs, rt = t[1], t[2]
    mg = core.regs[rt]
    rows = core.sregs[int(SReg.MVM_ROWS)]
    cols = core.sregs[int(SReg.MVM_COLS)]
    if not 0 <= mg < len(core.mgs):
        raise SimulationError(f"core {core.core_id}: macro group {mg} out of range")
    if rows <= 0 or cols <= 0:
        raise SimulationError(
            f"core {core.core_id}: CIM_LOAD with rows={rows} cols={cols}"
        )
    nbytes = rows * cols
    # The register owns one int8 copy of its bytes: read() made it.
    data = core._mem().read(core.core_id, core.regs[rs], nbytes)
    core.mgs[mg] = (data.reshape(rows, cols), rows, cols)
    start, _ = core._issue("cim", rows + core._local_lat, deps=(rs, rt))
    core.chip.acct.cim_load(nbytes)
    core.pc += 1


def _h_cim_cfg(core: Core, t) -> None:
    rt = t[2]
    mg = core.regs[rt]
    rows = core.sregs[int(SReg.MVM_ROWS)]
    cols = core.sregs[int(SReg.MVM_COLS)]
    entry = core.mgs[mg]
    if entry is None:
        raise SimulationError(f"core {core.core_id}: CIM_CFG on empty MG {mg}")
    core.mgs[mg] = (entry[0], rows, cols)
    core._issue("cim", 1, deps=(rt,))
    core.pc += 1


def _h_cim_mvm(core: Core, t) -> None:
    rs, rt, re, flags = t[1], t[2], t[4], t[8]
    mg = core.regs[rt]
    entry = core.mgs[mg]
    if entry is None:
        raise SimulationError(
            f"core {core.core_id}: CIM_MVM on unloaded macro group {mg}"
        )
    matrix, rows, cols = entry
    mem = core._mem()
    vec = mem.read(core.core_id, core.regs[rs], rows)
    result = int_matmul(vec, matrix[:rows, :cols])
    out_addr = core.regs[re]
    if flags & 1:
        result += mem.read_i32(core.core_id, out_addr, cols)
    mem.write_i32(core.core_id, out_addr, result)
    core._issue(
        "cim", core._mvm_latency, occupancy=core._mvm_interval,
        deps=(rs, rt, re),
    )
    core.chip.acct.cim_mvm(rows, cols)
    core.pc += 1


def _vec_cost(core: Core, elements: int) -> int:
    return ceil_div(max(1, elements), core._lanes) + core._vec_depth


def _h_vec(core: Core, t) -> None:
    op, rs, rt, rd, re = t[0], t[1], t[2], t[3], t[4]
    n = core.regs[re]
    mem = core._mem()
    cid = core.core_id
    acct = core.chip.acct

    if op == Opcode.VEC_QNT:
        acc = mem.read_i32(cid, core.regs[rs], n)
        params = QuantParams(
            qmul=max(1, core.sregs[int(SReg.QMUL)]),
            qshift=core.sregs[int(SReg.QSHIFT)],
        )
        mem.write(cid, core.regs[rd], requantize(acc, params))
        acct.vector_op(n, 4 * n, n)
    elif op == Opcode.VEC_ADD32:
        a = mem.read_i32(cid, core.regs[rs], n)
        b = mem.read_i32(cid, core.regs[rt], n)
        mem.write_i32(cid, core.regs[rd], a + b)
        acct.vector_op(n, 8 * n, 4 * n)
    elif op == Opcode.VEC_ACC32:
        a = mem.read(cid, core.regs[rs], n).astype(np.int32)
        b = mem.read_i32(cid, core.regs[rd], n)
        mem.write_i32(cid, core.regs[rd], a + b)
        acct.vector_op(n, 5 * n, 4 * n)
    elif op == Opcode.VEC_FILL:
        value = core.sregs[int(SReg.FILL_VALUE)] & 0xFF
        signed = value - 256 if value >= 128 else value
        if t[7] == 4:  # funct=4 -> int32 fill
            mem.write_i32(cid, core.regs[rd], np.full(n, signed, dtype=np.int32))
            acct.vector_op(n, 0, 4 * n)
        else:
            mem.write(cid, core.regs[rd], np.full(n, signed, dtype=np.int8))
            acct.vector_op(n, 0, n)
    elif op == Opcode.VEC_CMUL:
        channels = core.sregs[int(SReg.CHANNEL_LEN)]
        if channels <= 0 or n % channels:
            raise SimulationError(
                f"core {cid}: VEC_CMUL length {n} not a multiple of "
                f"channel count {channels}"
            )
        x = mem.read(cid, core.regs[rs], n)
        scale = mem.read(cid, core.regs[rt], channels)
        tiled = np.tile(scale, n // channels)
        mem.write(cid, core.regs[rd], cmul_i8(x, tiled))
        acct.vector_op(n, 2 * n, n)
    else:
        a = mem.read(cid, core.regs[rs], n)
        if op == Opcode.VEC_RELU:
            out = np.maximum(a, 0).astype(np.int8)
        elif op == Opcode.VEC_RELU6:
            out = np.clip(a, 0, RELU6_CLIP).astype(np.int8)
        elif op == Opcode.VEC_SILU:
            out = apply_lut(a, SILU_LUT)
        elif op == Opcode.VEC_SIGMOID:
            out = apply_lut(a, SIGMOID_LUT)
        elif op == Opcode.VEC_COPY:
            out = a
        else:
            b = mem.read(cid, core.regs[rt], n).astype(np.int16)
            a16 = a.astype(np.int16)
            if op == Opcode.VEC_ADD:
                out = saturate_i8(a16 + b)
            elif op == Opcode.VEC_SUB:
                out = saturate_i8(a16 - b)
            elif op == Opcode.VEC_MUL:
                out = saturate_i8(a16 * b)
            elif op == Opcode.VEC_MAX:
                out = np.maximum(a16, b).astype(np.int8)
            elif op == Opcode.VEC_MIN:
                out = np.minimum(a16, b).astype(np.int8)
            else:  # pragma: no cover
                raise SimulationError(f"unhandled vector opcode {op:#x}")
        mem.write(cid, core.regs[rd], out)
        acct.vector_op(n, 2 * n, n)
    core._issue("vector", _vec_cost(core, n), deps=(rs, rt, rd, re))
    core.pc += 1


def _h_extension(core: Core, t) -> None:
    desc = t[9]
    latency = desc.latency or 1
    core._issue("vector" if desc.category is Category.VECTOR else "scalar",
                latency)
    if desc.energy_pj:
        core.chip.acct.add("vector", desc.energy_pj)
    handler = core.chip.extension_handlers.get(desc.mnemonic)
    if handler is not None:
        handler(core, t)
    core.pc += 1


def _build_dispatch():
    table = [_h_extension] * 64
    for op in (Opcode.SC_ADD, Opcode.SC_SUB, Opcode.SC_MUL, Opcode.SC_SLT,
               Opcode.SC_AND, Opcode.SC_OR, Opcode.SC_XOR, Opcode.SC_SLL,
               Opcode.SC_SRL):
        table[op] = _h_scalar2
    for op in (Opcode.SC_ADDI, Opcode.SC_MULI, Opcode.SC_SLTI):
        table[op] = _h_scalar_imm
    table[Opcode.SC_LUI] = _h_lui
    table[Opcode.SC_ORI] = _h_ori
    table[Opcode.SC_ADDIW] = _h_addiw
    table[Opcode.MV_G2S] = _h_mv_g2s
    table[Opcode.MV_S2G] = _h_mv_s2g
    table[Opcode.JMP] = _h_jmp
    for op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
        table[op] = _h_branch
    table[Opcode.NOP] = _h_nop
    table[Opcode.HALT] = _h_halt
    table[Opcode.BARRIER] = _h_barrier
    table[Opcode.MEM_CPY] = _h_mem_cpy
    table[Opcode.MEM_LD] = _h_mem_ld
    table[Opcode.MEM_ST] = _h_mem_st
    table[Opcode.MEM_GATHER] = _h_mem_gather
    table[Opcode.MEM_SCATTER] = _h_mem_scatter
    table[Opcode.SEND] = _h_send
    table[Opcode.RECV] = _h_recv
    table[Opcode.SYNC] = _h_sync
    table[Opcode.CIM_LOAD] = _h_cim_load
    table[Opcode.CIM_CFG] = _h_cim_cfg
    table[Opcode.CIM_MVM] = _h_cim_mvm
    for op in (Opcode.VEC_ADD, Opcode.VEC_SUB, Opcode.VEC_MUL, Opcode.VEC_MAX,
               Opcode.VEC_MIN, Opcode.VEC_RELU, Opcode.VEC_RELU6,
               Opcode.VEC_SILU, Opcode.VEC_SIGMOID, Opcode.VEC_COPY,
               Opcode.VEC_ADD32, Opcode.VEC_QNT, Opcode.VEC_ACC32,
               Opcode.VEC_FILL, Opcode.VEC_CMUL):
        table[op] = _h_vec
    return table


#: opcode -> handler; shared by every core.
_DISPATCH = _build_dispatch()
