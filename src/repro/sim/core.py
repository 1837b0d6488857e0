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
:class:`~repro.isa.Program` it decodes.  The handlers below also run
every instruction outside a compiled loop under the block engine
(:mod:`repro.sim.blockengine`).  Only ``HALT``, ``BARRIER``, ``RECV`` and
extension opcodes are written here.  Every other built-in opcode is
defined once, by the block engine's emitter
(``blockengine._emit_instr``): its handler is the rendering a compiled
block gets, with the operands read from the decoded tuple, compiled on
the opcode's first execution.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.isa import ISARegistry, Opcode, Program, SReg
from repro.isa.opcodes import BUILTIN_OPCODES, Category

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

    A program holds references to its registry's interned instructions,
    and the registry derives each one's tuple once
    (:meth:`ISARegistry.tuple_of`), so translation is one lookup per
    static instruction and programs share one tuple per distinct
    instruction (resnet18@64 dp emits 32 115 instructions, 1 177 of them
    distinct).  Memoised on the program object (appending drops the memo
    next to the other derived state), so every core and every repeated
    simulation of one compiled model decodes it once.
    """
    memo = program._translated
    if memo is not None and memo[0] is registry:
        return memo[1]
    if not program.finalized:
        program.finalize()
    code = tuple(map(registry.tuple_of, program.instructions))
    program._translated = (registry, code)
    return code


def runaway_error(core, max_instructions: int) -> SimulationError:
    """The error of a core that ran ``max_instructions`` instructions
    without blocking (the interpreter's and the block engine's alike)."""
    return SimulationError(
        f"core {core.core_id}: runaway execution "
        f"(> {max_instructions} instructions without blocking)"
    )


class Core:
    """One CIM core: register state, macro groups, pipeline timing."""

    def __init__(self, core_id: int, chip, program: Program):
        self.core_id = core_id
        self.chip = chip
        arch = chip.arch
        self.arch = arch
        self.registry = chip.registry
        mgs = arch.chip.core.cim_unit.num_macro_groups
        self.mgs: List[Optional[Tuple[np.ndarray, int, int]]] = [None] * mgs
        #: ``(local address, parameter offset, length)`` of the last copy
        #: of parameter bytes into this core's scratchpad: the hint a
        #: ``CIM_LOAD`` borrows its register by
        #: (``blockengine._cim_register``).
        self.staged: Optional[Tuple[int, int, int]] = None
        self.reset_for_program(program)
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
        #: Set by the chip when the hot-block engine is selected
        #: (see :mod:`repro.sim.blockengine`); None = interpreter.
        self._blockprog = None
        self.code = translate_program(program, self.registry)
        self.pc = 0
        self.clock = 0
        self.regs: List[int] = [0] * 32
        self.sregs: List[int] = [0] * 16
        self.sregs[int(SReg.CORE_ID)] = self.core_id
        self.sregs[int(SReg.NUM_CORES)] = self.arch.chip.num_cores
        self.reg_ready: List[int] = [0] * 32
        self.unit_free: Dict[str, int] = {u: 0 for u in _UNITS}
        self.busy: Dict[str, int] = {u: 0 for u in _UNITS}
        self.state = RUNNING
        self.instructions_retired = 0
        self._pending_recv: Optional[Tuple[int, int, int]] = None

    # -- helpers ----------------------------------------------------------
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
                raise runaway_error(self, max_instructions)
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

def _h_halt(core: Core, t) -> int:
    core.pc += 1
    return HALTED


def _h_barrier(core: Core, t) -> int:
    core.pc += 1
    return BLOCKED_BARRIER


def _h_recv(core: Core, t) -> Optional[int]:
    rs, rt, rd = t[1], t[2], t[3]
    core._pending_recv = (core.regs[rs], core.regs[rt], core.regs[rd])
    # The chip scheduler completes the receive; pc advances there.
    return BLOCKED_RECV


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


def _rendered(op: int):
    """A stub for ``op`` that installs the compiled handler on first call."""
    def first_call(core: Core, t):
        from repro.sim.blockengine import compile_handler

        handler = _DISPATCH[op] = compile_handler(op)
        return handler(core, t)

    return first_call


def _build_dispatch():
    table = [_h_extension] * 64
    for op in BUILTIN_OPCODES:
        table[op] = _rendered(op)
    table[Opcode.HALT] = _h_halt
    table[Opcode.BARRIER] = _h_barrier
    table[Opcode.RECV] = _h_recv
    return table


#: opcode -> handler; shared by every core.
_DISPATCH = _build_dispatch()
