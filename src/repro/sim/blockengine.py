"""Hot-block execution engine: specialised superblocks + vectorized replay.

The per-instruction interpreter in :mod:`repro.sim.core` pays Python
dispatch, dict lookups and small-array NumPy call overhead for every
dynamic instruction.  This module removes that overhead in two stages
while keeping results **bit-identical** (the exactness contract the
engine-equivalence tests enforce):

1. **Tiered superblock specialisation.**  Translated programs are
   partitioned into maximal straight-line blocks (leaders at branch
   targets and after control transfers).  A block can be compiled --
   once per *shape*, the sequence of opcodes and register fields with
   immediates lifted into a constants tuple -- into a specialised Python
   function with the pipeline-timing model, memory fast paths and
   integer energy tallies inlined; structurally identical blocks (the
   same unrolled row body on every core, for instance) share one code
   object through the shape cache, and per-instance constants
   (addresses, immediates, branch targets) are passed as a tuple.
   ``compile()`` costs some twenty-five executions' worth of the time it
   saves, so only heat buys it.  Blocks ending in a backward conditional
   branch to their own first instruction are *loop blocks*: they are
   compiled at discovery and iterate inside the generated function, so a
   counted loop executes with no per-iteration dispatch at all.  A
   straight-line block starts *cold* -- its table entry holds the code
   slice, the terminator and a run counter, and the trampoline executes
   it through the interpreter's own handlers -- and is compiled the
   first time it is entered after :data:`_HOT_RUNS` executions.  The
   counter lives with the block in the content-addressed block-program
   cache, so a serving session that rebuilds its simulator per input is
   promoted after its first inputs and stays compiled, while a one-shot
   run never compiles a block it executes once.

2. **Batched loop replay.**  A loop block whose body is affine -- every
   register evolves by a constant per-iteration step, lengths and special
   registers are loop-invariant, and all touched memory is core-local --
   reaches a *steady state* after a few warm-up iterations: the full
   timing vector (clock, unit-free times, register-ready times, busy and
   energy tallies) advances by the same delta every iteration.  The
   engine detects this empirically (two consecutive equal delta vectors,
   plus a deadness check that any non-advancing timing component already
   lies in the past), computes the remaining trip count in closed form,
   replays the *dataflow* of all remaining iterations with batched NumPy
   operations (one strided gather per copy, one ``(M, rows) @ matrix``
   product per MVM site, one vectorised requantise per epilogue), and
   advances the architectural state by ``M * delta``.  Integer timing and
   integer energy tallies make the closed form exact, and NumPy integer
   arithmetic is associative modulo 2**32, so the batched replay is
   bit-identical to per-iteration execution.

Loops whose bodies *stream from global memory* (a weight-streaming pass:
``MEM_CPY`` from the global image, ``CIM_LOAD``, ``CIM_MVM``) batch too:
the warm-up iterations record the body's NoC transactions through
:attr:`repro.sim.noc.NoC.trace`, the planner cross-checks them against
the planned global copies, and the remaining iterations are replayed
iteration-major through :meth:`repro.sim.noc.NoC.replay_affine` -- a
pure probe proves every touched link advances steadily, closed-form
arithmetic commits the reservations, and the per-message float energies
are re-added in stepped order so the accumulator stays bit-identical.
A contention window the probe cannot prove steady refuses the batch
(``noc_batch_contention_bailouts``) and the loop steps instead.

``RECV``/``BARRIER``/``HALT``, extension opcodes and anything else the
code generator does not support end a block and fall back to the
interpreter's handlers one instruction at a time
(``fallback_instructions``; cold blocks are counted apart, as
``cold_block_instructions``); loops that *write*
global memory or send core-to-core messages (order-sensitive against
other cores) execute inside the generated function but are never
batched.  Engine selection is ``REPRO_SIM_ENGINE`` (``block``, the
default, or ``interp`` for the legacy interpreter).
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config.arch import GLOBAL_BASE
from repro.errors import SimulationError
from repro.graph.quantize import (
    RELU6_CLIP,
    SIGMOID_LUT,
    SILU_LUT,
    QuantParams,
    apply_lut,
    cmul_i8,
    int_matmul,
    requantize,
    saturate_i8,
)
from repro.isa import Opcode
from repro.sim.noc import GLOBAL_PORT

Op = Opcode

#: Units in the order used by timing snapshots (matches core._UNITS).
_UNITS = ("scalar", "vector", "cim", "mem", "xfer")

#: Opcodes that end a block and are executed by the trampoline/scheduler.
_EXIT_OPS = frozenset({int(Op.RECV), int(Op.BARRIER), int(Op.HALT)})

_BRANCH_OPS = frozenset({int(Op.BEQ), int(Op.BNE), int(Op.BLT), int(Op.BGE)})

_SCALAR2_OPS = frozenset({
    int(Op.SC_ADD), int(Op.SC_SUB), int(Op.SC_MUL), int(Op.SC_SLT),
    int(Op.SC_AND), int(Op.SC_OR), int(Op.SC_XOR), int(Op.SC_SLL),
    int(Op.SC_SRL),
})

_VEC_OPS = frozenset({
    int(Op.VEC_ADD), int(Op.VEC_SUB), int(Op.VEC_MUL), int(Op.VEC_MAX),
    int(Op.VEC_MIN), int(Op.VEC_RELU), int(Op.VEC_RELU6), int(Op.VEC_SILU),
    int(Op.VEC_SIGMOID), int(Op.VEC_COPY), int(Op.VEC_ADD32),
    int(Op.VEC_QNT), int(Op.VEC_ACC32), int(Op.VEC_FILL), int(Op.VEC_CMUL),
})

#: Everything the code generator can compile.
_SUPPORTED = (
    _SCALAR2_OPS | _VEC_OPS | _BRANCH_OPS
    | frozenset({
        int(Op.SC_ADDI), int(Op.SC_MULI), int(Op.SC_SLTI), int(Op.SC_LUI),
        int(Op.SC_ORI), int(Op.SC_ADDIW), int(Op.MV_G2S), int(Op.MV_S2G),
        int(Op.JMP), int(Op.NOP), int(Op.SYNC),
        int(Op.MEM_CPY), int(Op.MEM_LD), int(Op.MEM_ST),
        int(Op.MEM_GATHER), int(Op.MEM_SCATTER), int(Op.SEND),
        int(Op.CIM_LOAD), int(Op.CIM_CFG), int(Op.CIM_MVM),
    })
)

#: Opcodes eligible for batched loop replay (a strict subset: no sends,
#: no global-memory writes, no register-load operations).
_BATCHABLE = (
    _SCALAR2_OPS | _VEC_OPS
    | frozenset({
        int(Op.SC_ADDI), int(Op.SC_MULI), int(Op.SC_SLTI), int(Op.SC_LUI),
        int(Op.SC_ORI), int(Op.SC_ADDIW), int(Op.MV_G2S), int(Op.MV_S2G),
        int(Op.NOP), int(Op.SYNC),
        int(Op.MEM_CPY), int(Op.MEM_GATHER), int(Op.CIM_LOAD),
        int(Op.CIM_MVM),
    })
)

#: Do not bother batching loops expected to run fewer iterations.
_MIN_BATCH = 4

#: Give up batching a loop instance after this many failed plans.
_MAX_BATCH_FAILS = 3

#: Cheap engine counters (reset with :func:`reset_stats`); the perf
#: harness reports them alongside wall-clock numbers.
ENGINE_STATS = {
    "fallback_instructions": 0,   # blocking/unsupported op, via its handler
    "cold_block_instructions": 0,  # straight-line blocks interpreted cold
    "block_promotions": 0,         # cold blocks compiled on reaching heat
    "loop_entries": 0,
    "loop_iterations_stepped": 0,  # executed one iteration at a time
    "loop_iterations_batched": 0,  # replayed in closed form
    "batch_attempts": 0,
    "batch_successes": 0,
    "template_builds": 0,          # symbolic plan templates constructed
    "template_hits": 0,            # batch plans instantiated from a template
    "template_misfits": 0,         # cached template's guards rejected an entry
    "noc_batch_attempts": 0,       # batch attempts on NoC-touching loops
    "noc_batch_successes": 0,      # NoC windows replayed iteration-major
    "noc_batch_contention_bailouts": 0,  # replay refused: link not steady
    "resident_load_runs": 0,       # per-shard weight-load segments executed
    "resident_warm_runs": 0,       # per-shard warm (load-free) input replays
}


def reset_stats() -> None:
    for key in ENGINE_STATS:
        ENGINE_STATS[key] = 0


# ---------------------------------------------------------------------------
# runtime helpers shared with generated code
# ---------------------------------------------------------------------------

def _copy_energy(core, nbytes, src_g, dst_g, start):
    """Exact mirror of ``Core._charge_copy_energy``."""
    chip = core.chip
    acct = chip.acct
    if src_g or dst_g:
        acct.global_access(nbytes)
        acct.local_copy(nbytes)
        a = GLOBAL_PORT if src_g else core.core_id
        b = core.core_id if src_g else GLOBAL_PORT
        chip.noc.transfer(a, b, nbytes, start)
        acct.noc_transfer(chip.noc.energy_pj(nbytes, a, b))
    else:
        acct.local_copy(nbytes)


def _global_copy(core, src, dst, nbytes, start):
    """Functional + energy half of a MEM_CPY touching global memory."""
    mem = core.chip.memory
    data = mem.read(core.core_id, src, nbytes)
    mem.write(core.core_id, dst, data)
    _copy_energy(core, nbytes, src >= GLOBAL_BASE, dst >= GLOBAL_BASE, start)


_GIDX_CACHE: Dict[Tuple[int, int, int], np.ndarray] = {}


def _gidx(count: int, chunk: int, stride: int) -> np.ndarray:
    """Memoised gather/scatter index pattern (same values as the
    interpreter's ``_gather_indices``)."""
    key = (count, chunk, stride)
    idx = _GIDX_CACHE.get(key)
    if idx is None:
        if len(_GIDX_CACHE) > 512:
            _GIDX_CACHE.clear()
        idx = (
            np.arange(count, dtype=np.int64)[:, None] * stride
            + np.arange(chunk, dtype=np.int64)[None, :]
        ).reshape(-1)
        _GIDX_CACHE[key] = idx
    return idx


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------

class _Emit:
    """Accumulates the source of one specialised block function."""

    def __init__(self):
        self.lines: List[str] = []
        self.units = set()
        self.dep_regs = set()
        self.uses = set()   # feature flags: mem, cost, vec, cim, send, sregs
        self.has_scalar_tally = False
        self.tallies = set()

    def w(self, line: str) -> None:
        self.lines.append(line)

    def issue(self, unit: str, lat: str, occ: Optional[str] = None,
              deps: Tuple[int, ...] = ()) -> None:
        """Inline ``Core._issue``: leaves the start cycle in ``_t``."""
        u = unit[0]
        self.units.add(unit)
        self.w(f"_t = f_{u} if f_{u} > clk else clk")
        seen = set()
        for reg in deps:
            if reg == 0 or reg in seen:
                continue
            seen.add(reg)
            self.dep_regs.add(reg)
            self.w(f"_dp = rr[{reg}]")
            self.w("if _dp > _t: _t = _dp")
        occ = lat if occ is None else occ
        self.w(f"f_{u} = _t + {occ}")
        self.w(f"b_{u} += {occ}")
        self.w("clk = _t + 1")

    def scalar_tally(self) -> None:
        self.has_scalar_tally = True
        self.w("ns += 1")

    def write_reg(self, reg: int, value: str, ready: str) -> None:
        if reg != 0:
            self.w(f"r[{reg}] = {value}")
            self.w(f"rr[{reg}] = {ready}")


def _emit_instr(em: _Emit, i: int, t: Tuple) -> None:
    """Emit the exact equivalent of the interpreter handler for ``t``.

    ``C[2*i]`` is the instruction's ``imm`` field, ``C[2*i + 1]`` its
    ``offset`` field; everything else is baked into the source.
    """
    op, rs, rt, rd, re, _, _, funct, flags = (
        t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7], t[8]
    )
    imm = f"C[{2 * i}]"
    off = f"C[{2 * i + 1}]"

    if op in _SCALAR2_OPS:
        a, b = f"r[{rs}]", f"r[{rt}]"
        expr = {
            int(Op.SC_ADD): f"{a} + {b}",
            int(Op.SC_SUB): f"{a} - {b}",
            int(Op.SC_MUL): f"{a} * {b}",
            int(Op.SC_SLT): f"1 if {a} < {b} else 0",
            int(Op.SC_AND): f"{a} & {b}",
            int(Op.SC_OR): f"{a} | {b}",
            int(Op.SC_XOR): f"{a} ^ {b}",
            int(Op.SC_SLL): f"{a} << ({b} & 31)",
            int(Op.SC_SRL): f"({a} & 0xFFFFFFFF) >> ({b} & 31)",
        }[op]
        em.w(f"_v = {expr}")
        em.issue("scalar", "1", deps=(rs, rt))
        em.write_reg(rd, "_v", "_t + 1")
        em.scalar_tally()
    elif op in (int(Op.SC_ADDI), int(Op.SC_MULI), int(Op.SC_SLTI)):
        a = f"r[{rs}]"
        expr = {
            int(Op.SC_ADDI): f"{a} + {imm}",
            int(Op.SC_MULI): f"{a} * {imm}",
            int(Op.SC_SLTI): f"1 if {a} < {imm} else 0",
        }[op]
        em.w(f"_v = {expr}")
        em.issue("scalar", "1", deps=(rs,))
        em.write_reg(rt, "_v", "_t + 1")
        em.scalar_tally()
    elif op == int(Op.SC_LUI):
        em.issue("scalar", "1")
        em.write_reg(rt, f"({off} & 0xFFFF) << 16", "_t + 1")
        em.scalar_tally()
    elif op == int(Op.SC_ORI):
        em.issue("scalar", "1", deps=(rs,))
        em.write_reg(rt, f"r[{rs}] | ({off} & 0xFFFF)", "_t + 1")
        em.scalar_tally()
    elif op == int(Op.SC_ADDIW):
        em.issue("scalar", "1", deps=(rs,))
        em.write_reg(rt, f"r[{rs}] + {off}", "_t + 1")
        em.scalar_tally()
    elif op == int(Op.MV_G2S):
        em.uses.add("sregs")
        em.issue("scalar", "1", deps=(rs,))
        em.w(f"_i = {imm}")
        em.w("if not 0 <= _i < len(s): "
             "raise SimulationError(f\"core {cid}: bad S_Reg index {_i}\")")
        em.w(f"s[_i] = r[{rs}]")
        em.scalar_tally()
    elif op == int(Op.MV_S2G):
        em.uses.add("sregs")
        em.issue("scalar", "1")
        em.write_reg(rt, f"s[{imm}]", "_t + 1")
        em.scalar_tally()
    elif op in (int(Op.NOP), int(Op.SYNC)):
        em.issue("scalar", "1")
    elif op == int(Op.MEM_CPY):
        em.uses.update(("mem", "cost"))
        em.w(f"_a = r[{rs}]")
        em.w(f"_b = r[{rt}] + {off}")
        em.w(f"_n = r[{rd}]")
        em.w("_m = _n if _n > 0 else 1")
        em.w("_c = (_m + LBW - 1) // LBW + LLT")
        em.w("if _a >= GB or _b >= GB:")
        em.w("    _g = (_m + GBW - 1) // GBW + GLT")
        em.w("    if _g > _c: _c = _g")
        em.issue("mem", "_c", deps=(rs, rt, rd))
        em.w("if _a >= GB or _b >= GB:")
        em.w("    _gc(core, _a, _b, _n, _t)")
        em.w("elif 0 <= _a and _a + _n <= LSZ and 0 <= _b and _b + _n <= LSZ:")
        em.w("    if _a + _n <= _b or _b + _n <= _a or _a == _b:")
        em.w("        lm[_b:_b + _n] = lm[_a:_a + _n]")
        em.w("    else:")
        em.w("        lm[_b:_b + _n] = lm[_a:_a + _n].copy()")
        em.w("    t_lr += _n; t_lw += _n")
        em.w("else:")
        em.w("    mem.write(cid, _b, mem.read(cid, _a, _n))")
        em.w("    t_lr += _n; t_lw += _n")
        em.tallies.update(("t_lr", "t_lw"))
    elif op == int(Op.MEM_LD):
        em.uses.update(("mem", "cost"))
        em.w(f"_a = r[{rs}] + {off}")
        em.w("_sg = _a >= GB")
        em.w("_c = (4 + LBW - 1) // LBW + LLT")
        em.w("if _sg:")
        em.w("    _g = (4 + GBW - 1) // GBW + GLT")
        em.w("    if _g > _c: _c = _g")
        em.issue("mem", "_c", deps=(rs,))
        em.w("_v = mem.read_word(cid, _a)")
        em.write_reg(rt, "_v", "_t + _c")
        em.w("_ce(core, 4, _sg, False, _t)")
    elif op == int(Op.MEM_ST):
        em.uses.update(("mem", "cost"))
        em.w(f"_a = r[{rs}] + {off}")
        em.w("_dg = _a >= GB")
        em.w("_c = (4 + LBW - 1) // LBW + LLT")
        em.w("if _dg:")
        em.w("    _g = (4 + GBW - 1) // GBW + GLT")
        em.w("    if _g > _c: _c = _g")
        em.issue("mem", "_c", deps=(rs, rt))
        em.w(f"mem.write_word(cid, _a, r[{rt}])")
        em.w("_ce(core, 4, False, _dg, _t)")
    elif op in (int(Op.MEM_GATHER), int(Op.MEM_SCATTER)):
        kind = "gather" if op == int(Op.MEM_GATHER) else "scatter"
        em.uses.update(("mem", "cost", "sregs"))
        em.w(f"_n = r[{rd}]")
        em.w("_ck = s[13]")
        em.w("_st = s[7]")
        em.w("if _ck <= 0 or _st <= 0 or _n < 0: "
             "raise SimulationError("
             f"f\"core {{cid}}: bad {kind} chunk={{_ck}} stride={{_st}}\")")
        em.w(f"_a = r[{rs}]")
        em.w(f"_b = r[{rt}]")
        em.w("_sp = (_n - 1) * _st + _ck if _n else 0")
        em.w("_nb = _n * _ck")
        em.w("_sg = _a >= GB")
        em.w("_dg = _b >= GB")
        em.w("_m = _nb if _nb > 0 else 1")
        em.w("_c = (_m + LBW - 1) // LBW + LLT")
        em.w("if _sg or _dg:")
        em.w("    _g = (_m + GBW - 1) // GBW + GLT")
        em.w("    if _g > _c: _c = _g")
        em.w("_c += _n")
        em.issue("mem", "_c", deps=(rs, rt, rd))
        em.w("if _n:")
        if op == int(Op.MEM_GATHER):
            em.w("    _w = mem.read(cid, _a, _sp)")
            em.w("    mem.write(cid, _b, _w[_gidx(_n, _ck, _st)])")
        else:
            em.w("    _x = mem.read(cid, _a, _nb)")
            em.w("    _w = mem.read(cid, _b, _sp)")
            em.w("    _w[_gidx(_n, _ck, _st)] = _x")
            em.w("    mem.write(cid, _b, _w)")
        em.w("_ce(core, _nb, _sg, _dg, _t)")
    elif op == int(Op.SEND):
        em.uses.update(("mem", "send"))
        em.w(f"_a = r[{rs}]")
        em.w(f"_d = r[{rt}]")
        em.w(f"_n = r[{rd}]")
        em.w("_m = _n if _n > 0 else 1")
        em.w("_c = (_m + FLT - 1) // FLT")
        em.issue("xfer", "_c", deps=(rs, rt, rd))
        em.w("if 0 <= _a and _a + _n <= LSZ:")
        em.w("    _x = lm[_a:_a + _n].copy()")
        em.w("else:")
        em.w("    _x = mem.read(cid, _a, _n)")
        em.w("_v = noc.transfer(cid, _d, _n, _t)")
        em.w("chip.deliver(cid, _d, _v, _x)")
        em.w("acct.noc_transfer(noc.energy_pj(_n, cid, _d))")
        em.w("t_lr += _n; t_lw += _n")
        em.tallies.update(("t_lr", "t_lw"))
    elif op == int(Op.CIM_LOAD):
        em.uses.update(("mem", "cim", "sregs"))
        em.w(f"_g = r[{rt}]")
        em.w("_rw = s[2]")
        em.w("_cl = s[3]")
        em.w("if not 0 <= _g < len(mgs): raise SimulationError("
             "f\"core {cid}: macro group {_g} out of range\")")
        em.w("if _rw <= 0 or _cl <= 0: raise SimulationError("
             "f\"core {cid}: CIM_LOAD with rows={_rw} cols={_cl}\")")
        em.w("_n = _rw * _cl")
        em.w(f"_a = r[{rs}]")
        # The register owns one int8 copy: the scratchpad slice is a view
        # (later stores would rewrite the loaded weights), read() copies.
        em.w("if 0 <= _a and _a + _n <= LSZ:")
        em.w("    _x = lm[_a:_a + _n].copy()")
        em.w("else:")
        em.w("    _x = mem.read(cid, _a, _n)")
        em.w("mgs[_g] = (_x.reshape(_rw, _cl), _rw, _cl)")
        em.issue("cim", "_rw + LLT", deps=(rs, rt))
        em.w("t_clb += _n; t_lr += _n")
        em.tallies.update(("t_clb", "t_lr"))
    elif op == int(Op.CIM_CFG):
        em.uses.update(("cim", "sregs"))
        em.w(f"_g = r[{rt}]")
        em.w("_rw = s[2]")
        em.w("_cl = s[3]")
        em.w("_e = mgs[_g]")
        em.w("if _e is None: raise SimulationError("
             "f\"core {cid}: CIM_CFG on empty MG {_g}\")")
        em.w("mgs[_g] = (_e[0], _rw, _cl)")
        em.issue("cim", "1", deps=(rt,))
    elif op == int(Op.CIM_MVM):
        em.uses.update(("mem", "cim"))
        em.w(f"_g = r[{rt}]")
        em.w("_e = mgs[_g]")
        em.w("if _e is None: raise SimulationError("
             "f\"core {cid}: CIM_MVM on unloaded macro group {_g}\")")
        em.w("_w, _rw, _cl = _e")
        em.w(f"_a = r[{rs}]")
        em.w("if 0 <= _a and _a + _rw <= LSZ:")
        em.w("    _x = lm[_a:_a + _rw]")
        em.w("else:")
        em.w("    _x = mem.read(cid, _a, _rw)")
        em.w("_v = int_matmul(_x, _w[:_rw, :_cl])")
        em.w(f"_o = r[{re}]")
        if flags & 1:
            em.w("_n4 = 4 * _cl")
            em.w("if 0 <= _o and _o + _n4 <= LSZ:")
            em.w("    _v += lm[_o:_o + _n4].view(np.int32)")
            em.w("else:")
            em.w("    _v += mem.read_i32(cid, _o, _cl)")
        # int_matmul returns a fresh C-contiguous int32 array, so it is
        # stored through a byte view with no further cast or copy.
        em.w("if 0 <= _o and _o + 4 * _cl <= LSZ:")
        em.w("    lm[_o:_o + 4 * _cl] = _v.view(np.int8)")
        em.w("else:")
        em.w("    mem.write_i32(cid, _o, _v)")
        em.issue("cim", "MVL", occ="MVI", deps=(rs, rt, re))
        em.w("t_mac += _rw * _cl; t_mvr += _rw; t_mvb += 4 * _cl")
        em.w("t_lr += _rw; t_lw += 4 * _cl")
        em.tallies.update(("t_mac", "t_mvr", "t_mvb", "t_lr", "t_lw"))
    elif op in _VEC_OPS:
        _emit_vec(em, op, rs, rt, rd, re, funct)
    elif op == int(Op.JMP):
        em.issue("scalar", "1")
    elif op in _BRANCH_OPS:
        a, b = f"r[{rs}]", f"r[{rt}]"
        cond = {
            int(Op.BEQ): f"{a} == {b}",
            int(Op.BNE): f"{a} != {b}",
            int(Op.BLT): f"{a} < {b}",
            int(Op.BGE): f"{a} >= {b}",
        }[op]
        em.w(f"_v = {cond}")
        em.issue("scalar", "1", deps=(rs, rt))
        em.scalar_tally()
    else:  # pragma: no cover - discovery never compiles these
        raise AssertionError(f"cannot compile opcode {op:#x}")


def _emit_vec(em: _Emit, op: int, rs: int, rt: int, rd: int, re: int,
              funct: int) -> None:
    """Mirror of ``core._h_vec`` for one concrete vector opcode."""
    em.uses.update(("mem", "vec"))

    def read8(reg: int, n: str, out: str, copy: bool = False) -> None:
        em.w(f"_a = r[{reg}]")
        em.w(f"if 0 <= _a and _a + {n} <= LSZ:")
        em.w(f"    {out} = lm[_a:_a + {n}]{'.copy()' if copy else ''}")
        em.w("else:")
        em.w(f"    {out} = mem.read(cid, _a, {n})")

    def read32(reg: int, n: str, out: str) -> None:
        em.w(f"_a = r[{reg}]")
        em.w(f"if 0 <= _a and _a + 4 * {n} <= LSZ:")
        em.w(f"    {out} = lm[_a:_a + 4 * {n}].view(np.int32)")
        em.w("else:")
        em.w(f"    {out} = mem.read_i32(cid, _a, {n})")

    def write8(reg: int, n: str, value: str) -> None:
        em.w(f"_o = r[{reg}]")
        em.w(f"if 0 <= _o and _o + {n} <= LSZ:")
        em.w(f"    lm[_o:_o + {n}] = {value}")
        em.w("else:")
        em.w(f"    mem.write(cid, _o, {value})")

    def write32(reg: int, n: str, value: str) -> None:
        em.w(f"_o = r[{reg}]")
        em.w(f"if 0 <= _o and _o + 4 * {n} <= LSZ:")
        em.w(f"    lm[_o:_o + 4 * {n}] = {value}.view(np.int8)")
        em.w("else:")
        em.w(f"    mem.write_i32(cid, _o, {value})")

    def energy(elems: str, br: str, bw: str) -> None:
        em.w(f"t_ve += {elems}; t_lr += {br}; t_lw += {bw}")
        em.tallies.update(("t_ve", "t_lr", "t_lw"))

    em.w(f"_n = r[{re}]")
    if op == int(Op.VEC_QNT):
        em.uses.add("sregs")
        read32(rs, "_n", "_x")
        em.w("_q = s[4]")
        em.w("if _q < 1: _q = 1")
        em.w("_y = requantize(_x, QuantParams(qmul=_q, qshift=s[5]))")
        write8(rd, "_n", "_y")
        energy("_n", "4 * _n", "_n")
    elif op == int(Op.VEC_ADD32):
        read32(rs, "_n", "_x")
        read32(rt, "_n", "_b")
        em.w("_y = _x + _b")
        write32(rd, "_n", "_y")
        energy("_n", "8 * _n", "4 * _n")
    elif op == int(Op.VEC_ACC32):
        read8(rs, "_n", "_x")
        em.w("_x = _x.astype(np.int32)")
        read32(rd, "_n", "_b")
        em.w("_y = _x + _b")
        write32(rd, "_n", "_y")
        energy("_n", "5 * _n", "4 * _n")
    elif op == int(Op.VEC_FILL):
        em.uses.add("sregs")
        em.w("_f = s[6] & 0xFF")
        em.w("_f = _f - 256 if _f >= 128 else _f")
        if funct == 4:
            em.w("_y = np.full(_n, _f, dtype=np.int32)")
            write32(rd, "_n", "_y")
            energy("_n", "0", "4 * _n")
        else:
            em.w("_y = np.full(_n, _f, dtype=np.int8)")
            write8(rd, "_n", "_y")
            energy("_n", "0", "_n")
    elif op == int(Op.VEC_CMUL):
        em.uses.add("sregs")
        em.w("_ch = s[12]")
        em.w("if _ch <= 0 or _n % _ch: raise SimulationError("
             "f\"core {cid}: VEC_CMUL length {_n} not a multiple of "
             "channel count {_ch}\")")
        read8(rs, "_n", "_x")
        read8(rt, "_ch", "_b")
        em.w("_y = cmul_i8(_x, np.tile(_b, _n // _ch))")
        write8(rd, "_n", "_y")
        energy("_n", "2 * _n", "_n")
    else:
        copy = op == int(Op.VEC_COPY)
        read8(rs, "_n", "_x", copy=copy)
        if op == int(Op.VEC_RELU):
            em.w("_y = np.maximum(_x, 0).astype(np.int8)")
        elif op == int(Op.VEC_RELU6):
            em.w("_y = np.clip(_x, 0, RELU6_CLIP).astype(np.int8)")
        elif op == int(Op.VEC_SILU):
            em.w("_y = apply_lut(_x, SILU_LUT)")
        elif op == int(Op.VEC_SIGMOID):
            em.w("_y = apply_lut(_x, SIGMOID_LUT)")
        elif op == int(Op.VEC_COPY):
            em.w("_y = _x")
        else:
            read8(rt, "_n", "_b")
            if op == int(Op.VEC_MAX):
                # max/min of int8 cannot overflow: same bits, no widening.
                em.w("_y = np.maximum(_x, _b)")
            elif op == int(Op.VEC_MIN):
                em.w("_y = np.minimum(_x, _b)")
            else:
                em.w("_b = _b.astype(np.int16)")
                em.w("_x16 = _x.astype(np.int16)")
                if op == int(Op.VEC_ADD):
                    em.w("_y = saturate_i8(_x16 + _b)")
                elif op == int(Op.VEC_SUB):
                    em.w("_y = saturate_i8(_x16 - _b)")
                else:
                    em.w("_y = saturate_i8(_x16 * _b)")
        write8(rd, "_n", "_y")
        energy("_n", "2 * _n", "_n")
    em.issue("vector", "(( _n if _n > 0 else 1) + LAN - 1) // LAN + VDP",
             deps=(rs, rt, rd, re))


def _build_source(shape: Tuple) -> Tuple[str, set, set, set]:
    """Generate the function source for one block shape.

    Returns (source, used units, dep registers, feature uses).
    """
    instrs, kind, term = shape
    em = _Emit()
    for i, t in enumerate(instrs):
        _emit_instr(em, i, t)

    length = len(instrs)
    tail = len(instrs) * 2        # C[tail] = fall pc, C[tail + 1] = target pc

    head: List[str] = []
    if kind == "loop":
        head.append("def _block(core, C, max_iter):")
    else:
        head.append("def _block(core, C):")
    body: List[str] = []
    body.append("r = core.regs")
    body.append("rr = core.reg_ready")
    body.append("clk = core.clock")
    body.append("acct = core.chip.acct")
    body.append("ni = 0")
    uf_needed = sorted(em.units)
    for unit in uf_needed:
        u = unit[0]
        body.append(f"f_{u} = core.unit_free['{unit}']")
        body.append(f"b_{u} = 0")
    if em.has_scalar_tally:
        body.append("ns = 0")
    if "sregs" in em.uses:
        body.append("s = core.sregs")
    if "mem" in em.uses:
        body.append("cid = core.core_id")
        body.append("mem = core.chip.memory")
        body.append("lm = mem.locals[cid]")
        body.append("LSZ = mem.local_size")
    if "cost" in em.uses:
        body.append("LBW = core._local_bw")
        body.append("LLT = core._local_lat")
        body.append("GBW = core._glb_bw")
        body.append("GLT = core._glb_lat")
    if "cim" in em.uses:
        body.append("mgs = core.mgs")
        body.append("MVL = core._mvm_latency")
        body.append("MVI = core._mvm_interval")
        if "cost" not in em.uses:
            body.append("LLT = core._local_lat")
    if "vec" in em.uses:
        body.append("LAN = core._lanes")
        body.append("VDP = core._vec_depth")
    if "send" in em.uses:
        body.append("chip = core.chip")
        body.append("noc = chip.noc")
        body.append("FLT = noc.flit_bytes")
    for tally in sorted(em.tallies):
        body.append(f"{tally} = 0")

    code_lines: List[str] = []
    if kind == "loop":
        code_lines.append("_it = 0")
        code_lines.append("_ex = False")
        code_lines.append("while True:")
        inner = ["    " + ln for ln in em.lines]
        code_lines.extend(inner)
        code_lines.append(f"    ni += {length}")
        code_lines.append("    if not _v:")
        code_lines.append("        _ex = True")
        code_lines.append("        break")
        code_lines.append("    _it += 1")
        code_lines.append("    if _it >= max_iter:")
        code_lines.append("        break")
    else:
        code_lines.extend(em.lines)
        code_lines.append(f"ni += {length}")

    epi: List[str] = []
    epi.append("core.clock = clk")
    if uf_needed:
        epi.append("uf = core.unit_free")
        epi.append("bz = core.busy")
        for unit in uf_needed:
            u = unit[0]
            epi.append(f"uf['{unit}'] = f_{u}")
            epi.append(f"bz['{unit}'] += b_{u}")
    epi.append("acct.n_instructions += ni")
    if em.has_scalar_tally:
        epi.append("acct.n_scalar_ops += ns")
    tally_field = {
        "t_lr": "local_bytes_read", "t_lw": "local_bytes_written",
        "t_mac": "macs", "t_mvr": "mvm_rows", "t_mvb": "mvm_result_bytes",
        "t_clb": "cim_load_bytes", "t_ve": "vec_elements",
    }
    for tally in sorted(em.tallies):
        epi.append(f"acct.{tally_field[tally]} += {tally}")
    epi.append("core.instructions_retired += ni")
    if kind == "loop":
        epi.append("return _ex")
    elif term == "branch":
        epi.append(f"return C[{tail + 1}] if _v else C[{tail}]")
    elif term == "jmp":
        epi.append(f"return C[{tail + 1}]")
    else:
        epi.append(f"return C[{tail}]")

    source = "\n".join(
        head + ["    " + ln for ln in body + code_lines + epi]
    )
    return source, em.units, em.dep_regs, em.uses


_EXEC_GLOBALS = {
    "np": np,
    "SimulationError": SimulationError,
    "QuantParams": QuantParams,
    "requantize": requantize,
    "int_matmul": int_matmul,
    "saturate_i8": saturate_i8,
    "apply_lut": apply_lut,
    "cmul_i8": cmul_i8,
    "SILU_LUT": SILU_LUT,
    "SIGMOID_LUT": SIGMOID_LUT,
    "RELU6_CLIP": RELU6_CLIP,
    "GB": GLOBAL_BASE,
    "_ce": _copy_energy,
    "_gc": _global_copy,
    "_gidx": _gidx,
}

#: shape key -> (function, used units, dep regs)
_SHAPE_CACHE: Dict[Tuple, Tuple] = {}


def _compile_shape(shape: Tuple):
    entry = _SHAPE_CACHE.get(shape)
    if entry is None:
        if len(_SHAPE_CACHE) > 2048:
            _SHAPE_CACHE.clear()
        source, units, dep_regs, _ = _build_source(shape)
        namespace: Dict = {}
        exec(compile(source, "<blockengine>", "exec"), _EXEC_GLOBALS, namespace)
        entry = (namespace["_block"], frozenset(units), frozenset(dep_regs))
        _SHAPE_CACHE[shape] = entry
    return entry


# ---------------------------------------------------------------------------
# block discovery
# ---------------------------------------------------------------------------

class BlockInstance:
    """One block of one program: its code slice, terminator and heat.

    A loop block is compiled at discovery.  A straight-line block starts
    cold (``fn is None``): :func:`run_core` interprets it and counts the
    executions in ``runs`` until :data:`_HOT_RUNS`, then calls
    :meth:`compile`.  Instances live in the content-addressed
    :data:`_BP_CACHE`, so the heat -- and the compiled function -- carry
    over to every later simulation of the same program in the process.
    """

    __slots__ = (
        "code", "start", "length", "term", "is_loop", "exit_pc", "runs",
        "fn", "consts", "units", "dep_regs",
        "batch_ok", "batch_fails", "cnt_reg", "bound_reg", "templates",
    )

    def __init__(self, code, start, term, is_loop):
        self.code = code
        self.start = start
        self.length = len(code)
        self.term = term                # "fall" | "branch" | "jmp"
        self.is_loop = is_loop
        self.exit_pc = start + len(code)
        self.runs = 0
        self.fn = None
        self.consts = None
        self.units = None
        self.dep_regs = None
        self.batch_ok = (
            is_loop
            and code[-1][0] == int(Op.BLT)
            and all(t[0] in _BATCHABLE for t in code[:-1])
        )
        self.batch_fails = 0
        self.cnt_reg = code[-1][1]
        self.bound_reg = code[-1][2]
        #: step-delta key -> plan template (None = provably never
        #: batchable under that delta).
        self.templates: Dict[Tuple, Optional["_PlanTemplate"]] = {}

    def compile(self) -> None:
        """Bind the shape-shared function and this instance's constants."""
        code = self.code
        shape = (
            tuple((t[0], t[1], t[2], t[3], t[4], 0, 0, t[7], t[8])
                  for t in code),
            "loop" if self.is_loop else "line",
            self.term,
        )
        self.fn, self.units, self.dep_regs = _compile_shape(shape)
        consts: List[int] = []
        for t in code:
            consts.append(t[5])
            consts.append(t[6])
        consts.append(self.exit_pc)             # fall-through pc
        if self.term == "fall":
            consts.append(self.exit_pc)
        else:                                   # taken branch / jump target
            consts.append(self.exit_pc - 1 + code[-1][6])
        self.consts = tuple(consts)


class BlockProgram:
    """Block table for one translated program."""

    __slots__ = ("code", "table", "n")

    def __init__(self, code, table):
        self.code = code
        self.table = table
        self.n = len(code)


#: decoded program (the tuple ``translate_program`` returns) ->
#: BlockProgram.  Keyed on the code itself: exact, nothing rendered or
#: hashed into a string, and the key is the very tuple the program's own
#: translation memo holds, so it costs no second copy.  Extension
#: descriptors are part of the decoded code (by value), built-in opcodes
#: mean the same under every registry, so no registry appears in the key.
_BP_CACHE: Dict[Tuple, BlockProgram] = {}

#: Minimum block length worth a table entry (shorter runs fall back to
#: the interpreter's handlers through the trampoline).
_MIN_COMPILE_LEN = 2

#: Executions a straight-line block is interpreted for before it is
#: compiled.  Measured on resnet18@64 dp (104 straight-line shapes,
#: 3 823 static instructions, 1 050 instances executing 21 802
#: instructions per run): ``compile()`` of the generated source costs
#: 0.275 s, ~72 us per static instruction; a run with every block on
#: the interpreter's handlers takes 0.195 s against 0.139 s all
#: compiled, ~2.5 us saved per executed instruction -- so translation
#: repays itself after 72 / 2.5 ~ 25-30 executions.  A one-shot
#: ``repro run`` executes every such block exactly once and must never
#: pay; a serving session re-runs them once per input without end.  The
#: threshold sits below break-even because a block that has already
#: come back 16 times is in a session, not a one-shot run (and its
#: compile is shared with every other instance of its shape); at worst
#: -- the process stops right after promoting -- that costs one compile
#: per shape, once.  Loop blocks are not tiered: one entry runs trip
#: counts far above any threshold.
_HOT_RUNS = 16


def block_program_for(program, registry) -> BlockProgram:
    """Build (or fetch) the block table for ``program``.

    Content-addressed: cores -- and simulator instances -- running
    structurally identical programs share one :class:`BlockProgram` and
    therefore every compiled block and every block's heat counter.
    """
    from repro.sim.core import translate_program

    code = translate_program(program, registry)
    bp = _BP_CACHE.get(code)
    if bp is not None:
        return bp
    if len(_BP_CACHE) > 512:
        _BP_CACHE.clear()

    n = len(code)
    #: Straight-line loop bodies from the program's own block metadata
    #: (isa/program.py); discovery below must agree with it on which
    #: branch-terminated blocks iterate in place.
    loop_heads = {
        (block.head, block.branch) for block in program.loop_blocks()
    }
    leaders = {0}
    for pc, t in enumerate(code):
        op = t[0]
        if op in _BRANCH_OPS or op == int(Op.JMP):
            leaders.add(pc + 1)
            target = pc + t[6]
            if 0 <= target < n:
                leaders.add(target)
        elif op in _EXIT_OPS or op not in _SUPPORTED:
            leaders.add(pc + 1)

    table: List[Optional[BlockInstance]] = [None] * n
    starts = sorted(leaders)
    for idx, start in enumerate(starts):
        if start >= n:
            continue
        limit = starts[idx + 1] if idx + 1 < len(starts) else n
        end = start
        term = "fall"
        while end < limit:
            op = code[end][0]
            if op in _EXIT_OPS or op not in _SUPPORTED:
                break
            end += 1
            if op in _BRANCH_OPS:
                term = "branch"
                break
            if op == int(Op.JMP):
                term = "jmp"
                break
        if end - start < _MIN_COMPILE_LEN:
            continue
        is_loop = term == "branch" and (start, end - 1) in loop_heads
        inst = BlockInstance(code[start:end], start, term, is_loop)
        if is_loop:
            inst.compile()
        table[start] = inst

    bp = BlockProgram(code, table)
    _BP_CACHE[code] = bp
    return bp


# ---------------------------------------------------------------------------
# trampoline
# ---------------------------------------------------------------------------

def run_core(core, max_instructions: int = 50_000_000) -> int:
    """Engine replacement for ``Core.run`` (same contract, same states)."""
    bp = core._blockprog
    table = bp.table
    code = bp.code
    n = bp.n
    dispatch = core._dispatch
    acct = core.chip.acct
    start_retired = core.instructions_retired
    while True:
        pc = core.pc
        if not 0 <= pc < n:
            raise SimulationError(
                f"core {core.core_id}: pc {pc} outside program "
                f"of {n} instructions"
            )
        inst = table[pc]
        if inst is None:
            tup = code[pc]
            acct.instruction()
            result = dispatch[tup[0]](core, tup)
            core.instructions_retired += 1
            ENGINE_STATS["fallback_instructions"] += 1
            if result is not None:
                core.state = result
                return result
        elif inst.is_loop:
            budget = max_instructions - (
                core.instructions_retired - start_retired
            )
            core.pc = _run_loop(core, inst, budget, max_instructions)
        elif inst.fn is not None:
            core.pc = inst.fn(core, inst.consts)
        elif inst.runs < _HOT_RUNS:
            # Cold tier: the interpreter's own handlers (each advances
            # core.pc; none in a straight-line block can block).
            inst.runs += 1
            for tup in inst.code:
                dispatch[tup[0]](core, tup)
            length = inst.length
            acct.n_instructions += length
            core.instructions_retired += length
            ENGINE_STATS["cold_block_instructions"] += length
        else:
            inst.compile()
            ENGINE_STATS["block_promotions"] += 1
            core.pc = inst.fn(core, inst.consts)
        if core.instructions_retired - start_retired >= max_instructions:
            raise SimulationError(
                f"core {core.core_id}: runaway execution "
                f"(> {max_instructions} instructions without blocking)"
            )


# ---------------------------------------------------------------------------
# loop driver: warm-up, steady-state detection, batched replay
# ---------------------------------------------------------------------------

_ACCT_FIELDS = (
    "n_instructions", "n_scalar_ops", "macs", "mvm_rows",
    "mvm_result_bytes", "cim_load_bytes", "vec_elements",
    "local_bytes_read", "local_bytes_written", "global_bytes",
)

# snapshot layout offsets
_S_CLK = 0
_S_UF = 1                  # 5 entries
_S_BUSY = 6                # 5 entries
_S_REGS = 11               # 32 entries
_S_RR = 43                 # 32 entries
_S_SREGS = 75              # 16 entries
_S_ACCT = 91               # len(_ACCT_FIELDS) entries
_S_RETIRED = _S_ACCT + len(_ACCT_FIELDS)
_S_LEN = _S_RETIRED + 1


def _snapshot(core) -> Tuple[int, ...]:
    uf = core.unit_free
    bz = core.busy
    acct = core.chip.acct
    return (
        core.clock,
        uf["scalar"], uf["vector"], uf["cim"], uf["mem"], uf["xfer"],
        bz["scalar"], bz["vector"], bz["cim"], bz["mem"], bz["xfer"],
        *core.regs,
        *core.reg_ready,
        *core.sregs,
        acct.n_instructions, acct.n_scalar_ops, acct.macs, acct.mvm_rows,
        acct.mvm_result_bytes, acct.cim_load_bytes, acct.vec_elements,
        acct.local_bytes_read, acct.local_bytes_written, acct.global_bytes,
        core.instructions_retired,
    )


def _apply_delta(core, d: Tuple[int, ...], m: int) -> None:
    core.clock += m * d[_S_CLK]
    uf = core.unit_free
    bz = core.busy
    for i, unit in enumerate(_UNITS):
        dv = d[_S_UF + i]
        if dv:
            uf[unit] += m * dv
        dv = d[_S_BUSY + i]
        if dv:
            bz[unit] += m * dv
    r = core.regs
    rr = core.reg_ready
    s = core.sregs
    for i in range(32):
        dv = d[_S_REGS + i]
        if dv:
            r[i] += m * dv
        dv = d[_S_RR + i]
        if dv:
            rr[i] += m * dv
    for i in range(16):
        dv = d[_S_SREGS + i]
        if dv:
            s[i] += m * dv
    acct = core.chip.acct
    for i, field in enumerate(_ACCT_FIELDS):
        dv = d[_S_ACCT + i]
        if dv:
            setattr(acct, field, getattr(acct, field) + m * dv)
    core.instructions_retired += m * d[_S_RETIRED]


def _eager_sound(inst: BlockInstance, prev: Tuple[int, ...],
                 delta: Tuple[int, ...]) -> bool:
    """Whether ONE measured delta already proves steady timing.

    The loop body is a max-plus system over (clock, unit-free times,
    dependency reg-ready times).  The measured iteration is the steady
    behaviour -- and therefore extrapolates -- iff every timing component
    the body consults either advanced in lockstep with the clock (its
    relative offset is unchanged, so every max resolves identically next
    iteration) or was already in the past *before* the measured iteration
    and did not move (it lost every max then and keeps losing as the
    clock grows).  A component that advanced by anything else may have
    absorbed a one-off stall that will not recur, so the usual
    two-equal-deltas filter must arbitrate instead.
    """
    d_clk = delta[_S_CLK]
    clk0 = prev[_S_CLK]
    for i, unit in enumerate(_UNITS):
        if unit in inst.units:
            d = delta[_S_UF + i]
            if d != d_clk and not (d == 0 and prev[_S_UF + i] <= clk0):
                return False
    for reg in inst.dep_regs:
        d = delta[_S_RR + reg]
        if d != d_clk and not (d == 0 and prev[_S_RR + reg] <= clk0):
            return False
    return True


def _txns_affine(prev_txns, txns, d_clk: int) -> bool:
    """Whether two consecutive iterations' NoC transaction lists match in
    (src, dst, nbytes) with start times advancing by exactly the clock
    step -- the empirical twin of the planner's affine model."""
    if not txns:
        return not prev_txns
    if prev_txns is None or len(prev_txns) != len(txns):
        return False
    for (s0, d0, n0, t0), (s1, d1, n1, t1) in zip(prev_txns, txns):
        if s0 != s1 or d0 != d1 or n0 != n1 or t1 - t0 != d_clk:
            return False
    return True


def _run_loop(core, inst: BlockInstance, budget: int,
              max_instructions: int) -> int:
    """Execute one loop block to completion; returns the exit pc."""
    fn = inst.fn
    consts = inst.consts
    span = inst.length
    if budget <= 0:
        raise SimulationError(
            f"core {core.core_id}: runaway execution "
            f"(> {max_instructions} instructions without blocking)"
        )
    max_iter = max(1, budget // span)
    ENGINE_STATS["loop_entries"] += 1
    retired0 = core.instructions_retired

    def stepped_exit():
        ENGINE_STATS["loop_iterations_stepped"] += (
            core.instructions_retired - retired0
        ) // span
        return inst.exit_pc

    noc = core.chip.noc
    batchable = (
        inst.batch_ok and inst.batch_fails < _MAX_BATCH_FAILS
        # Timeline capture needs every per-link reservation event;
        # batching elides them, so it is disabled while recording.
        and noc.timeline is None
    )
    if batchable:
        # Quick trip estimate (exact when the counter steps by 1, an
        # over-estimate otherwise -- either way fine for a threshold).
        est = core.regs[inst.bound_reg] - core.regs[inst.cnt_reg]
        if est < _MIN_BATCH:
            batchable = False

    if not batchable:
        exited = fn(core, consts, max_iter)
        if not exited:
            raise SimulationError(
                f"core {core.core_id}: runaway execution "
                f"(> {max_instructions} instructions without blocking)"
            )
        return stepped_exit()

    # Record this core's NoC transactions while stepping, so a body that
    # streams from global memory exposes its per-iteration transaction
    # pattern to the batch planner.  The chip scheduler runs one core at
    # a time, so the trace sees only this loop's messages.
    outer_trace = noc.trace
    trace: List[Tuple[int, int, int, int]] = []
    noc.trace = trace
    try:
        prev_delta = None
        prev = _snapshot(core)
        prev_txns = None
        tpos = 0
        done = 0
        while True:
            exited = fn(core, consts, 1)
            done += 1
            txns = trace[tpos:]
            tpos = len(trace)
            if exited:
                return stepped_exit()
            if done >= max_iter:
                raise SimulationError(
                    f"core {core.core_id}: runaway execution "
                    f"(> {max_instructions} instructions without blocking)"
                )
            now = _snapshot(core)
            delta = tuple(a - b for a, b in zip(now, prev))
            eager = False
            if delta == prev_delta:
                attempt = _txns_affine(prev_txns, txns, delta[_S_CLK])
            elif prev_delta is None and _eager_sound(inst, prev, delta):
                # First delta, timing provably steady: attempt now.  A
                # miss costs no batch_fails strike -- the plan
                # cross-check arbitrates, not the two-delta filter.
                attempt = True
                eager = True
            else:
                attempt = False
            if attempt:
                ENGINE_STATS["batch_attempts"] += 1
                if txns:
                    ENGINE_STATS["noc_batch_attempts"] += 1
                if _try_batch(core, inst, delta, max_iter - done, txns):
                    ENGINE_STATS["batch_successes"] += 1
                    ENGINE_STATS["loop_iterations_stepped"] += done
                    ENGINE_STATS["loop_iterations_batched"] += (
                        core.instructions_retired - retired0
                    ) // span - done
                    return inst.exit_pc
                if not eager:
                    inst.batch_fails += 1
                    exited = fn(core, consts, max_iter - done)
                    if not exited:
                        raise SimulationError(
                            f"core {core.core_id}: runaway execution "
                            f"(> {max_instructions} instructions "
                            f"without blocking)"
                        )
                    return stepped_exit()
            if done > 24:
                # No steady state in sight; run the rest in the JIT loop.
                exited = fn(core, consts, max_iter - done)
                if not exited:
                    raise SimulationError(
                        f"core {core.core_id}: runaway execution "
                        f"(> {max_instructions} instructions "
                        f"without blocking)"
                    )
                return stepped_exit()
            prev_delta = delta
            prev = now
            prev_txns = txns
    finally:
        noc.trace = outer_trace


class _Bail(Exception):
    """Internal: the batched replay cannot be applied; fall back."""


def _noc_plan_ok(core, gcpys, noc_txns) -> bool:
    """Every NoC transaction the measured iteration issued must be
    explained by a planned global copy, in body order, with matching
    direction and size -- otherwise the batch cannot account for the
    loop's NoC side effects and must not apply."""
    if len(gcpys) != len(noc_txns):
        return False
    cid = core.core_id
    for op, (src, dst, nbytes, _) in zip(gcpys, noc_txns):
        if src != GLOBAL_PORT or dst != cid or nbytes != op[3]:
            return False
    return True


def _try_batch(core, inst: BlockInstance, delta: Tuple[int, ...],
               max_iterations: int, noc_txns) -> bool:
    """Attempt closed-form + batched replay of the remaining iterations.

    Called with the core at a loop head whose measured state delta is
    proven steady (two identical deltas, or one delta passing
    :func:`_eager_sound`).  ``noc_txns`` is the last stepped iteration's
    NoC transaction list.  Returns True when the loop was completed
    (state advanced past the final branch), False to fall back to the
    generated loop -- in which case no state has been mutated.
    ``max_iterations`` bounds the replayable trip count (the caller's
    instruction budget), so a runaway counted loop still surfaces as the
    interpreter's runaway error instead of an allocation blow-up.
    """
    d_clk = delta[_S_CLK]
    uf = core.unit_free
    clk = core.clock
    # Deadness check: every timing component the body consults must either
    # advance in lockstep with the clock or already be in the past (and
    # therefore lose every future max() against start times >= clock).
    for i, unit in enumerate(_UNITS):
        if unit in inst.units and delta[_S_UF + i] != d_clk:
            if uf[unit] > clk:
                return False
    rr = core.reg_ready
    for reg in inst.dep_regs:
        if delta[_S_RR + reg] != d_clk and rr[reg] > clk:
            return False

    try:
        plan, m = _plan_entry(core, inst, delta, max_iterations)
        gcpys = [op for op in plan[0] if op[0] == "gcpy"]
        if gcpys or noc_txns:
            if not _noc_plan_ok(core, gcpys, noc_txns):
                raise _Bail()
            noc = core.chip.noc
            acct = core.chip.acct
            energies = [
                noc.energy_pj(nbytes, src, dst)
                for src, dst, nbytes, _ in noc_txns
            ]

            def commit_noc():
                # Runs between the executor's pure compute phase and its
                # memory flush: a replay refusal here aborts the batch
                # with no state mutated anywhere.
                if not noc.replay_affine(noc_txns, d_clk, m):
                    ENGINE_STATS["noc_batch_contention_bailouts"] += 1
                    raise _Bail()
                # The NoC energy accumulator is a float, so the closed
                # form must repeat the per-message additions in stepped
                # order to stay bit-identical.
                for _ in range(m):
                    for pj in energies:
                        acct.noc_transfer(pj)

            _exec_batch(core, plan, m, commit_noc)
            ENGINE_STATS["noc_batch_successes"] += 1
        else:
            _exec_batch(core, plan, m)
    except _Bail:
        return False
    _apply_delta(core, delta, m)
    return True


def _writes_collide(w1, w2, span1, span2, m: int) -> bool:
    """Write-vs-write hazard between two planned regions.

    Two *step-0* writes overlapping is benign even though they touch the
    same bytes every iteration: the flush applies final rows in op order
    (exactly the stepped outcome) and reads resolve through the same
    newest-cover forwarding the stepped execution implies.  Every other
    overlap is a real hazard.  Note :func:`_regions_collide` itself must
    stay strict -- a read piece resolved from *memory* does treat a
    step-0 overlap as loop-carried interference.
    """
    if w1[1] == 0 and w2[1] == 0:
        return False
    return _regions_collide(w1, w2, span1, span2, m)


def _regions_collide(w1, w2, span1, span2, m: int) -> bool:
    """Whether two write regions can touch a common byte across any pair
    of iterations ``(i, j)`` in ``[0, m)``."""
    b1, s1, l1 = w1
    b2, s2, l2 = w2
    lo1, hi1 = span1
    lo2, hi2 = span2
    if hi1 <= lo2 or hi2 <= lo1:
        return False
    if s1 == s2 and s1 > 0:
        # Bytes collide iff [b2 + k*s, b2 + k*s + l2) meets [b1, b1 + l1)
        # for some iteration difference k with |k| < m.
        s = s1
        k_lo = (b1 - b2 - l2) // s + 1
        k_hi = (b1 - b2 + l1 - 1) // s
        k_lo = max(k_lo, -(m - 1))
        k_hi = min(k_hi, m - 1)
        return k_lo <= k_hi
    if s1 == s2 == 0:
        return b1 < b2 + l2 and b2 < b1 + l1
    return True


def _wr(regs, index: int, pair) -> None:
    if index != 0:
        regs[index] = pair


def _span(b: int, s: int, l: int, m: int) -> Tuple[int, int]:
    lo = b + (s * (m - 1) if s < 0 else 0)
    hi = b + l + (s * (m - 1) if s > 0 else 0)
    return lo, hi


# ---------------------------------------------------------------------------
# plan templates: the affine walk + hazard analysis, cached per loop instance
# ---------------------------------------------------------------------------
#
# The batch planner is one affine walk of the loop body
# (:func:`_build_template`).  For a given per-iteration step delta the
# walk's *structure* does not depend on the loop entry: operand bases are
# affine in the entry registers, and every structural decision (which ops
# batch, their lengths, the hazard geometry) depends only on the steps and
# the program immediates.  So the walk runs symbolically -- values as
# linear expressions over the 48 entry slots (32 registers + 16
# S-registers) -- and its result, a :class:`_PlanTemplate`, is cached on
# the loop instance; every entry, the one that built it included, gets
# its concrete plan from ``instantiate`` with a handful of dot products.
# The pairwise write-collision verdict is memoised on the
# translation-invariant signature (trip count, relative bases), so the
# hazard analysis is amortised too; only the cheap O(writes) bounds check
# runs fresh per entry.  Where the walk needs a concrete value it binds
# the building entry's and records a guard; an entry the guards reject
# (``template_misfits``) is re-planned from its own state by a fresh walk
# whose template replaces the cached one.  A bail the walk can prove for
# *all* entry states is cached as "never batches"; one that depends on
# this entry's values (:class:`_TemplateUnfit`) caches nothing.

class _TemplateUnfit(_Bail):
    """This entry does not fit, though another may: the walk met a bail
    that depends on the entry's values, or a cached template's guard
    rejected the entry."""


#: Linear expression over entry slots: (constant, ((slot, coeff), ...)).
#: Slots 0..31 are registers, 32..47 are S-registers.
_E_ZERO = (0, ())


def _e_const(c: int) -> Tuple:
    return (c, ())


def _e_slot(slot: int) -> Tuple:
    return (0, ((slot, 1),))


def _e_is_const(e: Tuple) -> bool:
    return not e[1]


def _e_combine(a: Tuple, b: Tuple, sign: int) -> Tuple:
    coeffs = dict(a[1])
    for slot, k in b[1]:
        v = coeffs.get(slot, 0) + sign * k
        if v:
            coeffs[slot] = v
        else:
            coeffs.pop(slot, None)
    return (a[0] + sign * b[0], tuple(sorted(coeffs.items())))


def _e_scale(a: Tuple, k: int) -> Tuple:
    if k == 0:
        return _E_ZERO
    return (a[0] * k, tuple((slot, c * k) for slot, c in a[1]))


def _e_shift(a: Tuple, c: int) -> Tuple:
    return (a[0] + c, a[1])


#: Plan-op tag -> positions of the operand bases in its tuple: linear
#: expressions in a template, integers in an instantiated plan.
_BASE_FIELDS = {
    "cpy": (1, 4), "gcpy": (1, 4), "cimload": (1,), "mvm": (1, 5),
    "qnt": (1, 4), "add32": (1, 3, 6), "acc32": (1, 4), "fill": (4,),
    "cmul": (1, 3, 7), "bin": (2, 4, 7), "un": (2, 5),
}


class _PlanTemplate:
    """One symbolic batch plan, instantiable against any entry state."""

    __slots__ = (
        "ops", "writes", "cnt", "bound", "guards", "mvm_guards", "_hazards",
    )

    def __init__(self, ops, writes, cnt, bound, guards, mvm_guards):
        self.ops = ops            # op tuples with exprs in base positions
        self.writes = writes      # (base expr, step, nbytes)
        self.cnt = cnt            # (expr, step) of the BLT counter
        self.bound = bound        # expr of the BLT bound (step 0)
        self.guards = guards      # (expr, expected value) bindings
        self.mvm_guards = mvm_guards   # (mg, rows, cols) build-time shapes
        self._hazards: Dict[Tuple, bool] = {}

    def instantiate(self, core, max_iterations: int):
        """Materialise the concrete ``(plan, m)`` for the current entry.

        Raises :class:`_Bail` when this entry cannot batch (trip budget,
        bounds, collisions) and :class:`_TemplateUnfit` when a guard
        shows the entry differs from the one the template was built at
        (the caller then plans it from its own state).
        """
        regs = core.regs
        sregs = core.sregs
        mgs = core.mgs

        def ev(e: Tuple) -> int:
            value, coeffs = e
            for slot, k in coeffs:
                value += k * (regs[slot] if slot < 32 else sregs[slot - 32])
            return value

        for expr, expected in self.guards:
            if ev(expr) != expected:
                raise _TemplateUnfit()
        for mg, rows, cols in self.mvm_guards:
            if not 0 <= mg < len(mgs) or mgs[mg] is None:
                raise _Bail()
            entry = mgs[mg]
            if entry[1] != rows or entry[2] != cols:
                raise _TemplateUnfit()

        cnt_v = ev(self.cnt[0])
        cnt_s = self.cnt[1]
        bound_v = ev(self.bound)
        if cnt_v >= bound_v:
            m = 1
        else:
            m = 1 + (bound_v - cnt_v + cnt_s - 1) // cnt_s
        if m > max_iterations:
            # Over the caller's instruction budget: fall back to the
            # stepped path, which raises the interpreter's runaway error
            # cleanly.
            raise _Bail()

        ops: List[Tuple] = []
        for op in self.ops:
            fields = list(op)
            for i in _BASE_FIELDS[op[0]]:
                fields[i] = ev(fields[i])
            ops.append(tuple(fields))

        # Every write must stay inside local memory for the whole batch.
        writes = [(ev(b), s, l) for b, s, l in self.writes]
        spans = [_span(b, s, l, m) for b, s, l in writes]
        lsz = core.chip.memory.local_size
        for lo, hi in spans:
            if lo < 0 or hi > lsz:
                raise _Bail()
        # Distinct write regions must never touch a common byte at any
        # pair of iterations (iteration-aware for regions sharing a step;
        # conservative span test otherwise).  The pairwise verdict
        # depends only on *relative* bases (steps, lengths and m are
        # template constants), so it is memoised across entries that
        # differ by a pure translation.
        base0 = writes[0][0] if writes else 0
        signature = (m, tuple(b - base0 for b, _, _ in writes))
        collide = self._hazards.get(signature)
        if collide is None:
            collide = False
            for i in range(len(writes)):
                for j in range(i + 1, len(writes)):
                    if writes[i] == writes[j]:
                        continue
                    if _writes_collide(
                        writes[i], writes[j], spans[i], spans[j], m
                    ):
                        collide = True
                        break
                if collide:
                    break
            if len(self._hazards) > 64:
                self._hazards.clear()
            self._hazards[signature] = collide
        if collide:
            raise _Bail()
        ENGINE_STATS["template_hits"] += 1
        return (ops, writes), m


def _template_key(delta: Tuple[int, ...]) -> Tuple[int, ...]:
    """The delta components the affine walk consults: reg + sreg steps."""
    return (
        delta[_S_REGS:_S_REGS + 32] + delta[_S_SREGS:_S_SREGS + 16]
    )


def _plan_entry(core, inst: BlockInstance, delta: Tuple[int, ...],
                max_iterations: int):
    """The concrete ``(plan, m)`` of the current loop entry.

    Instantiates the template cached for this instance + step delta.
    Without one -- or when the cached one's guards reject this entry --
    the body is walked from the entry's own state and the new template
    is cached and instantiated.  Raises :class:`_Bail` when the entry
    does not batch.  Read-only: performs no mutation of the core.
    """
    key = _template_key(delta)
    templates = inst.templates
    if key in templates:
        template = templates[key]
        if template is None:
            # Symbolically proven: this loop never batches under this
            # step delta, for any entry state.  Skip the affine walk.
            raise _Bail()
        try:
            return template.instantiate(core, max_iterations)
        except _TemplateUnfit:
            ENGINE_STATS["template_misfits"] += 1
    if len(templates) > 4:
        templates.clear()
    ENGINE_STATS["template_builds"] += 1
    try:
        template = _build_template(core, inst, delta)
    except _Bail as bail:
        if not isinstance(bail, _TemplateUnfit):
            templates[key] = None
        raise
    templates[key] = template
    return template.instantiate(core, max_iterations)


def _build_template(core, inst: BlockInstance, delta: Tuple[int, ...]):
    """The affine walk of a loop body: the batch planner.

    Walks the body once with register *values* as linear expressions
    over the entry slots while steps stay concrete (they derive from the
    delta and immediates only).  Where the walk needs a concrete value
    (an op length, a macro-group index, a multiplier), the current
    entry's value is *bound* and recorded as an instantiation guard, so
    the template applies to every entry that agrees on those values --
    in practice all of them, since bound values are loop parameters
    while operand bases stay symbolic.

    Raises a plain :class:`_Bail` only for bails that hold for every
    entry state (nothing bound yet; cached as "never batches") and
    :class:`_TemplateUnfit` for those that depend on this entry's values
    or environment (another entry may batch, so nothing is cached).
    Build-time macro-group shapes become instantiation guards too, so a
    template never outlives the environment it was derived from.
    """
    regs: List[Tuple[Tuple, int]] = [
        (_e_slot(i), delta[_S_REGS + i]) for i in range(32)
    ]
    sregs: List[Tuple[Tuple, int]] = [
        (_e_slot(32 + i), delta[_S_SREGS + i]) for i in range(16)
    ]
    entry_steps = [s for _, s in regs]
    entry_ssteps = [s for _, s in sregs]
    entry_regs = list(core.regs)
    entry_sregs = list(core.sregs)
    mgs = core.mgs
    ops: List[Tuple] = []
    writes: List[Tuple[Tuple, int, int]] = []
    guards: List[Tuple[Tuple, int]] = []
    mvm_guards: List[Tuple[int, int, int]] = []
    vmg_shapes: Dict[int, Tuple[int, int]] = {}
    entry_mg_used: set = set()
    pure = True  # no guard bound yet -> bails are entry-independent

    def ev_entry(e: Tuple) -> int:
        value, coeffs = e
        for slot, k in coeffs:
            value += k * (
                entry_regs[slot] if slot < 32 else entry_sregs[slot - 32]
            )
        return value

    def bind(e: Tuple) -> int:
        """The concrete value of ``e``, guarded if entry-dependent."""
        nonlocal pure
        if _e_is_const(e):
            return e[0]
        value = ev_entry(e)
        guards.append((e, value))
        pure = False
        return value

    def definite_bail() -> None:
        """Bail that is universal only while no value has been bound."""
        raise _Bail() if pure else _TemplateUnfit()

    def invariant(pair) -> Tuple:
        e, s = pair
        if s != 0:
            definite_bail()
        return e

    body = inst.code[:-1]
    branch = inst.code[-1]
    for t in body:
        op = t[0]
        rs, rt, rd, re = t[1], t[2], t[3], t[4]
        imm, off, funct, flags = t[5], t[6], t[7], t[8]
        if op == int(Op.SC_ADD):
            _wr(regs, rd, (_e_combine(regs[rs][0], regs[rt][0], 1),
                           regs[rs][1] + regs[rt][1]))
        elif op == int(Op.SC_SUB):
            _wr(regs, rd, (_e_combine(regs[rs][0], regs[rt][0], -1),
                           regs[rs][1] - regs[rt][1]))
        elif op == int(Op.SC_MUL):
            (a_e, a_s), (b_e, b_s) = regs[rs], regs[rt]
            if a_s == 0:
                # concrete result: (a0 * b0, a0 * b1)
                if _e_is_const(b_e) and b_s == 0 and not _e_is_const(a_e):
                    _wr(regs, rd, (_e_scale(a_e, b_e[0]), 0))
                else:
                    c = bind(a_e)
                    _wr(regs, rd, (_e_scale(b_e, c), c * b_s))
            elif b_s == 0:
                # concrete result: (a0 * b0, a1 * b0)
                c = bind(b_e)
                _wr(regs, rd, (_e_scale(a_e, c), a_s * c))
            else:
                definite_bail()
        elif op in (int(Op.SC_SLT), int(Op.SC_AND), int(Op.SC_OR),
                    int(Op.SC_XOR), int(Op.SC_SLL), int(Op.SC_SRL)):
            a = bind(invariant(regs[rs]))
            b = bind(invariant(regs[rt]))
            if op == int(Op.SC_SLT):
                v = 1 if a < b else 0
            elif op == int(Op.SC_AND):
                v = a & b
            elif op == int(Op.SC_OR):
                v = a | b
            elif op == int(Op.SC_XOR):
                v = a ^ b
            elif op == int(Op.SC_SLL):
                v = a << (b & 31)
            else:
                v = (a & 0xFFFFFFFF) >> (b & 31)
            _wr(regs, rd, (_e_const(v), 0))
        elif op == int(Op.SC_ADDI):
            _wr(regs, rt, (_e_shift(regs[rs][0], imm), regs[rs][1]))
        elif op == int(Op.SC_MULI):
            _wr(regs, rt, (_e_scale(regs[rs][0], imm), regs[rs][1] * imm))
        elif op == int(Op.SC_SLTI):
            v = 1 if bind(invariant(regs[rs])) < imm else 0
            _wr(regs, rt, (_e_const(v), 0))
        elif op == int(Op.SC_LUI):
            _wr(regs, rt, (_e_const((off & 0xFFFF) << 16), 0))
        elif op == int(Op.SC_ORI):
            v = bind(invariant(regs[rs])) | (off & 0xFFFF)
            _wr(regs, rt, (_e_const(v), 0))
        elif op == int(Op.SC_ADDIW):
            _wr(regs, rt, (_e_shift(regs[rs][0], off), regs[rs][1]))
        elif op == int(Op.MV_G2S):
            if not 0 <= imm < 16:
                raise _Bail()
            sregs[imm] = regs[rs]
        elif op == int(Op.MV_S2G):
            _wr(regs, rt, sregs[imm])
        elif op in (int(Op.NOP), int(Op.SYNC)):
            pass
        elif op == int(Op.MEM_CPY):
            n = bind(invariant(regs[rd]))
            if n <= 0:
                definite_bail()
            sb, ss = regs[rs]
            db, ds = _e_shift(regs[rt][0], off), regs[rt][1]
            if ev_entry(db) >= GLOBAL_BASE:
                # Global-memory writes are visible to other cores;
                # replay order matters, so never batch them.  Other
                # entries may keep the destination local, so this is
                # never cached as a definite bail.
                raise _TemplateUnfit()
            if ev_entry(sb) >= GLOBAL_BASE:
                # Weight/activation streaming: read the global image,
                # write locally, one NoC message per iteration.
                # Classified by this entry's value, unguarded: an entry
                # that flips the source's locality fails the executor's
                # region bounds check and falls back safely.
                ops.append(("gcpy", sb, ss, n, db, ds))
            else:
                ops.append(("cpy", sb, ss, n, db, ds, None))
            writes.append((db, ds, n))
        elif op == int(Op.MEM_GATHER):
            count = bind(invariant(regs[rd]))
            chunk = bind(invariant(sregs[13]))
            stride = bind(invariant(sregs[7]))
            if count <= 0 or chunk <= 0 or stride <= 0:
                definite_bail()
            sb, ss = regs[rs]
            db, ds = regs[rt]
            span = (count - 1) * stride + chunk
            nb = count * chunk
            ops.append(("cpy", sb, ss, span, db, ds,
                        (count, chunk, stride, nb)))
            writes.append((db, ds, nb))
        elif op == int(Op.CIM_LOAD):
            mg = bind(invariant(regs[rt]))
            rows = bind(invariant(sregs[2]))
            cols = bind(invariant(sregs[3]))
            if not 0 <= mg < len(mgs) or rows <= 0 or cols <= 0:
                definite_bail()
            if mg in entry_mg_used:
                # An earlier MVM on this mg reads the *previous*
                # iteration's load: a loop-carried macro-group
                # dependency the batched replay does not model.
                definite_bail()
            sb, ss = regs[rs]
            ops.append(("cimload", sb, ss, rows, cols, mg))
            vmg_shapes[mg] = (rows, cols)
        elif op == int(Op.CIM_MVM):
            mg = bind(invariant(regs[rt]))
            if not 0 <= mg < len(mgs):
                definite_bail()
            shape = vmg_shapes.get(mg)
            virt = shape is not None
            if virt:
                rows, cols = shape
            else:
                if mgs[mg] is None:
                    # Environment-dependent (another entry may have the
                    # MG loaded): cannot be cached as a definite bail.
                    raise _TemplateUnfit()
                _, rows, cols = mgs[mg]
                mvm_guards.append((mg, rows, cols))
                entry_mg_used.add(mg)
            vb, vs = regs[rs]
            ob, os_ = regs[re]
            ops.append(("mvm", vb, vs, rows, cols, ob, os_, mg, flags, virt))
            writes.append((ob, os_, 4 * cols))
        elif op in _VEC_OPS:
            n = bind(invariant(regs[re]))
            if n <= 0:
                definite_bail()
            if op == int(Op.VEC_QNT):
                qmul = max(1, bind(invariant(sregs[4])))
                qshift = bind(invariant(sregs[5]))
                ops.append(("qnt", regs[rs][0], regs[rs][1], n,
                            regs[rd][0], regs[rd][1], qmul, qshift))
                writes.append((regs[rd][0], regs[rd][1], n))
            elif op == int(Op.VEC_ADD32):
                ops.append(("add32", regs[rs][0], regs[rs][1],
                            regs[rt][0], regs[rt][1], n,
                            regs[rd][0], regs[rd][1]))
                writes.append((regs[rd][0], regs[rd][1], 4 * n))
            elif op == int(Op.VEC_ACC32):
                if regs[rd][1] != 0:
                    definite_bail()
                ops.append(("acc32", regs[rs][0], regs[rs][1], n,
                            regs[rd][0]))
                writes.append((regs[rd][0], 0, 4 * n))
            elif op == int(Op.VEC_FILL):
                value = bind(invariant(sregs[6])) & 0xFF
                value = value - 256 if value >= 128 else value
                ops.append(("fill", value, funct, n,
                            regs[rd][0], regs[rd][1]))
                nb = 4 * n if funct == 4 else n
                writes.append((regs[rd][0], regs[rd][1], nb))
            elif op == int(Op.VEC_CMUL):
                ch = bind(invariant(sregs[12]))
                if ch <= 0 or n % ch:
                    definite_bail()
                ops.append(("cmul", regs[rs][0], regs[rs][1],
                            regs[rt][0], regs[rt][1], ch, n,
                            regs[rd][0], regs[rd][1]))
                writes.append((regs[rd][0], regs[rd][1], n))
            elif op in (int(Op.VEC_ADD), int(Op.VEC_SUB), int(Op.VEC_MUL),
                        int(Op.VEC_MAX), int(Op.VEC_MIN)):
                ops.append(("bin", op, regs[rs][0], regs[rs][1],
                            regs[rt][0], regs[rt][1], n,
                            regs[rd][0], regs[rd][1]))
                writes.append((regs[rd][0], regs[rd][1], n))
            else:
                ops.append(("un", op, regs[rs][0], regs[rs][1], n,
                            regs[rd][0], regs[rd][1]))
                writes.append((regs[rd][0], regs[rd][1], n))
        else:
            definite_bail()

    # Cross-check the affine model against the measured per-iteration
    # deltas: the walked end-of-body value of every register must equal
    # its entry value plus its measured step.  An identical expression
    # match holds for every entry state (no runtime check needed); any
    # other shape is checked numerically at this entry and guarded, so
    # an entry the guard rejects is re-planned from its own state.
    def cross_check(slot: int, pair, step0: int) -> None:
        nonlocal pure
        e, s = pair
        if s != step0:
            definite_bail()
        if e == _e_shift(_e_slot(slot), step0):
            return
        diff = _e_combine(e, _e_slot(slot), -1)
        if ev_entry(diff) != step0:
            # The mismatch is entry-dependent; never cache it as a
            # definite bail.
            raise _TemplateUnfit()
        guards.append((diff, step0))
        pure = False

    for i in range(32):
        cross_check(i, regs[i], entry_steps[i])
    for i in range(16):
        cross_check(32 + i, sregs[i], entry_ssteps[i])

    # The closing BLT: the body executes while cnt < bound at the branch;
    # instantiate() derives the trip count from the walked end-of-body
    # values, which give the first batched branch.
    cnt_e, cnt_s = regs[branch[1]]
    bound_e, bound_s = regs[branch[2]]
    if cnt_s <= 0 or bound_s != 0:
        definite_bail()
    return _PlanTemplate(
        ops, writes, (cnt_e, cnt_s), bound_e, guards, mvm_guards
    )


def _exec_batch(core, plan, m: int, pre_flush=None) -> None:
    """Run the batched dataflow for ``m`` iterations and flush memory.

    Phase A computes every value (raising :class:`_Bail` without side
    effects when a region cannot be resolved); phase B flushes.
    ``pre_flush``, when given, runs between the phases: it may still
    raise :class:`_Bail` (nothing has been mutated yet) but must leave
    no side effects behind when it does -- it is how the NoC replay
    commits atomically with the memory flush.
    """
    ops, plan_writes = plan
    mem = core.chip.memory
    lm = mem.locals[core.core_id]
    gm = mem.global_mem
    lsz = mem.local_size
    mgs = core.mgs
    out: List[Tuple[int, int, int, np.ndarray]] = []
    vmgs: Dict[int, np.ndarray] = {}
    mg_final: Dict[int, Tuple[np.ndarray, int, int]] = {}
    all_spans = [_span(b, s, l, m) for b, s, l in plan_writes]

    def _piece_hazard(pb, s, plen, forwarded):
        """Bail on loop-carried interference with this read piece.

        A forwarded piece is shadowed by its (newest, same-step, whole-
        piece) cover, so only differently-stepped writes endanger it; a
        memory-resolved piece must not collide with any planned write.
        """
        region = (pb, s, plen)
        pspan = _span(pb, s, plen, m)
        for w, wspan in zip(plan_writes, all_spans):
            if forwarded and w[1] == s:
                continue
            if _regions_collide(region, w, pspan, wspan, m):
                raise _Bail()

    def read(b, s, l):
        """Resolve an ``(M, l)`` int8 view of the read region, composing
        forwarded slices of earlier writes with strided memory reads."""
        lo, hi = _span(b, s, l, m)
        if lo < 0 or hi > lsz:
            raise _Bail()
        pieces = []
        off = 0
        while off < l:
            pb = b + off
            rem = l - off
            plen = rem
            chosen = None
            chosen_idx = -1
            for k in range(len(out) - 1, -1, -1):
                wb, ws, wl, arr = out[k]
                if ws == s and wb <= pb < wb + wl:
                    chosen = out[k]
                    chosen_idx = k
                    plen = min(plen, wb + wl - pb)
                    break
            if chosen is None:
                # memory piece up to the next same-step write start
                for wb, ws, wl, arr in out:
                    if ws == s and pb < wb < pb + plen:
                        plen = wb - pb
            else:
                # a newer same-step write starting strictly inside the
                # piece shadows the chosen cover from that point on
                for wb, ws, wl, arr in out[chosen_idx + 1:]:
                    if ws == s and pb < wb < pb + plen:
                        plen = wb - pb
            _piece_hazard(pb, s, plen, chosen is not None)
            if chosen is not None:
                wb, _, _, arr = chosen
                o = pb - wb
                pieces.append((off, plen, arr[:, o:o + plen]))
            elif s == 0:
                row = lm[pb:pb + plen].copy()
                pieces.append((off, plen, np.broadcast_to(row, (m, plen))))
            elif s > 0:
                # zero-copy strided window over local memory (bounds were
                # checked above); consumers read it before any flush.
                view = np.lib.stride_tricks.as_strided(
                    lm[pb:], shape=(m, plen), strides=(s, 1)
                )
                pieces.append((off, plen, view))
            else:
                idx = (
                    pb
                    + np.arange(m, dtype=np.int64)[:, None] * s
                    + np.arange(plen, dtype=np.int64)[None, :]
                )
                pieces.append((off, plen, lm[idx]))
            off += plen
        if len(pieces) == 1:
            return pieces[0][2]
        buf = np.empty((m, l), dtype=np.int8)
        for off, plen, arr in pieces:
            buf[:, off:off + plen] = arr
        return buf

    # Map each op to its slot in ``plan_writes`` (cimload is the only op
    # that plans no memory write).
    _w_of_op: List[int] = []
    _wi = 0
    for _op in ops:
        if _op[0] == "cimload":
            _w_of_op.append(-1)
        else:
            _w_of_op.append(_wi)
            _wi += 1

    def read_acc_init(b, l, op_index):
        """Initial int32 row for a cumsum accumulator.

        Must be memory-resolved and untouched by any planned write other
        than the accumulating op's own -- another op writing even the
        *identical* region (e.g. a VEC_FILL reset each iteration) breaks
        the running-sum recurrence the cumsum closed form assumes.
        """
        if b < 0 or b + l > lsz:
            raise _Bail()
        own = _w_of_op[op_index]
        for k, sp in enumerate(all_spans):
            if k != own and sp[0] < b + l and b < sp[1]:
                raise _Bail()
        return lm[b:b + l].copy().view(np.int32)

    def as_i32(arr):
        return np.ascontiguousarray(arr).view(np.int32)

    for op_index, op in enumerate(ops):
        tag = op[0]
        if tag == "cpy":
            _, sb, ss, l, db, ds, gather = op
            data = read(sb, ss, l)
            if gather is not None:
                data = np.ascontiguousarray(data)[:, _gidx(*gather[:3])]
                l = gather[0] * gather[1]
            out.append((db, ds, l, data))
        elif tag == "gcpy":
            _, sb, ss, l, db, ds = op
            lo, hi = _span(sb, ss, l, m)
            if lo < GLOBAL_BASE or hi - GLOBAL_BASE > gm.size:
                raise _Bail()
            b0 = sb - GLOBAL_BASE
            if ss == 0:
                row = gm[b0:b0 + l].copy()
                data = np.broadcast_to(row, (m, l))
            elif ss > 0:
                # zero-copy window is safe: plans never write global
                # memory, so the view stays valid through the flush
                data = np.lib.stride_tricks.as_strided(
                    gm[b0:], shape=(m, l), strides=(ss, 1)
                )
            else:
                idx = (
                    b0
                    + np.arange(m, dtype=np.int64)[:, None] * ss
                    + np.arange(l, dtype=np.int64)[None, :]
                )
                data = gm[idx]
            out.append((db, ds, l, data))
        elif tag == "cimload":
            _, sb, ss, rows, cols, mg = op
            data = read(sb, ss, rows * cols)
            # int_matmul converts each K-chunk as it multiplies; only the
            # last matrix becomes a register (its own copy) at the flush.
            mats = np.ascontiguousarray(data).reshape(m, rows, cols)
            vmgs[mg] = mats
            mg_final[mg] = (mats, rows, cols)
        elif tag == "mvm":
            _, vb, vs, rows, cols, ob, os_, mg, flags, virt = op
            if virt:
                mats = vmgs[mg]
            else:
                entry = mgs[mg]
                if entry is None or entry[1] != rows or entry[2] != cols:
                    raise _Bail()
            vec = read(vb, vs, rows)
            if virt:
                # one (1, rows) @ (rows, cols) product per iteration
                res = int_matmul(vec[:, None, :], mats)[:, 0, :]
            else:
                res = int_matmul(vec, entry[0][:rows, :cols])
            if flags & 1:
                if os_ == 0:
                    # Loop-carried accumulation into one row: forward it
                    # as a running sum when the region is untouched by
                    # any other planned write (read() would have to
                    # resolve a step-0 self-read, which it refuses).
                    try:
                        prev = read(ob, os_, 4 * cols)
                        res = res + as_i32(prev)
                    except _Bail:
                        init = read_acc_init(ob, 4 * cols, op_index)
                        res = init[None, :] + np.cumsum(
                            res, axis=0, dtype=np.int32
                        )
                else:
                    prev = read(ob, os_, 4 * cols)
                    res = res + as_i32(prev)
            out.append((ob, os_, 4 * cols, res.view(np.int8)))
        elif tag == "qnt":
            _, ab, as_, n, db, ds, qmul, qshift = op
            acc = as_i32(read(ab, as_, 4 * n))
            y = requantize(acc, QuantParams(qmul=qmul, qshift=qshift))
            out.append((db, ds, n, np.ascontiguousarray(y)))
        elif tag == "add32":
            _, ab, as_, bb, bs, n, db, ds = op
            a = as_i32(read(ab, as_, 4 * n))
            b = as_i32(read(bb, bs, 4 * n))
            y = np.ascontiguousarray((a + b).astype(np.int32))
            out.append((db, ds, 4 * n, y.view(np.int8)))
        elif tag == "acc32":
            _, ab, as_, n, db = op
            src = np.ascontiguousarray(read(ab, as_, n)).astype(np.int32)
            init = read_acc_init(db, 4 * n, op_index)
            y = init[None, :] + np.cumsum(src, axis=0, dtype=np.int32)
            y = np.ascontiguousarray(y.astype(np.int32))
            out.append((db, 0, 4 * n, y.view(np.int8)))
        elif tag == "fill":
            _, value, funct, n, db, ds = op
            if funct == 4:
                row = np.full(n, value, dtype=np.int32).view(np.int8)
                out.append((db, ds, 4 * n,
                            np.broadcast_to(row, (m, 4 * n))))
            else:
                row = np.full(n, value, dtype=np.int8)
                out.append((db, ds, n, np.broadcast_to(row, (m, n))))
        elif tag == "cmul":
            _, ab, as_, scb, scs, ch, n, db, ds = op
            x = read(ab, as_, n)
            sc = read(scb, scs, ch)
            tiled = np.tile(np.ascontiguousarray(sc), (1, n // ch))
            y = cmul_i8(np.ascontiguousarray(x), tiled)
            out.append((db, ds, n, np.ascontiguousarray(y)))
        elif tag == "bin":
            _, vop, ab, as_, bb, bs, n, db, ds = op
            a = read(ab, as_, n)
            b = read(bb, bs, n)
            if vop == int(Op.VEC_MAX):
                y = np.maximum(a, b)
            elif vop == int(Op.VEC_MIN):
                y = np.minimum(a, b)
            else:
                a16 = np.ascontiguousarray(a).astype(np.int16)
                b16 = np.ascontiguousarray(b).astype(np.int16)
                if vop == int(Op.VEC_ADD):
                    y = saturate_i8(a16 + b16)
                elif vop == int(Op.VEC_SUB):
                    y = saturate_i8(a16 - b16)
                else:
                    y = saturate_i8(a16 * b16)
            out.append((db, ds, n, np.ascontiguousarray(y)))
        elif tag == "un":
            _, vop, ab, as_, n, db, ds = op
            x = read(ab, as_, n)
            if vop == int(Op.VEC_RELU):
                y = np.maximum(x, 0).astype(np.int8)
            elif vop == int(Op.VEC_RELU6):
                y = np.clip(x, 0, RELU6_CLIP).astype(np.int8)
            elif vop == int(Op.VEC_SILU):
                y = apply_lut(x, SILU_LUT)
            elif vop == int(Op.VEC_SIGMOID):
                y = apply_lut(x, SIGMOID_LUT)
            else:  # VEC_COPY
                y = np.ascontiguousarray(x)
            out.append((db, ds, n, y))
        else:  # pragma: no cover
            raise _Bail()

    if pre_flush is not None:
        pre_flush()

    # Phase B: flush in op order.
    for mg, shape in mg_final.items():
        mats, rows, cols = shape
        # copied: a view would pin the whole m-deep stack
        mgs[mg] = (mats[-1].copy(), rows, cols)
    for b, s, l, arr in out:
        if s == 0:
            lm[b:b + l] = arr[-1]
        elif s >= l:
            np.lib.stride_tricks.as_strided(
                lm[b:], shape=(m, l), strides=(s, 1)
            )[:] = arr
        elif -s >= l:
            idx = (
                b
                + np.arange(m, dtype=np.int64)[:, None] * s
                + np.arange(l, dtype=np.int64)[None, :]
            )
            lm[idx] = arr
        else:
            for i in range(m):
                lm[b + i * s:b + i * s + l] = arr[i]
