"""Hot-block execution engine: compiled loops + vectorized replay.

The per-instruction interpreter in :mod:`repro.sim.core` pays Python
dispatch, dict lookups and small-array NumPy call overhead for every
dynamic instruction.  This module removes that overhead in two stages
while keeping results **bit-identical** (the exactness contract the
engine-equivalence tests enforce):

1. **Compiled loop blocks.**  A program's *loop blocks* -- straight-line
   bodies closed by a backward conditional branch to their own first
   instruction (:meth:`repro.isa.Program.loop_blocks`) -- are compiled
   when the block table is built: once per *shape*, the sequence of
   opcodes and register fields with immediates lifted into a constants
   tuple, into a specialised Python function with the pipeline-timing
   model, memory fast paths and integer energy tallies inlined, which
   iterates inside itself, so a counted loop executes with no
   per-iteration dispatch at all.  Structurally identical loops (the
   same row body on every core, for instance) share one code object
   through the shape cache, and per-instance constants (addresses,
   immediates) are passed as a tuple.  Every other instruction runs on
   the interpreter's handler through the trampoline: ``compile()`` costs
   some twenty-five executions' worth of the time it saves, and a
   one-shot run executes its straight-line code once.

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

**One definition per opcode.**  :func:`_emit_instr` is the only place a
built-in opcode's timing, energy, register and memory semantics are
written.  A compiled loop renders it with the operands baked in;
:func:`compile_handler` renders it with the operands read from the
decoded tuple, and ``core._DISPATCH`` installs that handler the first
time the opcode executes.  The interpreter and the engine's
straight-line code therefore run the same definition the compiled loops
do.  The emitter, the batch planner's walk (:func:`_walk`) and batched
replay (:func:`_exec_batch`) read the same per-opcode declarations:
:data:`_ALU` (each scalar ALU op's result field and source text),
:data:`_VEC` (each vector op's operand regions, result, S_Regs, kernel
and energy), :data:`_COPY` (each copy-family op's counts, their checks,
byte counts and regions) and :func:`_fill`; no S_Reg is read but
through one.  Every copy is issued by :meth:`_Emit.copy`, which sends a
copy with a global end through :func:`issue_copy`.  The walk adds only
affine rules (ADD, SUB, MUL, ADDI, MULI, ADDIW); each plan op is
``(kind, args, read regions, write region)``.  The walk runs on the
concrete entry state, once per loop entry, and a loop instance keeps
its last plan: an entry in exactly the state of the last one walked (a
serving session replaying the same input shape) reuses it.

A loop body holding ``RECV``, an extension opcode or anything else the
code generator does not support is not compiled; it runs on the
interpreter's handlers one instruction at a time, like all
straight-line code (``fallback_instructions``).  Loops that *write*
global memory or send core-to-core messages (order-sensitive against
other cores) execute inside the generated function but are never
batched.  Engine selection is ``REPRO_SIM_ENGINE`` (``block``, the
default, or ``interp`` for the legacy interpreter).
"""

import functools
from dataclasses import fields
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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
from repro.isa import Opcode, SReg
from repro.sim.core import _UNITS, runaway_error, translate_program
from repro.sim.energy import EnergyAccountant
from repro.sim.noc import GLOBAL_PORT

Op = Opcode

_BRANCH_OPS = frozenset({int(Op.BEQ), int(Op.BNE), int(Op.BLT), int(Op.BGE)})

#: Position of each operand field in a decoded tuple.
_FIELD = {"rs": 1, "rt": 2, "rd": 3, "re": 4}

#: The scalar ALU: opcode -> (result field, source text).  The text is
#: over ``{a}`` (``r[rs]``), ``{b}`` (``r[rt]``), ``{imm}`` and
#: ``{off}``; the registers it names are the op's dependencies.
_ALU = {
    int(Op.SC_ADD): ("rd", "{a} + {b}"),
    int(Op.SC_SUB): ("rd", "{a} - {b}"),
    int(Op.SC_MUL): ("rd", "{a} * {b}"),
    int(Op.SC_SLT): ("rd", "1 if {a} < {b} else 0"),
    int(Op.SC_AND): ("rd", "{a} & {b}"),
    int(Op.SC_OR): ("rd", "{a} | {b}"),
    int(Op.SC_XOR): ("rd", "{a} ^ {b}"),
    int(Op.SC_SLL): ("rd", "{a} << ({b} & 31)"),
    int(Op.SC_SRL): ("rd", "({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    int(Op.SC_ADDI): ("rt", "{a} + {imm}"),
    int(Op.SC_MULI): ("rt", "{a} * {imm}"),
    int(Op.SC_SLTI): ("rt", "1 if {a} < {imm} else 0"),
    int(Op.SC_LUI): ("rt", "({off} & 0xFFFF) << 16"),
    int(Op.SC_ORI): ("rt", "{a} | ({off} & 0xFFFF)"),
    int(Op.SC_ADDIW): ("rt", "{a} + {off}"),
}

#: Each ALU text compiled once, over bound operand values: how the
#: batch planner's walk evaluates the ops it has no affine rule for.
_ALU_FN = {
    op: eval("lambda a, b, imm, off: "
             + text.format(a="a", b="b", imm="imm", off="off"))
    for op, (_, text) in _ALU.items()
}


def _saturating(ufunc):
    return lambda a, b: saturate_i8(ufunc(a.astype(np.int16),
                                          b.astype(np.int16)))


class _VecOp(NamedTuple):
    """One vector op, as the emitter, the planner's walk and batched
    replay all read it.

    ``reads`` are the operands, ``(field, element bytes, count)``: the
    count is ``"n"`` (the length register) or an S_Reg index that must
    be positive and divide ``n``.  ``out`` is the result ``(field,
    element bytes)``.  ``kernel`` takes the operands, then the values of
    the ``sregs``, and is written over any leading axes: one ``(n,)``
    operand in a block, an ``(M, n)`` stack in batched replay.  ``lr``
    is the local bytes read charged per element; an ``acc`` op adds its
    kernel's result to the int32 ``out`` region (a running sum when
    batched).
    """

    reads: Tuple
    out: Tuple
    kernel: Callable
    lr: int = 2
    sregs: Tuple = ()
    acc: bool = False


_A8 = (("rs", 1, "n"),)
_AB8 = (("rs", 1, "n"), ("rt", 1, "n"))
_I8 = ("rd", 1)

#: Every vector op but VEC_FILL (see :func:`_fill`).
_VEC = {
    int(Op.VEC_ADD): _VecOp(_AB8, _I8, _saturating(np.add)),
    int(Op.VEC_SUB): _VecOp(_AB8, _I8, _saturating(np.subtract)),
    int(Op.VEC_MUL): _VecOp(_AB8, _I8, _saturating(np.multiply)),
    # max/min of int8 cannot overflow: same bits, no widening.
    int(Op.VEC_MAX): _VecOp(_AB8, _I8, np.maximum),
    int(Op.VEC_MIN): _VecOp(_AB8, _I8, np.minimum),
    int(Op.VEC_RELU): _VecOp(
        _A8, _I8, lambda a: np.maximum(a, 0).astype(np.int8)),
    int(Op.VEC_RELU6): _VecOp(
        _A8, _I8, lambda a: np.clip(a, 0, RELU6_CLIP).astype(np.int8)),
    int(Op.VEC_SILU): _VecOp(_A8, _I8, lambda a: apply_lut(a, SILU_LUT)),
    int(Op.VEC_SIGMOID): _VecOp(
        _A8, _I8, lambda a: apply_lut(a, SIGMOID_LUT)),
    int(Op.VEC_COPY): _VecOp(_A8, _I8, np.copy),
    # per-channel scales: S_Reg CHANNEL_LEN bytes, tiled over the row
    int(Op.VEC_CMUL): _VecOp(
        (("rs", 1, "n"), ("rt", 1, int(SReg.CHANNEL_LEN))), _I8,
        lambda x, c: cmul_i8(x, np.tile(c, x.shape[-1] // c.shape[-1]))),
    int(Op.VEC_ADD32): _VecOp(
        (("rs", 4, "n"), ("rt", 4, "n")), ("rd", 4), np.add, lr=8),
    int(Op.VEC_QNT): _VecOp(
        (("rs", 4, "n"),), _I8,
        lambda x, q, sh: requantize(
            x, QuantParams(qmul=q if q > 1 else 1, qshift=sh)),
        lr=4, sregs=(int(SReg.QMUL), int(SReg.QSHIFT))),
    int(Op.VEC_ACC32): _VecOp(
        _A8, ("rd", 4), lambda x: x.astype(np.int32), lr=5, acc=True),
}


def _fill(value: int, n: int, funct: int) -> np.ndarray:
    """VEC_FILL's result: ``n`` copies of the sign-extended low byte of
    ``value`` (S_Reg FILL_VALUE), int32 when ``funct == 4``, else int8."""
    value &= 0xFF
    return np.full(n, value - 256 if value >= 128 else value,
                   dtype=np.int32 if funct == 4 else np.int8)


#: VEC_FILL's one S_Reg operand: the value :func:`_fill` repeats.
_FILL_VALUE = int(SReg.FILL_VALUE)


class _CopyOp(NamedTuple):
    """One copy-family op, as the emitter and the planner's walk read it.

    ``counts`` bind its count operands to locals, ``(local, register
    field or S_Reg)``: a negative length or a size below 1 raises
    ``error``, formatted over the locals.  ``sizes`` bind the byte counts
    derived from them, ``(local, expression)``.  ``reads`` and ``write``
    are its regions, ``(base field, element bytes, count local)``; with
    ``offset`` the write base adds the instruction's offset.  ``CIM_MVM``
    counts the rows ``_rw`` and columns ``_cl`` its group was loaded at.
    """

    counts: Tuple
    error: str
    sizes: Tuple
    reads: Tuple
    write: Optional[Tuple]
    offset: bool = False


#: The shape ``CIM_LOAD`` loads a macro group at, ``CIM_CFG`` narrows to.
_MG_SHAPE = (("_rw", SReg.MVM_ROWS), ("_cl", SReg.MVM_COLS))
_CHUNKS = (("_ck", SReg.CHUNK), ("_st", SReg.STRIDE), ("_n", "rd"))
#: A gather's strided source span and packed bytes (a scatter's reverse).
_CHUNK_SIZES = (("_sp", "(_n - 1) * _st + _ck if _n else 0"),
                ("_nb", "_n * _ck"))


def _length(field: str, op: int) -> Tuple:
    """The counts and error of an op whose one count is the length ``_n``
    in register ``field``."""
    return ((("_n", field),), f"{Op(op).name} length {{_n}} is negative")


_COPY = {
    int(Op.MEM_CPY): _CopyOp(
        *_length("rd", Op.MEM_CPY), (), (("rs", 1, "_n"),), ("rt", 1, "_n"),
        offset=True),
    int(Op.MEM_GATHER): _CopyOp(
        _CHUNKS, "bad gather chunk={_ck} stride={_st}", _CHUNK_SIZES,
        (("rs", 1, "_sp"),), ("rt", 1, "_nb")),
    int(Op.MEM_SCATTER): _CopyOp(
        _CHUNKS, "bad scatter chunk={_ck} stride={_st}", _CHUNK_SIZES,
        (("rs", 1, "_nb"), ("rt", 1, "_sp")), ("rt", 1, "_sp")),
    int(Op.CIM_LOAD): _CopyOp(
        _MG_SHAPE, "CIM_LOAD with rows={_rw} cols={_cl}",
        (("_n", "_rw * _cl"),), (("rs", 1, "_n"),), None),
    int(Op.CIM_MVM): _CopyOp(
        (), "", (), (("rs", 1, "_rw"),), ("re", 4, "_cl")),
}


#: Opcodes eligible for batched loop replay (no sends, no global-memory
#: writes, no register-load operations).
_BATCHABLE = frozenset(_ALU) | frozenset(_VEC) | frozenset({
    int(Op.VEC_FILL), int(Op.MV_G2S), int(Op.MV_S2G), int(Op.NOP),
    int(Op.SYNC), int(Op.MEM_CPY), int(Op.MEM_GATHER), int(Op.CIM_LOAD),
    int(Op.CIM_MVM),
})

#: Everything the code generator can compile.
_SUPPORTED = _BATCHABLE | _BRANCH_OPS | frozenset({
    int(Op.JMP), int(Op.MEM_LD), int(Op.MEM_ST), int(Op.MEM_SCATTER),
    int(Op.SEND), int(Op.CIM_CFG),
})

#: Do not bother batching loops expected to run fewer iterations.
_MIN_BATCH = 4

#: Give up batching a loop instance after this many failed plans.
_MAX_BATCH_FAILS = 3

#: Cheap engine counters (reset with :func:`reset_stats`); the perf
#: harness reports them alongside wall-clock numbers.
ENGINE_STATS = {
    "fallback_instructions": 0,   # outside a compiled loop, via its handler
    "loop_entries": 0,
    "loop_iterations_stepped": 0,  # executed one iteration at a time
    "loop_iterations_batched": 0,  # replayed in closed form
    "batch_attempts": 0,
    "batch_successes": 0,
    "template_builds": 0,          # loop entries planned by a walk
    "template_hits": 0,            # entries that reused the last plan
    "template_misfits": 0,         # entries whose key missed the last
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

def issue_copy(core, nbytes: int, src_global: bool, start: int) -> int:
    """Issue one ``nbytes`` copy with a global end at ``start``: a NoC
    message from (``src_global``) or to the global-memory port, charged
    as a global access, its local half and the message.  Returns the
    message's arrival cycle.  Generated code binds it as ``_ic`` (see
    :meth:`_Emit.copy`, its one renderer)."""
    chip = core.chip
    acct = chip.acct
    acct.global_access(nbytes)
    acct.local_copy(nbytes)  # the local half of the transfer
    src, dst = ((GLOBAL_PORT, core.core_id) if src_global
                else (core.core_id, GLOBAL_PORT))
    arrival = chip.noc.transfer(src, dst, nbytes, start)
    acct.noc_transfer(chip.noc.energy_pj(nbytes, src, dst))
    return arrival


def _mapped_copy(core, src, dst, nbytes):
    """The data half of a MEM_CPY off the scratchpad fast path: both
    ranges resolved (source first; one no array serves raises), then one
    slice assignment (NumPy buffers an overlapping pair).  A copy of
    parameter bytes into the scratchpad leaves the core's ``staged``
    note for :func:`_cim_register`."""
    mem = core.chip.memory
    cid = core.core_id
    backing, s = mem.resolve(cid, src, nbytes)
    target, d = mem.resolve(cid, dst, nbytes, True)
    target[d:d + nbytes] = backing[s:s + nbytes]
    if backing is mem.parameters and dst < GLOBAL_BASE:
        core.staged = (d, s, nbytes)


def _cim_register(core, addr, rows, cols):
    """The ``rows x cols`` register ``CIM_LOAD`` makes of the int8 bytes
    at ``addr``.  Bytes inside the core's ``staged`` note that still
    equal their parameter source are borrowed: a read-only view of
    ``MemorySystem.parameters``, which no run writes, so the register
    neither follows the scratchpad's next tile nor pins a byte the chip
    does not already share.  The comparison makes the note a hint: with
    no note, a range outside it, or staging rewritten since, the
    register is one owned int8 copy."""
    mem = core.chip.memory
    n = rows * cols
    note = core.staged
    if note is not None:
        local, offset, length = note
        k = addr - local
        if 0 <= k and k + n <= length:
            view = mem.parameters[offset + k:offset + k + n]
            if np.array_equal(mem.locals[core.core_id][addr:addr + n], view):
                return view.reshape(rows, cols)
    return mem.read(core.core_id, addr, n).reshape(rows, cols)


def _row_index(b: int, s: int, l: int, m: int) -> np.ndarray:
    """Byte indices of the ``m`` rows ``[b + i*s, b + i*s + l)``."""
    return (
        b
        + np.arange(m, dtype=np.int64)[:, None] * s
        + np.arange(l, dtype=np.int64)[None, :]
    )


def _rows(arr: np.ndarray, b: int, s: int, l: int, m: int) -> np.ndarray:
    """The ``(m, l)`` rows ``arr[b + i*s : b + i*s + l]``: one copied row
    broadcast for step 0, a zero-copy strided view (writable, valid
    while ``arr`` is) for a positive step, a gather for a negative one.
    The caller has checked every row lies inside ``arr``."""
    if s == 0:
        return np.broadcast_to(arr[b:b + l].copy(), (m, l))
    if s > 0:
        return np.lib.stride_tricks.as_strided(
            arr[b:], shape=(m, l), strides=(s, 1)
        )
    return arr[_row_index(b, s, l, m)]


@functools.lru_cache(maxsize=512)
def _gidx(count: int, chunk: int, stride: int) -> np.ndarray:
    """Memoised gather/scatter index pattern: ``count`` chunks of
    ``chunk`` bytes, ``stride`` bytes apart."""
    return _row_index(0, stride, chunk, count).reshape(-1)


# ---------------------------------------------------------------------------
# code generation: the one definition of every built-in opcode
# ---------------------------------------------------------------------------

class _Emit:
    """Accumulates the source of one rendered block or handler.

    Register, ``funct`` and ``flags`` operands are ints baked into a
    block's source, or expressions (``"t[3]"``) a handler reads from its
    decoded tuple at run time.
    """

    def __init__(self):
        self.lines: List[str] = []
        self.pad = ""
        self.units = set()
        self.dep_regs = set()
        self.uses = set()   # feature flags: mem, cost, vec, cim, send, sregs
        self.has_scalar_tally = False
        self.tallies = set()

    def w(self, line: str) -> None:
        self.lines.append(self.pad + line)

    def when(self, field, holds, cond: str, then, otherwise=None) -> None:
        """Render ``then()`` where ``holds(field)``, else ``otherwise()``:
        decided here for a baked field, by an emitted ``if`` (``cond``
        formatted with the field's expression) for a runtime one."""
        if isinstance(field, int):
            branch = then if holds(field) else otherwise
            if branch is not None:
                branch()
            return
        for test, branch in ((f"if {cond.format(field)}:", then),
                             ("else:", otherwise)):
            if branch is None:
                continue
            self.w(test)
            self.pad += "    "
            branch()
            self.pad = self.pad[:-4]

    def issue(self, unit: str, lat: str, occ: Optional[str] = None,
              deps: Tuple = ()) -> None:
        """Inline ``Core._issue``: leaves the start cycle in ``_t``.
        Baked deps skip r0 and repeats; runtime ones are read as they
        come (r0's ready time is never written, so it never stalls)."""
        u = unit[0]
        self.units.add(unit)
        self.w(f"_t = f_{u} if f_{u} > clk else clk")
        seen = set()
        for reg in deps:
            if isinstance(reg, int):
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

    def write_reg(self, reg, value: str, ready: str) -> None:
        """Write ``value`` (ready at ``ready``) to ``reg``; r0 stays 0."""
        def write():
            self.w(f"r[{reg}] = {value}")
            self.w(f"rr[{reg}] = {ready}")

        self.when(reg, bool, "{}", write)

    def operands(self, f: Tuple, counts: Tuple, error: str = "",
                 sizes: Tuple = ()) -> None:
        """Bind ``counts``, ``error`` and ``sizes`` as a :class:`_CopyOp`
        declares them, the register fields read from ``f``."""
        for local, source in counts:
            if isinstance(source, SReg):
                self.uses.add("sregs")
                self.w(f"{local} = s[{int(source)}]")
            else:
                self.w(f"{local} = r[{f[_FIELD[source]]}]")
        if error:
            bad = " or ".join(
                f"{local} {'<=' if isinstance(source, SReg) else '<'} 0"
                for local, source in counts)
            self.w(f"if {bad}: raise SimulationError("
                   f"f\"core {{cid}}: {error}\")")
        for local, text in sizes:
            self.w(f"{local} = {text}")

    def copy(self, nbytes, ends: str, src_global: str, deps: Tuple,
             extra: Optional[str] = None) -> None:
        """Issue one copy of ``nbytes`` on the mem unit, before its data
        moves: the scratchpad cost, raised to the global-memory cost when
        ``ends`` (an end is global) holds, plus ``extra`` cycles, in
        ``_c``; the start in ``_t``.  A copy with a global end is issued
        to the NoC (:func:`issue_copy`), any other charges the tallies."""
        self.uses.update(("mem", "cost"))
        if isinstance(nbytes, int):
            self.w(f"_m = {max(1, nbytes)}")
        else:
            self.w(f"_m = {nbytes} if {nbytes} > 0 else 1")
        self.w(f"_gl = {ends}")
        self.w("_c = (_m + LBW - 1) // LBW + LLT")
        self.w("if _gl:")
        self.w("    _g = (_m + GBW - 1) // GBW + GLT")
        self.w("    if _g > _c: _c = _g")
        if extra is not None:
            self.w(f"_c += {extra}")
        self.issue("mem", "_c", deps=deps)
        self.w("if _gl:")
        # The port's arrival: nothing waits on it yet (ROADMAP item 1(b)).
        self.w(f"    _ar = _ic(core, {nbytes}, {src_global}, _t)")
        self.w("else:")
        self.w(f"    t_lr += {nbytes}; t_lw += {nbytes}")
        self.tallies.update(("t_lr", "t_lw"))

    def read(self, reg, eb: int, n: str, out: str,
             copy: bool = False) -> None:
        """``out`` = the ``n`` int8 (``eb`` 1) or int32 (``eb`` 4)
        elements at ``r[reg]``: a scratchpad view (an owned copy with
        ``copy``), else read through the memory map."""
        self.uses.add("mem")
        nb = n if eb == 1 else f"4 * {n}"
        view = ".view(np.int32)" if eb == 4 else ""
        self.w(f"_a = r[{reg}]")
        self.w(f"if 0 <= _a and _a + {nb} <= LSZ:")
        self.w(f"    {out} = lm[_a:_a + {nb}]{view}"
               + (".copy()" if copy else ""))
        self.w("else:")
        self.w(f"    {out} = mem.read{'_i32' if eb == 4 else ''}"
               f"(cid, _a, {n})")

    def write(self, reg, eb: int, n: str, value: str) -> None:
        """Store the ``n`` int8 (``eb`` 1) or int32 (``eb`` 4) elements
        of ``value`` at ``r[reg]``."""
        self.uses.add("mem")
        nb = n if eb == 1 else f"4 * {n}"
        self.w(f"_o = r[{reg}]")
        self.w(f"if 0 <= _o and _o + {nb} <= LSZ:")
        self.w(f"    lm[_o:_o + {nb}] = {value}"
               + (".view(np.int8)" if eb == 4 else ""))
        self.w("else:")
        self.w(f"    mem.write{'_i32' if eb == 4 else ''}(cid, _o, {value})")


def _emit_instr(em: _Emit, f: Tuple) -> None:
    """Render one built-in instruction: the one definition of its timing,
    energy, register and memory semantics.

    ``f`` has the decoded tuple's layout ``(op, rs, rt, rd, re, imm,
    offset, funct, flags)``: the opcode is an int, every other field an
    operand (see :class:`_Emit`).  ``imm`` and ``offset`` are always
    expressions -- ``C[2*i]`` / ``C[2*i + 1]`` in a block, whose
    immediates are per-instance constants, ``t[5]`` / ``t[6]`` in a
    handler.  A branch leaves its outcome in ``_v``.
    """
    op, rs, rt, rd, re, imm, off, funct, flags = f

    if op in _ALU:
        field, text = _ALU[op]
        em.issue("scalar", "1", deps=tuple(
            reg for reg, name in ((rs, "{a}"), (rt, "{b}")) if name in text
        ))
        value = text.format(a=f"r[{rs}]", b=f"r[{rt}]", imm=imm, off=off)
        em.write_reg(f[_FIELD[field]], value, "_t + 1")
        em.scalar_tally()
    elif op in (int(Op.MV_G2S), int(Op.MV_S2G)):
        em.uses.add("sregs")
        em.issue("scalar", "1", deps=(rs,) if op == int(Op.MV_G2S) else ())
        em.w(f"_i = {imm}")
        em.w("if not 0 <= _i < len(s): "
             "raise SimulationError(f\"core {core.core_id}: "
             "bad S_Reg index {_i}\")")
        if op == int(Op.MV_G2S):
            em.w(f"s[_i] = r[{rs}]")
        else:
            em.write_reg(rt, "s[_i]", "_t + 1")
        em.scalar_tally()
    elif op in (int(Op.NOP), int(Op.SYNC), int(Op.JMP)):
        em.issue("scalar", "1")
    elif op == int(Op.MEM_CPY):
        em.operands(f, *_COPY[op][:3])
        em.w(f"_a = r[{rs}]")
        em.w(f"_b = r[{rt}] + {off}")
        em.copy("_n", "_a >= GB or _b >= GB", "_a >= GB", (rs, rt, rd))
        em.w("if 0 <= _a and _a + _n <= LSZ and 0 <= _b and _b + _n <= LSZ:")
        em.w("    if _a + _n <= _b or _b + _n <= _a or _a == _b:")
        em.w("        lm[_b:_b + _n] = lm[_a:_a + _n]")
        em.w("    else:")
        em.w("        lm[_b:_b + _n] = lm[_a:_a + _n].copy()")
        em.w("else:")
        em.w("    _mc(core, _a, _b, _n)")
    elif op == int(Op.MEM_LD):
        em.w(f"_a = r[{rs}] + {off}")
        em.copy(4, "_a >= GB", "True", (rs,))
        em.w("_v = mem.read_word(cid, _a)")
        em.write_reg(rt, "_v", "_t + _c")
    elif op == int(Op.MEM_ST):
        em.w(f"_a = r[{rs}] + {off}")
        em.copy(4, "_a >= GB", "False", (rs, rt))
        em.w(f"mem.write_word(cid, _a, r[{rt}])")
    elif op in (int(Op.MEM_GATHER), int(Op.MEM_SCATTER)):
        em.operands(f, *_COPY[op][:3])
        em.w(f"_a = r[{rs}]")
        em.w(f"_b = r[{rt}]")
        em.copy("_nb", "_a >= GB or _b >= GB", "_a >= GB", (rs, rt, rd),
                extra="_n")
        em.w("if _n:")
        if op == int(Op.MEM_GATHER):
            em.w("    _w = mem.read(cid, _a, _sp)")
            em.w("    mem.write(cid, _b, _w[_gidx(_n, _ck, _st)])")
        else:
            em.w("    _x = mem.read(cid, _a, _nb)")
            em.w("    _w = mem.read(cid, _b, _sp)")
            em.w("    _w[_gidx(_n, _ck, _st)] = _x")
            em.w("    mem.write(cid, _b, _w)")
    elif op == int(Op.SEND):
        em.uses.add("send")
        em.w(f"_d = r[{rt}]")
        em.operands(f, *_length("rd", op))
        em.w("_m = _n if _n > 0 else 1")
        em.w("_c = (_m + FLT - 1) // FLT")
        em.issue("xfer", "_c", deps=(rs, rt, rd))
        em.read(rs, 1, "_n", "_x", copy=True)
        em.w("_v = noc.transfer(cid, _d, _n, _t)")
        em.w("chip.deliver(cid, _d, _v, _x)")
        em.w("acct.noc_transfer(noc.energy_pj(_n, cid, _d))")
        em.w("t_lr += _n; t_lw += _n")
        em.tallies.update(("t_lr", "t_lw"))
    elif op == int(Op.CIM_LOAD):
        em.uses.update(("cim", "mem"))
        em.w(f"_g = r[{rt}]")
        em.w("if not 0 <= _g < len(mgs): raise SimulationError("
             "f\"core {cid}: macro group {_g} out of range\")")
        em.operands(f, *_COPY[op][:3])
        em.w(f"mgs[_g] = (_cr(core, r[{rs}], _rw, _cl), _rw, _cl)")
        em.issue("cim", "_rw + LLT", deps=(rs, rt))
        em.w("t_clb += _n; t_lr += _n")
        em.tallies.update(("t_clb", "t_lr"))
    elif op == int(Op.CIM_CFG):
        em.uses.add("cim")
        em.w(f"_g = r[{rt}]")
        em.operands(f, _MG_SHAPE)
        em.w("_e = mgs[_g]")
        em.w("if _e is None: raise SimulationError("
             "f\"core {core.core_id}: CIM_CFG on empty MG {_g}\")")
        em.w("_lr, _lc = _e[0].shape")
        em.w("if not (0 < _rw <= _lr and 0 < _cl <= _lc): "
             "raise SimulationError(f\"core {core.core_id}: CIM_CFG "
             "{_rw}x{_cl} on MG {_g} outside its loaded {_lr}x{_lc}\")")
        em.w("mgs[_g] = (_e[0], _rw, _cl)")
        em.issue("cim", "1", deps=(rt,))
    elif op == int(Op.CIM_MVM):
        em.uses.add("cim")
        em.w(f"_g = r[{rt}]")
        em.w("_e = mgs[_g]")
        em.w("if _e is None: raise SimulationError("
             "f\"core {cid}: CIM_MVM on unloaded macro group {_g}\")")
        em.w("_w, _rw, _cl = _e")
        (src, seb, rows), = _COPY[op].reads
        dst, deb, cols = _COPY[op].write
        em.read(f[_FIELD[src]], seb, rows, "_x")
        em.w("_v = int_matmul(_x, _w[:_rw, :_cl])")

        def accumulate():
            em.read(f[_FIELD[dst]], deb, cols, "_p")
            em.w("_v += _p")

        em.when(flags, lambda v: v & 1, "{} & 1", accumulate)
        # int_matmul returns a fresh C-contiguous int32 array, so it is
        # stored through a byte view with no further cast or copy.
        em.write(f[_FIELD[dst]], deb, cols, "_v")
        em.issue("cim", "MVL", occ="MVI", deps=(rs, rt, re))
        em.w("t_mac += _rw * _cl; t_mvr += _rw; t_mvb += 4 * _cl")
        em.w("t_lr += _rw; t_lw += 4 * _cl")
        em.tallies.update(("t_mac", "t_mvr", "t_mvb", "t_lr", "t_lw"))
    elif op in _VEC or op == int(Op.VEC_FILL):
        _emit_vec(em, f)
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


def _emit_vec(em: _Emit, f: Tuple) -> None:
    """The vector unit's part of :func:`_emit_instr`: a :data:`_VEC`
    entry, or VEC_FILL through :func:`_fill`."""
    op, rs, rt, rd, re, _, _, funct, _ = f
    em.uses.add("vec")
    em.operands(f, *_length("re", op))

    def store(reg, eb: int, lr: int) -> None:
        em.write(reg, eb, "_n", "_y")
        em.w(f"t_ve += _n; t_lr += {lr} * _n; t_lw += {eb} * _n")
        em.tallies.update(("t_ve", "t_lr", "t_lw"))

    if op == int(Op.VEC_FILL):
        em.uses.add("sregs")
        em.w(f"_y = _fill(s[{_FILL_VALUE}], _n, {funct})")
        em.when(funct, lambda v: v == 4, "{} == 4",
                lambda: store(rd, 4, 0), lambda: store(rd, 1, 0))
    else:
        spec = _VEC[op]
        for _, _, count in spec.reads:
            if count != "n":
                em.uses.add("sregs")
                em.w(f"_k = s[{count}]")
                em.w("if _k <= 0 or _n % _k: raise SimulationError("
                     f"f\"core {{cid}}: {Op(op).name} length {{_n}} not a "
                     "multiple of channel count {_k}\")")
        args = []
        for k, (field, eb, count) in enumerate(spec.reads):
            em.read(f[_FIELD[field]], eb, "_n" if count == "n" else "_k",
                    f"_x{k}")
            args.append(f"_x{k}")
        if spec.sregs:
            em.uses.add("sregs")
            args.extend(f"s[{i}]" for i in spec.sregs)
        em.w(f"_y = _V[{op}]({', '.join(args)})")
        field, eb = spec.out
        if spec.acc:
            em.read(f[_FIELD[field]], eb, "_n", "_p")
            em.w("_y = _y + _p")
        store(f[_FIELD[field]], eb, spec.lr)
    em.issue("vector", "(( _n if _n > 0 else 1) + LAN - 1) // LAN + VDP",
             deps=(rs, rt, rd, re))


_TALLY_FIELDS = {
    "t_lr": "local_bytes_read", "t_lw": "local_bytes_written",
    "t_mac": "macs", "t_mvr": "mvm_rows", "t_mvb": "mvm_result_bytes",
    "t_clb": "cim_load_bytes", "t_ve": "vec_elements",
}


def _frame(em: _Emit, head: str, code: List[str], tail: List[str]) -> str:
    """Wrap rendered ``code`` in a function: load the core state the
    rendering uses into locals, then store it back and run ``tail``."""
    body = [
        "r = core.regs",
        "rr = core.reg_ready",
        "clk = core.clock",
        "acct = core.chip.acct",
    ]
    units = sorted(em.units)
    for unit in units:
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

    epi = ["core.clock = clk"]
    if units:
        epi.append("uf = core.unit_free")
        epi.append("bz = core.busy")
        for unit in units:
            u = unit[0]
            epi.append(f"uf['{unit}'] = f_{u}")
            epi.append(f"bz['{unit}'] += b_{u}")
    if em.has_scalar_tally:
        epi.append("acct.n_scalar_ops += ns")
    for tally in sorted(em.tallies):
        epi.append(f"acct.{_TALLY_FIELDS[tally]} += {tally}")
    return "\n".join(
        [head] + ["    " + ln for ln in body + code + epi + tail]
    )


def _build_source(shape: Tuple) -> Tuple[str, set, set]:
    """Generate the function source for one loop-block shape: run at
    most ``max_iter`` iterations, return whether the loop exited.

    Returns (source, used units, dep registers).
    """
    em = _Emit()
    for i, t in enumerate(shape):
        _emit_instr(em, (*t[:5], f"C[{2 * i}]", f"C[{2 * i + 1}]", *t[7:9]))

    code = ["ni = 0", "_it = 0", "_ex = False", "while True:"]
    code.extend("    " + ln for ln in em.lines)
    code += [
        f"    ni += {len(shape)}",
        "    if not _v:",
        "        _ex = True",
        "        break",
        "    _it += 1",
        "    if _it >= max_iter:",
        "        break",
    ]
    ret = ["acct.n_instructions += ni", "core.instructions_retired += ni",
           "return _ex"]
    return (_frame(em, "def _block(core, C, max_iter):", code, ret),
            em.units, em.dep_regs)


_EXEC_GLOBALS = {
    "np": np,
    "SimulationError": SimulationError,
    "int_matmul": int_matmul,
    "GB": GLOBAL_BASE,
    "_ic": issue_copy,
    "_mc": _mapped_copy,
    "_cr": _cim_register,
    "_gidx": _gidx,
    "_V": {op: spec.kernel for op, spec in _VEC.items()},
    "_fill": _fill,
}

#: shape key -> (function, used units, dep regs)
_SHAPE_CACHE: Dict[Tuple, Tuple] = {}


def _compile_shape(shape: Tuple):
    entry = _SHAPE_CACHE.get(shape)
    if entry is None:
        if len(_SHAPE_CACHE) > 2048:
            _SHAPE_CACHE.clear()
        source, units, dep_regs = _build_source(shape)
        namespace: Dict = {}
        exec(compile(source, "<blockengine>", "exec"), _EXEC_GLOBALS, namespace)
        entry = (namespace["_block"], frozenset(units), frozenset(dep_regs))
        _SHAPE_CACHE[shape] = entry
    return entry


def compile_handler(op: int):
    """The interpreter's handler for built-in opcode ``op``: the
    rendering :func:`_emit_instr` gives a block, with the operands read
    from the decoded tuple ``t``.  It counts no instruction (its callers
    do) and leaves ``core.pc`` on the next instruction or the branch
    target.
    """
    em = _Emit()
    _emit_instr(em, (op, *(f"t[{k}]" for k in range(1, 9))))
    if op in _BRANCH_OPS:
        step = "t[6] if _v else 1"
    elif op == int(Op.JMP):
        step = "t[6]"
    else:
        step = "1"
    source = _frame(em, "def _handler(core, t):", em.lines,
                    [f"core.pc += {step}"])
    namespace: Dict = {}
    exec(compile(source, "<handler>", "exec"), _EXEC_GLOBALS, namespace)
    return namespace["_handler"]

# ---------------------------------------------------------------------------
# block discovery
# ---------------------------------------------------------------------------

class BlockInstance:
    """One loop block of one program: its code slice, from the loop head
    through the backward branch, compiled at discovery, and its batching
    state.  Instances live in the content-addressed :data:`_BP_CACHE`, so
    the compiled function and the last plan carry over to every later
    simulation of the same program in the process.
    """

    __slots__ = (
        "code", "length", "exit_pc", "fn", "consts", "units", "dep_regs",
        "batch_ok", "batch_fails", "cnt_reg", "bound_reg", "last_plan",
    )

    def __init__(self, code, start):
        self.code = code
        self.length = len(code)
        self.exit_pc = start + len(code)
        self.fn, self.units, self.dep_regs = _compile_shape(tuple(
            (t[0], t[1], t[2], t[3], t[4], 0, 0, t[7], t[8]) for t in code
        ))
        self.consts = tuple(v for t in code for v in (t[5], t[6]))
        self.batch_ok = (
            code[-1][0] == int(Op.BLT)
            and all(t[0] in _BATCHABLE for t in code[:-1])
        )
        self.batch_fails = 0
        self.cnt_reg = code[-1][1]
        self.bound_reg = code[-1][2]
        #: ``(key, (plan, m))`` of the entry last walked (see
        #: :func:`_plan_entry`).
        self.last_plan: Optional[Tuple] = None


class BlockProgram:
    """Block table for one translated program: a :class:`BlockInstance`
    at each compiled loop head, None at every other pc."""

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


def block_program_for(program, registry) -> BlockProgram:
    """Build (or fetch) the block table for ``program``.

    Content-addressed: cores -- and simulator instances -- running
    structurally identical programs share one :class:`BlockProgram` and
    therefore every compiled loop.  The table holds the program's own
    loop blocks (:meth:`repro.isa.Program.loop_blocks`) whose every
    instruction the code generator supports.
    """
    code = translate_program(program, registry)
    bp = _BP_CACHE.get(code)
    if bp is not None:
        return bp
    if len(_BP_CACHE) > 512:
        _BP_CACHE.clear()

    table: List[Optional[BlockInstance]] = [None] * len(code)
    for block in program.loop_blocks():
        body = code[block.head:block.branch + 1]
        if all(t[0] in _SUPPORTED for t in body):
            table[block.head] = BlockInstance(body, block.head)
    bp = BlockProgram(code, table)
    _BP_CACHE[code] = bp
    return bp


# ---------------------------------------------------------------------------
# trampoline
# ---------------------------------------------------------------------------

def run_core(core, max_instructions: int = 50_000_000) -> int:
    """Engine replacement for ``Core.run`` (same contract, same states):
    a compiled loop runs in :func:`_run_loop`, any other instruction on
    the interpreter's handler."""
    bp = core._blockprog
    table = bp.table
    code = bp.code
    n = bp.n
    dispatch = core._dispatch
    acct = core.chip.acct
    limit = core.instructions_retired + max_instructions
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
            acct.n_instructions += 1
            result = dispatch[tup[0]](core, tup)
            core.instructions_retired += 1
            ENGINE_STATS["fallback_instructions"] += 1
            if result is not None:
                core.state = result
                return result
        else:
            core.pc = _run_loop(core, inst, limit - core.instructions_retired,
                                max_instructions)
        if core.instructions_retired >= limit:
            raise runaway_error(core, max_instructions)


# ---------------------------------------------------------------------------
# loop driver: warm-up, steady-state detection, batched replay
# ---------------------------------------------------------------------------

#: The accountant's integer tallies, which a timing snapshot carries.
_ACCT_FIELDS = tuple(f.name for f in fields(EnergyAccountant)
                     if f.type is int)

# snapshot layout offsets
_S_CLK = 0
_S_UF = 1                  # 5 entries
_S_BUSY = 6                # 5 entries
_S_REGS = 11               # 32 entries
_S_RR = 43                 # 32 entries
_S_SREGS = 75              # 16 entries
_S_ACCT = 91               # len(_ACCT_FIELDS) entries
_S_RETIRED = _S_ACCT + len(_ACCT_FIELDS)


def _snapshot(core) -> Tuple[int, ...]:
    uf = core.unit_free
    bz = core.busy
    acct = core.chip.acct
    return (
        core.clock, *(uf[u] for u in _UNITS), *(bz[u] for u in _UNITS),
        *core.regs, *core.reg_ready, *core.sregs,
        *(getattr(acct, name) for name in _ACCT_FIELDS),
        core.instructions_retired,
    )


def _apply_delta(core, d: Tuple[int, ...], m: int) -> None:
    core.clock += m * d[_S_CLK]
    for i, unit in enumerate(_UNITS):
        core.unit_free[unit] += m * d[_S_UF + i]
        core.busy[unit] += m * d[_S_BUSY + i]
    for base, values in ((_S_REGS, core.regs), (_S_RR, core.reg_ready),
                         (_S_SREGS, core.sregs)):
        for i, dv in enumerate(d[base:base + len(values)]):
            if dv:
                values[i] += m * dv
    acct = core.chip.acct
    for name, dv in zip(_ACCT_FIELDS, d[_S_ACCT:]):
        if dv:
            setattr(acct, name, getattr(acct, name) + m * dv)
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
    return [(s, d, n, t + d_clk) for s, d, n, t in prev_txns or ()] == txns


def _run_loop(core, inst: BlockInstance, budget: int,
              max_instructions: int) -> int:
    """Execute one loop block to completion; returns the exit pc."""
    fn = inst.fn
    consts = inst.consts
    span = inst.length
    if budget <= 0:
        raise runaway_error(core, max_instructions)
    max_iter = max(1, budget // span)
    ENGINE_STATS["loop_entries"] += 1
    retired0 = core.instructions_retired

    def stepped_exit():
        ENGINE_STATS["loop_iterations_stepped"] += (
            core.instructions_retired - retired0
        ) // span
        return inst.exit_pc

    def run_out(iterations):
        """Step the rest in the generated loop, which must exit within
        ``iterations``."""
        if not fn(core, consts, iterations):
            raise runaway_error(core, max_instructions)
        return stepped_exit()

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
        return run_out(max_iter)

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
                raise runaway_error(core, max_instructions)
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
                    return run_out(max_iter - done)
            if done > 24:
                # No steady state in sight; run the rest in the JIT loop.
                return run_out(max_iter - done)
            prev_delta = delta
            prev = now
            prev_txns = txns
    finally:
        noc.trace = outer_trace


class _Bail(Exception):
    """Internal: the batched replay cannot be applied; fall back."""


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
        gcpys = [(GLOBAL_PORT, core.core_id, op[3][2])
                 for op in plan if op[0] == "gcpy"]
        if gcpys or noc_txns:
            # Every NoC message the measured iteration issued must be a
            # planned global copy's, in body order, with its direction
            # and size: the batch accounts for no other NoC effect.
            if gcpys != [txn[:3] for txn in noc_txns]:
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
# the batch planner: one concrete walk per loop entry, the last plan reused
# ---------------------------------------------------------------------------

#: A plan op is ``(kind, args, read regions, write region or None)``; a
#: region is ``(base, step, nbytes)``.  Kinds: ``cpy`` (args: None, or
#: MEM_GATHER's ``(count, chunk, stride)``), ``gcpy`` (a global-source
#: MEM_CPY), ``cimload`` (``(rows, cols, mg)``; no write), ``mvm``
#: (``(rows, cols, mg, flags, in-loop load)``), ``vec`` (the opcode,
#: then its :data:`_VEC` S_Reg values) and ``fill`` (the arguments of
#: :func:`_fill`).

def _plan_entry(core, inst: BlockInstance, delta: Tuple[int, ...],
                max_iterations: int):
    """The concrete ``(plan, m)`` of the current loop entry.

    A plan is a function of exactly what :func:`_walk` reads: the step
    delta, the entry registers and S-registers, each macro group's
    loaded shape and the scratchpad size.  An entry whose key equals the
    one the instance last walked reuses that plan (a serving session
    re-enters every loop in the state of the previous input); any other
    entry is walked and its plan replaces the stored one.  Raises
    :class:`_Bail` when the entry does not batch.  Read-only: performs
    no mutation of the core.
    """
    key = (
        delta, tuple(core.regs), tuple(core.sregs),
        tuple(None if g is None else (g[1], g[2]) for g in core.mgs),
        core.chip.memory.local_size,
    )
    last = inst.last_plan
    if last is not None and last[0] == key:
        ENGINE_STATS["template_hits"] += 1
        plan = last[1]
    else:
        if last is not None:
            ENGINE_STATS["template_misfits"] += 1
        ENGINE_STATS["template_builds"] += 1
        plan = _walk(core, inst, delta)
        inst.last_plan = (key, plan)
    if plan[1] > max_iterations:
        # Over the caller's instruction budget: fall back to the stepped
        # path, which raises the interpreter's runaway error cleanly.
        raise _Bail()
    return plan


def _walk(core, inst: BlockInstance, delta: Tuple[int, ...]):
    """The affine walk of a loop body from the current entry: the batch
    planner.

    Each register is a ``(value, step)`` pair, its value read from the
    core and its step from the measured per-iteration ``delta``.  Op
    lengths, macro-group indices and S_Reg operands must be
    loop-invariant; the ALU keeps only affine rules (ADD, SUB, MUL by an
    invariant, ADDI, MULI, ADDIW) and needs invariant operands for every
    other op.  The walked end-of-body registers must equal the entry
    values plus the measured steps, the closing ``BLT`` gives the trip
    count ``m``, every write must stay inside local memory for all ``m``
    iterations and no two write regions may collide.  Returns
    ``(plan ops, m)``; raises :class:`_Bail` when the entry does not
    batch.
    """
    entry = (*core.regs, *core.sregs)
    steps = delta[_S_REGS:_S_REGS + 32] + delta[_S_SREGS:_S_SREGS + 16]
    regs = list(zip(entry[:32], steps[:32]))
    sregs = list(zip(entry[32:], steps[32:]))
    mgs = core.mgs
    ops: List[Tuple] = []
    vmg_shapes: Dict[int, Tuple[int, int]] = {}
    entry_mg_used: set = set()

    def invariant(pair) -> int:
        value, step = pair
        if step != 0:
            raise _Bail()
        return value

    body = inst.code[:-1]
    branch = inst.code[-1]
    for t in body:
        op = t[0]
        rs, rt, rd, re = t[1], t[2], t[3], t[4]
        imm, off, funct, flags = t[5], t[6], t[7], t[8]
        if op in _ALU:
            (a, a_s), (b, b_s) = regs[rs], regs[rt]
            if op == int(Op.SC_ADD):
                value = (a + b, a_s + b_s)
            elif op == int(Op.SC_SUB):
                value = (a - b, a_s - b_s)
            elif op == int(Op.SC_MUL):
                if a_s == 0:
                    value = (a * b, a * b_s)
                elif b_s == 0:
                    value = (a * b, a_s * b)
                else:
                    raise _Bail()
            elif op == int(Op.SC_ADDI):
                value = (a + imm, a_s)
            elif op == int(Op.SC_MULI):
                value = (a * imm, a_s * imm)
            elif op == int(Op.SC_ADDIW):
                value = (a + off, a_s)
            else:
                text = _ALU[op][1]
                a = invariant(regs[rs]) if "{a}" in text else 0
                b = invariant(regs[rt]) if "{b}" in text else 0
                value = (_ALU_FN[op](a, b, imm, off), 0)
            _wr(regs, t[_FIELD[_ALU[op][0]]], value)
        elif op in (int(Op.MV_G2S), int(Op.MV_S2G)):
            if not 0 <= imm < 16:
                raise _Bail()
            if op == int(Op.MV_G2S):
                sregs[imm] = regs[rs]
            else:
                _wr(regs, rt, sregs[imm])
        elif op in (int(Op.NOP), int(Op.SYNC)):
            pass
        elif op in _COPY:
            spec = _COPY[op]
            size: Dict[str, int] = {}
            if op in (int(Op.CIM_LOAD), int(Op.CIM_MVM)):
                mg = invariant(regs[rt])
                if not 0 <= mg < len(mgs):
                    raise _Bail()
                virt = mg in vmg_shapes
            if op == int(Op.CIM_MVM):
                if not virt:
                    if mgs[mg] is None:
                        raise _Bail()
                    entry_mg_used.add(mg)
                size["_rw"], size["_cl"] = (
                    vmg_shapes[mg] if virt else mgs[mg][1:])
            for local, source in spec.counts:
                size[local] = invariant(
                    sregs[source] if isinstance(source, SReg)
                    else regs[t[_FIELD[source]]])
                if size[local] <= 0:
                    raise _Bail()
            for local, text in spec.sizes:
                size[local] = eval(text, {}, size)

            def region(field, eb, count, shift=0):
                base, step = regs[t[_FIELD[field]]]
                return base + shift, step, eb * size[count]

            reads = tuple(region(*r) for r in spec.reads)
            write = spec.write and region(
                *spec.write, off if spec.offset else 0)
            if op == int(Op.MEM_CPY):
                if write[0] >= GLOBAL_BASE:
                    # Global-memory writes are visible to other cores;
                    # replay order matters, so never batch them.
                    raise _Bail()
                # A global source streams (weights/activations): one NoC
                # message per iteration.
                kind = "gcpy" if reads[0][0] >= GLOBAL_BASE else "cpy"
                args = None
            elif op == int(Op.MEM_GATHER):
                kind, args = "cpy", (size["_n"], size["_ck"], size["_st"])
            elif op == int(Op.CIM_LOAD):
                if mg in entry_mg_used:
                    # An earlier MVM on this mg reads the *previous*
                    # iteration's load: a loop-carried macro-group
                    # dependency the batched replay does not model.
                    raise _Bail()
                vmg_shapes[mg] = (size["_rw"], size["_cl"])
                kind, args = "cimload", (*vmg_shapes[mg], mg)
            elif op == int(Op.CIM_MVM):
                kind = "mvm"
                args = (size["_rw"], size["_cl"], mg, flags, virt)
            else:  # a scatter is never batched
                raise _Bail()
            ops.append((kind, args, reads, write))
        elif op in _VEC or op == int(Op.VEC_FILL):
            n = invariant(regs[re])
            if n <= 0:
                raise _Bail()
            if op == int(Op.VEC_FILL):
                fill = invariant(sregs[_FILL_VALUE])
                ops.append(("fill", (fill, n, funct), (),
                            (*regs[rd], 4 * n if funct == 4 else n)))
                continue
            spec = _VEC[op]
            reads = []
            for field, eb, count in spec.reads:
                if count != "n":
                    count = invariant(sregs[count])
                    if count <= 0 or n % count:
                        raise _Bail()
                else:
                    count = n
                reads.append((*regs[t[_FIELD[field]]], eb * count))
            args = (op, *(invariant(sregs[i]) for i in spec.sregs))
            wb, ws = regs[t[_FIELD[spec.out[0]]]]
            if spec.acc and ws != 0:
                raise _Bail()
            ops.append(("vec", args, tuple(reads),
                        (wb, ws, spec.out[1] * n)))
        else:
            raise _Bail()

    # Cross-check the affine model against the measured per-iteration
    # deltas: every walked end-of-body register must equal its entry
    # value plus its measured step.
    for (value, step), value0, step0 in zip(regs + sregs, entry, steps):
        if step != step0 or value != value0 + step0:
            raise _Bail()

    # The closing BLT: the body executes while cnt < bound at the branch;
    # the walked end-of-body values give the first batched branch.
    cnt, cnt_s = regs[branch[1]]
    bound, bound_s = regs[branch[2]]
    if cnt_s <= 0 or bound_s != 0:
        raise _Bail()
    m = 1 if cnt >= bound else 1 + (bound - cnt + cnt_s - 1) // cnt_s

    # Every write must stay inside local memory for the whole batch.
    writes = [op[3] for op in ops if op[3] is not None]
    spans = [_span(b, s, l, m) for b, s, l in writes]
    lsz = core.chip.memory.local_size
    for lo, hi in spans:
        if lo < 0 or hi > lsz:
            raise _Bail()
    # Distinct write regions must never touch a common byte at any pair
    # of iterations (iteration-aware for regions sharing a step;
    # conservative span test otherwise).  Two overlapping *step-0*
    # writes are benign: the flush applies final rows in op order (the
    # stepped outcome) and reads resolve through the same newest-cover
    # forwarding.  :func:`_regions_collide` itself stays strict: a read
    # piece resolved from memory does treat a step-0 overlap as
    # loop-carried interference.
    for i in range(len(writes)):
        for j in range(i + 1, len(writes)):
            w1, w2 = writes[i], writes[j]
            if w1 != w2 and (w1[1] or w2[1]) and _regions_collide(
                    w1, w2, spans[i], spans[j], m):
                raise _Bail()
    return ops, m


def _exec_batch(core, ops, m: int, pre_flush=None) -> None:
    """Run the batched dataflow of plan ``ops`` for ``m`` iterations and
    flush memory.

    Phase A computes every value (raising :class:`_Bail` without side
    effects when a region cannot be resolved); phase B flushes.
    ``pre_flush``, when given, runs between the phases: it may still
    raise :class:`_Bail` (nothing has been mutated yet) but must leave
    no side effects behind when it does -- it is how the NoC replay
    commits atomically with the memory flush.
    """
    mem = core.chip.memory
    lm = mem.locals[core.core_id]
    lsz = mem.local_size
    mgs = core.mgs
    out: List[Tuple[int, int, int, np.ndarray]] = []
    vmgs: Dict[int, np.ndarray] = {}
    mg_final: Dict[int, Tuple[np.ndarray, int, int]] = {}
    #: per op: the span of its write region (None: it writes nothing)
    spans = [None if op[3] is None else _span(*op[3], m) for op in ops]
    writes = [(op[3], sp) for op, sp in zip(ops, spans) if sp is not None]
    # The flush writes through unchecked strided views: a write leaving
    # the scratchpad is the stepped path's error to raise.
    if any(lo < 0 or hi > lsz for _, (lo, hi) in writes):
        raise _Bail()

    def _piece_hazard(pb, s, plen, forwarded):
        """Bail on loop-carried interference with this read piece.

        A forwarded piece is shadowed by its (newest, same-step, whole-
        piece) cover, so only differently-stepped writes endanger it; a
        memory-resolved piece must not collide with any planned write.
        """
        region = (pb, s, plen)
        pspan = _span(pb, s, plen, m)
        for w, wspan in writes:
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
            else:
                # bounds were checked above; a strided view is read by
                # its consumer before any flush
                pieces.append((off, plen, _rows(lm, pb, s, plen, m)))
            off += plen
        if len(pieces) == 1:
            return pieces[0][2]
        buf = np.empty((m, l), dtype=np.int8)
        for off, plen, arr in pieces:
            buf[:, off:off + plen] = arr
        return buf

    def running_sum(index, rows):
        """The closed form of op ``index`` accumulating ``rows`` into its
        own step-0 int32 region: the region's entry row plus the running
        sum.  The region must be untouched by any other planned write --
        another op writing even the *identical* region (a VEC_FILL
        reset each iteration, say) breaks the recurrence."""
        b, _, l = ops[index][3]
        for k, sp in enumerate(spans):
            if k != index and sp is not None and sp[0] < b + l and b < sp[1]:
                raise _Bail()
        init = lm[b:b + l].copy().view(np.int32)
        return init[None, :] + np.cumsum(rows, axis=0, dtype=np.int32)

    def as_i32(arr):
        return np.ascontiguousarray(arr).view(np.int32)

    for index, (kind, args, reads, w) in enumerate(ops):
        if kind == "cpy":
            data = read(*reads[0])
            if args is not None:
                data = np.ascontiguousarray(data)[:, _gidx(*args)]
        elif kind == "gcpy":
            sb, ss, l = reads[0]
            lo, hi = _span(sb, ss, l, m)
            found = mem.segment(lo - GLOBAL_BASE, hi - GLOBAL_BASE)
            if found is None:
                # outside global memory, or straddling its two segments
                raise _Bail()
            gm, start = found
            # a zero-copy window is safe: plans never write global
            # memory, so the view stays valid through the flush
            data = _rows(gm, sb - GLOBAL_BASE - start, ss, l, m)
        elif kind == "cimload":
            rows, cols, mg = args
            # int_matmul converts each K-chunk as it multiplies; only the
            # last matrix becomes a register (its own copy) at the flush.
            mats = np.ascontiguousarray(read(*reads[0])).reshape(
                m, rows, cols)
            vmgs[mg] = mats
            mg_final[mg] = (mats, rows, cols)
            continue
        elif kind == "mvm":
            rows, cols, mg, flags, virt = args
            if not virt:
                entry = mgs[mg]
                if entry is None or entry[1] != rows or entry[2] != cols:
                    raise _Bail()
            vec = read(*reads[0])
            if virt:
                # one (1, rows) @ (rows, cols) product per iteration
                res = int_matmul(vec[:, None, :], vmgs[mg])[:, 0, :]
            else:
                res = int_matmul(vec, entry[0][:rows, :cols])
            if flags & 1:
                try:
                    res = res + as_i32(read(*w))
                except _Bail:
                    # A step-0 accumulator no earlier op of the body
                    # wrote: read() refuses the loop-carried self-read.
                    if w[1] != 0:
                        raise
                    res = running_sum(index, res)
            data = res.view(np.int8)
        elif kind == "vec":
            spec = _VEC[args[0]]
            y = spec.kernel(*(
                read(*r) if eb == 1 else as_i32(read(*r))
                for r, (_, eb, _) in zip(reads, spec.reads)
            ), *args[1:])
            if spec.acc:
                y = running_sum(index, y)
            data = np.ascontiguousarray(y).view(np.int8)
        else:  # "fill"
            row = _fill(*args).view(np.int8)
            data = np.broadcast_to(row, (m, row.size))
        out.append((*w, data))

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
            _rows(lm, b, s, l, m)[:] = arr
        elif -s >= l:
            lm[_row_index(b, s, l, m)] = arr
        else:
            for i in range(m):
                lm[b + i * s:b + i * s + l] = arr[i]
