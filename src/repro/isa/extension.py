"""The ISA registry: built-in instruction table plus runtime extensions.

The paper's ISA "is designed for extensibility through incorporating a
customized instruction description template, which enables seamless
integration of new operations into the framework when provided with their
associated performance parameters."  :class:`ISARegistry` implements that:
a new :class:`InstructionDescriptor` with a latency (and optionally an
energy figure) can be registered at runtime, after which the assembler,
encoder, and simulator all accept the new operation.
"""

from typing import Dict, Iterable, List, Optional

from repro.errors import ISAError
from repro.isa.formats import Format
from repro.isa.instruction import InstructionDescriptor
from repro.isa.opcodes import EXTENSION_OPCODES, Category, Opcode

_D = InstructionDescriptor
_C = Category
_F = Format

#: The built-in instruction table (mnemonic, opcode, category, format,
#: operands, one-line documentation).
_BUILTINS: List[InstructionDescriptor] = [
    # CIM compute -----------------------------------------------------------
    _D("CIM_MVM", Opcode.CIM_MVM, _C.CIM, _F.CIM, ("rs", "rt", "re", "flags"),
       "MVM on macro group [rt]: input vector at [rs] -> int32 outputs at "
       "[re]; flags bit0 = accumulate into existing outputs"),
    _D("CIM_LOAD", Opcode.CIM_LOAD, _C.CIM, _F.CIM, ("rs", "rt"),
       "Load a weight tile from memory [rs] into macro group [rt]; tile "
       "shape is taken from S_MVM_ROWS x S_MVM_COLS"),
    _D("CIM_CFG", Opcode.CIM_CFG, _C.CIM, _F.CIM, ("rt",),
       "Reconfigure macro group [rt] tile metadata from S_MVM_ROWS/COLS"),
    # Vector compute ---------------------------------------------------------
    _D("VEC_ADD", Opcode.VEC_ADD, _C.VECTOR, _F.VEC, ("rs", "rt", "rd", "re"),
       "int8 [rd][i] = sat(int8 [rs][i] + int8 [rt][i]) for re elements"),
    _D("VEC_SUB", Opcode.VEC_SUB, _C.VECTOR, _F.VEC, ("rs", "rt", "rd", "re"),
       "int8 saturating elementwise subtract"),
    _D("VEC_MUL", Opcode.VEC_MUL, _C.VECTOR, _F.VEC, ("rs", "rt", "rd", "re"),
       "int8 saturating elementwise multiply"),
    _D("VEC_MAX", Opcode.VEC_MAX, _C.VECTOR, _F.VEC, ("rs", "rt", "rd", "re"),
       "int8 elementwise maximum"),
    _D("VEC_MIN", Opcode.VEC_MIN, _C.VECTOR, _F.VEC, ("rs", "rt", "rd", "re"),
       "int8 elementwise minimum"),
    _D("VEC_RELU", Opcode.VEC_RELU, _C.VECTOR, _F.VEC, ("rs", "rd", "re"),
       "int8 [rd][i] = max(0, [rs][i])"),
    _D("VEC_RELU6", Opcode.VEC_RELU6, _C.VECTOR, _F.VEC, ("rs", "rd", "re"),
       "quantized ReLU6 clamp"),
    _D("VEC_SILU", Opcode.VEC_SILU, _C.VECTOR, _F.VEC, ("rs", "rd", "re"),
       "quantized SiLU (x * sigmoid(x)) via lookup table"),
    _D("VEC_SIGMOID", Opcode.VEC_SIGMOID, _C.VECTOR, _F.VEC, ("rs", "rd", "re"),
       "quantized sigmoid via lookup table"),
    _D("VEC_COPY", Opcode.VEC_COPY, _C.VECTOR, _F.VEC, ("rs", "rd", "re"),
       "copy re int8 elements"),
    _D("VEC_ADD32", Opcode.VEC_ADD32, _C.VECTOR, _F.VEC, ("rs", "rt", "rd", "re"),
       "int32 [rd][i] = [rs][i] + [rt][i] (bias / partial-sum merge)"),
    _D("VEC_QNT", Opcode.VEC_QNT, _C.VECTOR, _F.VEC, ("rs", "rd", "re"),
       "requantize re int32 accumulators to int8: "
       "clip(([rs][i] * S_QMUL) >> S_QSHIFT)"),
    _D("VEC_ACC32", Opcode.VEC_ACC32, _C.VECTOR, _F.VEC, ("rs", "rd", "re"),
       "int32 [rd][i] += widened int8 [rs][i] (pooling accumulation)"),
    _D("VEC_FILL", Opcode.VEC_FILL, _C.VECTOR, _F.VEC, ("rd", "re", "funct"),
       "fill re elements at [rd] with S_FILL_VALUE; funct=4 fills int32"),
    _D("VEC_CMUL", Opcode.VEC_CMUL, _C.VECTOR, _F.VEC, ("rs", "rt", "rd", "re"),
       "per-channel scale: int8 [rd][i] = ([rs][i] * [rt][i % C]) >> 7 "
       "with C = S_CHANNEL_LEN (squeeze-excite broadcast multiply)"),
    # Scalar compute ----------------------------------------------------------
    _D("SC_ADD", Opcode.SC_ADD, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = rs + rt"),
    _D("SC_SUB", Opcode.SC_SUB, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = rs - rt"),
    _D("SC_MUL", Opcode.SC_MUL, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = rs * rt"),
    _D("SC_SLT", Opcode.SC_SLT, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = 1 if rs < rt else 0"),
    _D("SC_AND", Opcode.SC_AND, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = rs & rt"),
    _D("SC_OR", Opcode.SC_OR, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = rs | rt"),
    _D("SC_XOR", Opcode.SC_XOR, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = rs ^ rt"),
    _D("SC_SLL", Opcode.SC_SLL, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = rs << rt"),
    _D("SC_SRL", Opcode.SC_SRL, _C.SCALAR, _F.VEC, ("rs", "rt", "rd"),
       "rd = rs >> rt (logical)"),
    _D("SC_ADDI", Opcode.SC_ADDI, _C.SCALAR, _F.SCALAR_I, ("rs", "rt", "imm"),
       "rt = rs + signed 10-bit immediate"),
    _D("SC_MULI", Opcode.SC_MULI, _C.SCALAR, _F.SCALAR_I, ("rs", "rt", "imm"),
       "rt = rs * signed 10-bit immediate"),
    _D("SC_SLTI", Opcode.SC_SLTI, _C.SCALAR, _F.SCALAR_I, ("rs", "rt", "imm"),
       "rt = 1 if rs < imm else 0"),
    _D("SC_LUI", Opcode.SC_LUI, _C.SCALAR, _F.CTL, ("rt", "offset"),
       "rt = offset << 16 (load upper immediate, zero-extending)",
       unsigned_fields=("offset",)),
    _D("SC_ORI", Opcode.SC_ORI, _C.SCALAR, _F.CTL, ("rs", "rt", "offset"),
       "rt = rs | zero-extended 16-bit immediate",
       unsigned_fields=("offset",)),
    _D("MV_G2S", Opcode.MV_G2S, _C.SCALAR, _F.SCALAR_I, ("rs", "imm"),
       "special register [imm] = general register rs"),
    _D("MV_S2G", Opcode.MV_S2G, _C.SCALAR, _F.SCALAR_I, ("rt", "imm"),
       "general register rt = special register [imm]"),
    # Communication / memory ---------------------------------------------------
    _D("MEM_CPY", Opcode.MEM_CPY, _C.COMMUNICATION, _F.MEM,
       ("rs", "rt", "rd", "offset"),
       "copy (rd) bytes from [rs] to [rt + offset] in the unified space"),
    _D("MEM_LD", Opcode.MEM_LD, _C.COMMUNICATION, _F.MEM, ("rs", "rt", "offset"),
       "rt = 32-bit word at [rs + offset]"),
    _D("MEM_ST", Opcode.MEM_ST, _C.COMMUNICATION, _F.MEM, ("rs", "rt", "offset"),
       "store 32-bit word rt at [rs + offset]"),
    _D("SEND", Opcode.SEND, _C.COMMUNICATION, _F.MEM, ("rs", "rt", "rd", "offset"),
       "send (rd) bytes at local [rs] to core (rt), arriving at the "
       "receiver's address given by its matching RECV"),
    _D("RECV", Opcode.RECV, _C.COMMUNICATION, _F.MEM, ("rs", "rt", "rd"),
       "receive (rd) bytes from core (rt) into local [rs] (blocking)"),
    _D("SYNC", Opcode.SYNC, _C.COMMUNICATION, _F.MEM, ("rt",),
       "handshake with core (rt)"),
    _D("MEM_GATHER", Opcode.MEM_GATHER, _C.COMMUNICATION, _F.MEM,
       ("rs", "rt", "rd"),
       "DMA gather: copy (rd) chunks of S_CHUNK bytes from [rs] stepping "
       "S_STRIDE bytes per chunk, packed contiguously at [rt]"),
    _D("MEM_SCATTER", Opcode.MEM_SCATTER, _C.COMMUNICATION, _F.MEM,
       ("rs", "rt", "rd"),
       "DMA scatter: copy (rd) contiguous S_CHUNK-byte chunks from [rs] to "
       "[rt] stepping S_STRIDE bytes per chunk"),
    # Control flow -----------------------------------------------------------
    _D("JMP", Opcode.JMP, _C.CONTROL, _F.CTL, ("offset",),
       "pc += offset (relative, in instructions)"),
    _D("BEQ", Opcode.BEQ, _C.CONTROL, _F.CTL, ("rs", "rt", "offset"),
       "if rs == rt: pc += offset"),
    _D("BNE", Opcode.BNE, _C.CONTROL, _F.CTL, ("rs", "rt", "offset"),
       "if rs != rt: pc += offset"),
    _D("BLT", Opcode.BLT, _C.CONTROL, _F.CTL, ("rs", "rt", "offset"),
       "if rs < rt: pc += offset"),
    _D("BGE", Opcode.BGE, _C.CONTROL, _F.CTL, ("rs", "rt", "offset"),
       "if rs >= rt: pc += offset"),
    _D("BARRIER", Opcode.BARRIER, _C.CONTROL, _F.CTL, (),
       "wait until every core reaches its barrier"),
    _D("NOP", Opcode.NOP, _C.CONTROL, _F.CTL, (), "no operation"),
    _D("HALT", Opcode.HALT, _C.CONTROL, _F.CTL, (), "stop this core"),
    _D("SC_ADDIW", Opcode.SC_ADDIW, _C.SCALAR, _F.CTL, ("rs", "rt", "offset"),
       "rt = rs + signed 16-bit immediate (address arithmetic)"),
]


class ISARegistry:
    """Lookup table from mnemonics and opcodes to descriptors.

    A registry starts from the built-in table; extension instructions can
    be added with :meth:`register`.  Separate registries are independent,
    so tests and users can extend the ISA without global state.
    """

    def __init__(self, descriptors: Optional[Iterable[InstructionDescriptor]] = None):
        self._by_mnemonic: Dict[str, InstructionDescriptor] = {}
        self._by_opcode: Dict[int, InstructionDescriptor] = {}
        #: Intern table of decoded instruction tuples, owned by
        #: :func:`repro.sim.core.translate_program`: every program decoded
        #: against this registry shares one tuple per distinct instruction.
        self.decoded: Dict[tuple, tuple] = {}
        for desc in descriptors if descriptors is not None else _BUILTINS:
            self._add(desc)

    def _add(self, desc: InstructionDescriptor) -> None:
        if desc.mnemonic in self._by_mnemonic:
            raise ISAError(f"duplicate mnemonic {desc.mnemonic}")
        if desc.opcode in self._by_opcode:
            other = self._by_opcode[desc.opcode]
            raise ISAError(
                f"opcode {desc.opcode:#x} already used by {other.mnemonic}"
            )
        self._by_mnemonic[desc.mnemonic] = desc
        self._by_opcode[int(desc.opcode)] = desc

    def register(self, desc: InstructionDescriptor) -> InstructionDescriptor:
        """Register an extension instruction.

        Extensions must provide a ``latency`` (their performance parameter,
        per the paper's extension template); an ``energy_pj`` defaults to 0.
        """
        if desc.latency is None:
            raise ISAError(
                f"extension instruction {desc.mnemonic} must declare a latency"
            )
        self._add(desc)
        return desc

    def lookup(self, mnemonic: str) -> InstructionDescriptor:
        """Descriptor for ``mnemonic``; raises :class:`ISAError` if unknown."""
        try:
            return self._by_mnemonic[mnemonic]
        except KeyError:
            raise ISAError(f"unknown instruction mnemonic {mnemonic!r}") from None

    def lookup_opcode(self, opcode: int) -> InstructionDescriptor:
        """Descriptor for an opcode value; raises if unassigned."""
        try:
            return self._by_opcode[opcode]
        except KeyError:
            raise ISAError(f"unassigned opcode {opcode:#x}") from None

    def __contains__(self, mnemonic: str) -> bool:
        return mnemonic in self._by_mnemonic

    def mnemonics(self) -> List[str]:
        """All registered mnemonics, sorted."""
        return sorted(self._by_mnemonic)

    def free_extension_opcodes(self) -> List[int]:
        """Extension opcodes not yet taken."""
        return [int(op) for op in EXTENSION_OPCODES if int(op) not in self._by_opcode]


_DEFAULT_REGISTRY = ISARegistry()


def default_registry() -> ISARegistry:
    """The shared registry with only the built-in instruction set."""
    return _DEFAULT_REGISTRY
