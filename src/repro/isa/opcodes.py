"""Opcode space of the CIMFlow ISA (Fig. 3, "Instruction Design").

Instructions are 32 bits with a 6-bit opcode and are categorised into
compute (CIM / vector / scalar), communication, and control-flow classes.
The concrete numeric assignments below are our own (the paper does not
publish an opcode map); they are stable, contiguous per category, and leave
headroom for user extensions registered at runtime (Sec. III-B,
"instruction description template").
"""

import enum


class Category(enum.Enum):
    """Top-level instruction classes from the paper."""

    CIM = "cim"
    VECTOR = "vector"
    SCALAR = "scalar"
    COMMUNICATION = "communication"
    CONTROL = "control"


class Opcode(enum.IntEnum):
    """Built-in opcode assignments (6-bit space, 0..63).

    0x00-0x07  CIM compute
    0x08-0x17  vector compute
    0x18-0x27  scalar compute
    0x28-0x2F  communication / memory
    0x30-0x3B  control flow
    0x3C-0x3F  reserved for runtime extensions
    """

    # --- CIM compute unit -------------------------------------------------
    CIM_MVM = 0x00    # matrix-vector multiply on one macro group
    CIM_LOAD = 0x01   # load a weight tile into a macro group
    CIM_CFG = 0x02    # configure macro-group tile metadata from S_Regs

    # --- Vector compute unit ---------------------------------------------
    VEC_ADD = 0x08    # int8 elementwise add (saturating)
    VEC_SUB = 0x09
    VEC_MUL = 0x0A
    VEC_MAX = 0x0B
    VEC_MIN = 0x0C
    VEC_RELU = 0x0D
    VEC_RELU6 = 0x0E
    VEC_SILU = 0x0F   # x * sigmoid(x), LUT semantics
    VEC_SIGMOID = 0x10
    VEC_COPY = 0x11
    VEC_ADD32 = 0x12  # int32 elementwise add (bias / partial-sum merge)
    VEC_QNT = 0x13    # int32 -> int8 requantize via S_QMUL / S_QSHIFT
    VEC_ACC32 = 0x14  # int32 dst += widened int8 src (pool accumulation)
    VEC_FILL = 0x15   # broadcast a scalar register value
    VEC_CMUL = 0x16   # per-channel scale multiply (squeeze-excite)

    # --- Scalar compute unit ----------------------------------------------
    SC_ADD = 0x18
    SC_SUB = 0x19
    SC_MUL = 0x1A
    SC_SLT = 0x1B     # set-if-less-than
    SC_AND = 0x1C
    SC_OR = 0x1D
    SC_XOR = 0x1E
    SC_SLL = 0x1F     # shift left logical
    SC_SRL = 0x20     # shift right logical
    SC_ADDI = 0x21    # add 10-bit signed immediate
    SC_MULI = 0x22
    SC_SLTI = 0x23
    SC_LUI = 0x24     # load upper immediate (imm << 16) -- uses control fmt
    SC_ORI = 0x25     # or with zero-extended immediate
    MV_G2S = 0x26     # move general register -> special register
    MV_S2G = 0x27     # move special register -> general register

    # --- Communication / memory -------------------------------------------
    MEM_CPY = 0x28    # copy rd bytes from [rs] to [rt] in unified space
    MEM_LD = 0x29     # load a 32-bit word  [rs + offset] -> rt
    MEM_ST = 0x2A     # store a 32-bit word rt -> [rs + offset]
    SEND = 0x2B       # send rd bytes at [rs] to core (rt) over the NoC
    RECV = 0x2C       # receive rd bytes into [rs] from core (rt)
    SYNC = 0x2D       # point-to-point ready/ack with core (rt)
    MEM_GATHER = 0x2E # strided DMA gather: strided [rs] -> contiguous [rt]
    MEM_SCATTER = 0x2F# strided DMA scatter: contiguous [rs] -> strided [rt]

    # --- Control flow -------------------------------------------------------
    JMP = 0x30        # unconditional relative jump
    BEQ = 0x31
    BNE = 0x32
    BLT = 0x33
    BGE = 0x34
    BARRIER = 0x35    # chip-wide barrier
    NOP = 0x36
    HALT = 0x37
    SC_ADDIW = 0x38   # scalar add with wide 16-bit immediate (CTL format)

    # --- Reserved extension space ------------------------------------------
    EXT0 = 0x3C
    EXT1 = 0x3D
    EXT2 = 0x3E
    EXT3 = 0x3F


#: Opcodes reserved for user-registered extension instructions.
EXTENSION_OPCODES = (Opcode.EXT0, Opcode.EXT1, Opcode.EXT2, Opcode.EXT3)

#: Opcodes with a built-in simulator handler, which dispatches on the
#: opcode alone; any other opcode runs the extension handler, which reads
#: the instruction's descriptor.
BUILTIN_OPCODES = frozenset(
    int(op) for op in Opcode if op not in EXTENSION_OPCODES
)

OPCODE_BITS = 6
