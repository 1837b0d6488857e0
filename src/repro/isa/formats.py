"""Binary instruction formats of the 32-bit CIMFlow ISA (Fig. 3, right).

Five formats share a 6-bit opcode in bits [31:26] and 5-bit register
operand fields; they differ in their tail fields (flags, funct, immediates,
offsets), exactly as the paper's format diagram shows:

=========  =====================================================
CIM        ``opcode | rs | rt | re | flags(11)``
VEC        ``opcode | rs | rt | re | rd | funct(6)``
SCALAR_I   ``opcode | rs | rt | funct(6) | imm(10)``
MEM        ``opcode | rs | rt | rd | offset(11)``
CTL        ``opcode | rs | rt | offset(16)``
=========  =====================================================

Immediates and offsets are two's-complement signed by default; all other
fields are unsigned.  Individual instructions with zero-extending
semantics (``SC_LUI`` / ``SC_ORI``) override the default through their
descriptor's ``unsigned_fields``
(:class:`repro.isa.instruction.InstructionDescriptor`).
"""

import enum
from typing import Dict, Tuple


class Format(enum.Enum):
    """The five instruction encodings."""

    CIM = "cim"
    VEC = "vec"
    SCALAR_I = "scalar_i"
    MEM = "mem"
    CTL = "ctl"


#: field name -> (low bit, width) for each format.  Bit 31 is the MSB.
FIELD_LAYOUT: Dict[Format, Dict[str, Tuple[int, int]]] = {
    Format.CIM: {
        "opcode": (26, 6),
        "rs": (21, 5),
        "rt": (16, 5),
        "re": (11, 5),
        "flags": (0, 11),
    },
    Format.VEC: {
        "opcode": (26, 6),
        "rs": (21, 5),
        "rt": (16, 5),
        "re": (11, 5),
        "rd": (6, 5),
        "funct": (0, 6),
    },
    Format.SCALAR_I: {
        "opcode": (26, 6),
        "rs": (21, 5),
        "rt": (16, 5),
        "funct": (10, 6),
        "imm": (0, 10),
    },
    Format.MEM: {
        "opcode": (26, 6),
        "rs": (21, 5),
        "rt": (16, 5),
        "rd": (11, 5),
        "offset": (0, 11),
    },
    Format.CTL: {
        "opcode": (26, 6),
        "rs": (21, 5),
        "rt": (16, 5),
        "offset": (0, 16),
    },
}

#: fields interpreted as two's-complement signed values (unless the
#: instruction's descriptor lists them in ``unsigned_fields``).
SIGNED_FIELDS = frozenset({"imm", "offset"})

#: operand fields that name general-purpose registers.
REGISTER_FIELDS = ("rs", "rt", "rd", "re")


def field_width(fmt: Format, name: str) -> int:
    """Width in bits of field ``name`` in format ``fmt``."""
    return FIELD_LAYOUT[fmt][name][1]
