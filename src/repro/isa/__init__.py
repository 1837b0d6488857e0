"""The CIMFlow instruction set architecture (Sec. III-B)."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "repro.isa.asm": (
        "format_instruction", "format_program", "parse_line", "parse_program",
    ),
    "repro.isa.builder": ("ProgramBuilder",),
    "repro.isa.encoding": ("decode", "encode"),
    "repro.isa.extension": ("ISARegistry", "default_registry"),
    "repro.isa.formats": ("FIELD_LAYOUT", "Format"),
    "repro.isa.instruction": ("Instruction", "InstructionDescriptor"),
    "repro.isa.opcodes": ("Category", "Opcode"),
    "repro.isa.program": ("Program",),
    "repro.isa.registers": (
        "NUM_GENERAL_REGS", "NUM_SPECIAL_REGS", "SReg", "ZERO_REG",
        "reg_name", "sreg_name",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:  # the table above, spelled out for static tools
    from repro.isa.asm import format_instruction, format_program, parse_line, parse_program
    from repro.isa.builder import ProgramBuilder
    from repro.isa.encoding import decode, encode
    from repro.isa.extension import ISARegistry, default_registry
    from repro.isa.formats import FIELD_LAYOUT, Format
    from repro.isa.instruction import Instruction, InstructionDescriptor
    from repro.isa.opcodes import Category, Opcode
    from repro.isa.program import Program
    from repro.isa.registers import (
        NUM_GENERAL_REGS,
        NUM_SPECIAL_REGS,
        SReg,
        ZERO_REG,
        reg_name,
        sreg_name,
    )

__all__ = [
    "Category",
    "Opcode",
    "Format",
    "FIELD_LAYOUT",
    "Instruction",
    "InstructionDescriptor",
    "ISARegistry",
    "default_registry",
    "encode",
    "decode",
    "Program",
    "ProgramBuilder",
    "parse_line",
    "parse_program",
    "format_instruction",
    "format_program",
    "SReg",
    "ZERO_REG",
    "NUM_GENERAL_REGS",
    "NUM_SPECIAL_REGS",
    "reg_name",
    "sreg_name",
]
