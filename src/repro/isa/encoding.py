"""Binary encoding and decoding of 32-bit CIMFlow instructions."""

from typing import Optional

from repro.errors import ISAError
from repro.isa.extension import ISARegistry, default_registry
from repro.isa.formats import FIELD_LAYOUT
from repro.isa.instruction import Instruction
from repro.utils.bits import extract_bits, insert_bits, sign_extend, to_twos_complement

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1


def encode(instr: Instruction, registry: Optional[ISARegistry] = None) -> int:
    """Encode an instruction into its 32-bit word.

    Unresolved symbolic branch targets and field values that do not fit
    their bit widths raise :class:`ISAError`.
    """
    registry = registry or default_registry()
    desc = registry.lookup(instr.mnemonic)
    if instr.target is not None:
        raise ISAError(
            f"cannot encode {instr.mnemonic} with unresolved target "
            f"{instr.target!r}; finalize the program first"
        )
    layout = FIELD_LAYOUT[desc.fmt]
    unknown = set(instr.fields) - set(layout)
    if unknown:
        raise ISAError(
            f"{instr.mnemonic}: fields {sorted(unknown)} not in format "
            f"{desc.fmt.value}"
        )
    word = 0
    word = insert_bits(word, *layout["opcode"], value=int(desc.opcode))
    for name, (lo, width) in layout.items():
        if name == "opcode":
            continue
        value = instr.get(name)
        try:
            raw = (
                to_twos_complement(value, width)
                if desc.field_signed(name)
                else value
            )
            word = insert_bits(word, lo, width, raw)
        except ValueError as exc:
            raise ISAError(f"{instr.mnemonic}: field {name}: {exc}") from exc
    return word


def decode(word: int, registry: Optional[ISARegistry] = None) -> Instruction:
    """Decode a 32-bit word back into the registry's shared
    :class:`Instruction` of that value."""
    if not 0 <= word <= WORD_MASK:
        raise ISAError(f"instruction word {word:#x} out of 32-bit range")
    registry = registry or default_registry()
    opcode = extract_bits(word, 26, 6)
    desc = registry.lookup_opcode(opcode)
    layout = FIELD_LAYOUT[desc.fmt]
    fields = {}
    for name, (lo, width) in layout.items():
        if name == "opcode":
            continue
        raw = extract_bits(word, lo, width)
        value = sign_extend(raw, width) if desc.field_signed(name) else raw
        if value != 0:
            fields[name] = value
    return registry.instruction(desc.mnemonic, fields)
