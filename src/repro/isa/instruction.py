"""Instruction descriptors and the :class:`Instruction` value type.

A :class:`InstructionDescriptor` is the "instruction description template"
from the paper (Sec. III-B): it names an operation, assigns it an opcode,
binds it to one of the five binary formats, documents its operand fields,
and -- for user extensions -- carries the performance parameters the
simulator needs to model it without a hand-written execution handler.
"""

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from repro.errors import ISAError
from repro.isa.formats import FIELD_LAYOUT, Format, SIGNED_FIELDS
from repro.isa.opcodes import Category


@dataclass(frozen=True)
class InstructionDescriptor:
    """Static description of one operation in the instruction set.

    Attributes
    ----------
    mnemonic:
        Assembly name, e.g. ``"CIM_MVM"``.
    opcode:
        6-bit opcode value.
    category:
        Instruction class (CIM / vector / scalar / communication / control).
    fmt:
        Binary format that lays out the operand fields.
    operands:
        Names of the fields that are meaningful for this operation, in
        assembly order.  Fields of the format not listed here must be zero.
    description:
        One-line human documentation.
    latency:
        Fixed execution latency in cycles.  Required for extension
        instructions; built-in instructions use the detailed unit models
        instead and leave this ``None``.
    energy_pj:
        Fixed per-execution energy in picojoules (extensions only).
    unsigned_fields:
        Immediate/offset fields this operation interprets as *unsigned*
        (zero-extending), overriding the format-level two's-complement
        default of :data:`~repro.isa.formats.SIGNED_FIELDS`.  ``SC_LUI``
        and ``SC_ORI`` declare their 16-bit ``offset`` here, so
        ``li``-expanded constants with the high bit set (>= 0x8000)
        round-trip through binary encoding.
    """

    mnemonic: str
    opcode: int
    category: Category
    fmt: Format
    operands: Tuple[str, ...] = ()
    description: str = ""
    latency: Optional[int] = None
    energy_pj: Optional[float] = None
    unsigned_fields: Tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 <= self.opcode < 64:
            raise ISAError(f"opcode {self.opcode} out of 6-bit range")
        # Descriptors are hashed (they sit in decoded programs, which key
        # the simulator's block cache): keep a list argument from making
        # a frozen instance unhashable.
        for name in ("operands", "unsigned_fields"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        layout = FIELD_LAYOUT[self.fmt]
        for operand in self.operands:
            if operand not in layout:
                raise ISAError(
                    f"{self.mnemonic}: operand '{operand}' not present in "
                    f"format {self.fmt.value}"
                )
        for name in self.unsigned_fields:
            if name not in layout:
                raise ISAError(
                    f"{self.mnemonic}: unsigned field '{name}' not present "
                    f"in format {self.fmt.value}"
                )

    def field_signed(self, name: str) -> bool:
        """Whether field ``name`` encodes as two's-complement signed."""
        return name in SIGNED_FIELDS and name not in self.unsigned_fields


class Instruction:
    """One concrete instruction: a mnemonic plus operand field values.

    An instruction is an immutable, hashable value.  ``fields`` is a
    read-only mapping of its non-zero operand fields (unset fields read
    as zero), and ``key`` is its canonical value -- the mnemonic plus
    those fields in name order -- by which instances compare and hash.
    A branch may instead carry a symbolic ``target`` label, which
    :meth:`repro.isa.program.Program.finalize` resolves by swapping the
    instruction for one with the ``offset`` filled in.

    Programs do not call this constructor: they get their instructions
    from :meth:`repro.isa.extension.ISARegistry.instruction`, which
    checks each distinct value against the ISA once and shares one
    instance of it per registry, so a program is a list of references.
    """

    __slots__ = ("mnemonic", "fields", "target", "key")

    def __init__(self, mnemonic: str, fields: Optional[Mapping[str, int]] = None,
                 target: Optional[str] = None):
        canonical = tuple(sorted(
            (name, value) for name, value in (fields or {}).items() if value
        ))
        key = (mnemonic, canonical) if target is None else (
            mnemonic, canonical, target)
        init = object.__setattr__
        init(self, "mnemonic", mnemonic)
        init(self, "fields", MappingProxyType(dict(canonical)))
        init(self, "target", target)
        init(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError(f"Instruction is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Instruction is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __reduce__(self):
        return type(self), (self.mnemonic, dict(self.fields), self.target)

    def get(self, name: str) -> int:
        """Value of field ``name`` (0 when unset)."""
        return self.fields.get(name, 0)

    # Convenience accessors -------------------------------------------------
    @property
    def rs(self) -> int:
        return self.get("rs")

    @property
    def rt(self) -> int:
        return self.get("rt")

    @property
    def rd(self) -> int:
        return self.get("rd")

    @property
    def re(self) -> int:
        return self.get("re")

    @property
    def imm(self) -> int:
        return self.get("imm")

    @property
    def offset(self) -> int:
        return self.get("offset")

    @property
    def funct(self) -> int:
        return self.get("funct")

    @property
    def flags(self) -> int:
        return self.get("flags")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in self.fields.items())
        tgt = f", target={self.target!r}" if self.target else ""
        return f"{type(self).__name__}({self.mnemonic}, {parts}{tgt})"
