"""High-level program construction helpers used by the code generator.

:class:`ProgramBuilder` wraps a :class:`~repro.isa.program.Program` with the
idioms code generation needs constantly: loading arbitrary 32-bit
immediates (``li`` expands into ``SC_LUI``/``SC_ORI`` pairs when needed,
mirroring how the paper's ISA handles its large ``G_LI`` constants),
counted loops, and special-register setup.

The compiler's emitter (``compiler.codegen.lowering._Emitter``) is a
subclass: it adds the special-register cache and builds its counted
loops on :meth:`ProgramBuilder.loop`, so the loop label and back branch
are written here once.
"""

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ISAError
from repro.isa.extension import ISARegistry
from repro.isa.program import Program
from repro.isa.registers import SReg, ZERO_REG


class ProgramBuilder:
    """Convenience wrapper emitting common instruction sequences."""

    def __init__(self, registry: Optional[ISARegistry] = None):
        self.program = Program(registry)

    def emit(self, mnemonic: str, **fields):
        """Append a raw instruction."""
        return self.program.emit(mnemonic, **fields)

    def li(self, reg: int, value: int) -> None:
        """Load a 32-bit constant into ``reg``.

        Uses a single ``SC_ADDI`` from R0 when the value fits the signed
        10-bit immediate, otherwise an ``SC_LUI`` + ``SC_ORI`` pair (the
        standard expansion of the ``G_LI`` pseudo-instruction).
        """
        if reg == ZERO_REG:
            raise ISAError("cannot load an immediate into R0")
        if not 0 <= value < (1 << 32):
            if -(1 << 31) <= value < 0:
                value &= (1 << 32) - 1
            else:
                raise ISAError(f"immediate {value} out of 32-bit range")
        if value < (1 << 9):  # fits signed 10-bit as non-negative
            self.emit("SC_ADDI", rs=ZERO_REG, rt=reg, imm=value)
            return
        upper = value >> 16
        lower = value & 0xFFFF
        self.emit("SC_LUI", rt=reg, offset=upper)
        if lower:
            self.emit("SC_ORI", rs=reg, rt=reg, offset=lower)

    def set_sreg(self, sreg: SReg, scratch_reg: int, value: int) -> None:
        """Set special register ``sreg`` to ``value`` via ``scratch_reg``."""
        self.li(scratch_reg, value)
        self.emit("MV_G2S", rs=scratch_reg, imm=int(sreg))

    @contextmanager
    def loop(self, counter_reg: int, bound_reg: int, step: int = 1) -> Iterator[None]:
        """Counted loop: ``for counter in range(0, bound, step)``.

        ``counter_reg`` must be initialised to 0 by the caller (or reused
        deliberately); ``bound_reg`` holds the trip bound.  The loop body
        is whatever the ``with`` block emits.
        """
        head = self.program.new_label("loop")
        self.program.place_label(head)
        yield
        self.emit("SC_ADDI", rs=counter_reg, rt=counter_reg, imm=step)
        self.emit("BLT", rs=counter_reg, rt=bound_reg, target=head)

    def halt(self) -> None:
        self.emit("HALT")

    def finalize(self) -> Program:
        """Resolve labels and return the finished program."""
        return self.program.finalize()
