"""Two-way textual assembly for the CIMFlow ISA.

The textual syntax is the one the paper's Fig. 2/4 sketches use::

    CIM_MVM   R7, R10, R9
    SC_ADDI   R7, R2, 1
    JMP       -26
    loop_body:
    BNE       R1, R2, loop_body

Register operands are written ``R<n>``; immediates/offsets are decimal
integers; branch targets may be labels.  ``format_instruction`` and
``parse_program`` round-trip.
"""

import re
from typing import List, Optional

from repro.errors import ISAError
from repro.isa.extension import ISARegistry, default_registry
from repro.isa.formats import REGISTER_FIELDS
from repro.isa.instruction import Instruction
from repro.isa.program import Program

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_REG_RE = re.compile(r"^[Rr](\d+)$")


def format_operand(name: str, value: int) -> str:
    """Render one operand field as assembly text."""
    if name in REGISTER_FIELDS:
        return f"R{value}"
    return str(value)


def format_instruction(
    instr: Instruction, registry: Optional[ISARegistry] = None
) -> str:
    """Render one instruction as a line of assembly."""
    registry = registry or default_registry()
    desc = registry.lookup(instr.mnemonic)
    parts = []
    for name in desc.operands:
        if name == "offset" and instr.target is not None:
            parts.append(instr.target)
        else:
            parts.append(format_operand(name, instr.get(name)))
    if not parts:
        return instr.mnemonic
    return f"{instr.mnemonic} {', '.join(parts)}"


def format_program(
    program: Program, with_labels: bool = True, with_pc: bool = False
) -> str:
    """Render a full program, optionally interleaving its labels."""
    position_labels = {}
    if with_labels:
        for name, pos in program.labels.items():
            position_labels.setdefault(pos, []).append(name)
    lines: List[str] = []
    for pc, instr in enumerate(program.instructions):
        for name in sorted(position_labels.get(pc, [])):
            lines.append(f"{name}:")
        prefix = f"{pc:6d}:  " if with_pc else "    "
        lines.append(prefix + format_instruction(instr, program.registry))
    for name in sorted(position_labels.get(len(program.instructions), [])):
        lines.append(f"{name}:")
    return "\n".join(lines)


def _parse_operand(name: str, token: str) -> object:
    """Parse one operand token into (value or label) for field ``name``."""
    token = token.strip()
    if name in REGISTER_FIELDS:
        match = _REG_RE.match(token)
        if not match:
            raise ISAError(f"expected a register for {name}, got {token!r}")
        return int(match.group(1))
    try:
        return int(token, 0)
    except ValueError:
        if name == "offset" and _LABEL_RE.match(token):
            return token  # symbolic branch target
        raise ISAError(f"bad operand {token!r} for field {name}") from None


def parse_line(
    line: str, registry: Optional[ISARegistry] = None
) -> Optional[Instruction]:
    """Parse one assembly line; returns ``None`` for blanks and comments.

    Label-definition lines (``name:``) are handled by
    :func:`parse_program`, not here.
    """
    registry = registry or default_registry()
    code = line.split("//", 1)[0].split("#", 1)[0].strip()
    if not code:
        return None
    if code.endswith(":"):
        raise ISAError(f"label line {line!r} must go through parse_program")
    parts = code.split(None, 1)
    mnemonic = parts[0]
    desc = registry.lookup(mnemonic)
    tokens = [t for t in parts[1].split(",")] if len(parts) > 1 else []
    if len(tokens) != len(desc.operands):
        raise ISAError(
            f"{mnemonic} expects {len(desc.operands)} operands "
            f"{desc.operands}, got {len(tokens)}"
        )
    fields = {}
    target = None
    for name, token in zip(desc.operands, tokens):
        value = _parse_operand(name, token)
        if isinstance(value, str):
            target = value
        else:
            fields[name] = value
    return registry.instruction(mnemonic, fields, target)


def parse_program(
    text: str, registry: Optional[ISARegistry] = None
) -> Program:
    """Assemble a multi-line program (labels, comments, blank lines ok)."""
    registry = registry or default_registry()
    program = Program(registry)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("//", 1)[0].split("#", 1)[0].strip()
        if not code:
            continue
        try:
            if code.endswith(":"):
                name = code[:-1].strip()
                if not _LABEL_RE.match(name):
                    raise ISAError(f"invalid label name {name!r}")
                program.label(name)
            else:
                instr = parse_line(code, registry)
                if instr is not None:
                    program.append(instr)
        except ISAError as exc:
            raise ISAError(f"line {lineno}: {exc}") from exc
    return program
