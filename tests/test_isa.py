"""Tests for the ISA: formats, encoding, assembly, programs, extensions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ISAError
from repro.isa import (
    FIELD_LAYOUT,
    Category,
    Format,
    Instruction,
    InstructionDescriptor,
    ISARegistry,
    Opcode,
    Program,
    ProgramBuilder,
    decode,
    default_registry,
    encode,
    format_instruction,
    format_program,
    parse_line,
    parse_program,
)
from repro.isa.opcodes import EXTENSION_OPCODES

class TestFormats:
    def test_all_formats_are_32_bit(self):
        for fmt, layout in FIELD_LAYOUT.items():
            total = sum(width for _, width in layout.values())
            assert total == 32, f"{fmt} fields sum to {total} bits"

    def test_fields_do_not_overlap(self):
        for fmt, layout in FIELD_LAYOUT.items():
            seen = set()
            for lo, width in layout.values():
                bits = set(range(lo, lo + width))
                assert not bits & seen, f"{fmt} has overlapping fields"
                seen |= bits

    def test_opcode_always_at_top(self):
        for layout in FIELD_LAYOUT.values():
            assert layout["opcode"] == (26, 6)


def _field_strategy(desc, name, width):
    if desc.field_signed(name):
        return st.integers(-(1 << (width - 1)), (1 << (width - 1)) - 1)
    return st.integers(0, (1 << width) - 1)


@st.composite
def _random_instruction(draw, declared_only=False):
    registry = default_registry()
    mnemonic = draw(st.sampled_from(registry.mnemonics()))
    desc = registry.lookup(mnemonic)
    layout = FIELD_LAYOUT[desc.fmt]
    fields = {}
    for name, (_, width) in layout.items():
        if name == "opcode":
            continue
        if declared_only and name not in desc.operands:
            continue
        value = draw(_field_strategy(desc, name, width))
        if value:
            fields[name] = value
    return Instruction(mnemonic, fields)


class TestEncoding:
    @given(_random_instruction())
    def test_encode_decode_round_trip(self, instr):
        word = encode(instr)
        assert 0 <= word < (1 << 32)
        decoded = decode(word)
        assert decoded.mnemonic == instr.mnemonic
        expected = {k: v for k, v in instr.fields.items() if v != 0}
        assert decoded.fields == expected

    def test_field_overflow_rejected(self):
        with pytest.raises(ISAError):
            encode(Instruction("SC_ADDI", {"rs": 1, "rt": 2, "imm": 600}))

    def test_unresolved_target_rejected(self):
        with pytest.raises(ISAError):
            encode(Instruction("JMP", {}, target="loop"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ISAError):
            encode(Instruction("JMP", {"funct": 1}))

    def test_decode_unknown_opcode(self):
        with pytest.raises(ISAError):
            decode(0x3B << 26)  # unassigned opcode

    @pytest.mark.parametrize("value", [0x8000, 0xABCD, 0xFFFF])
    def test_sc_ori_high_immediates_round_trip(self, value):
        """SC_ORI zero-extends: offsets >= 0x8000 must survive encoding.

        Regression for the ROADMAP item: the 16-bit offset field is
        signed at the format level, but ORI's semantics are unsigned, so
        the descriptor overrides the interpretation.
        """
        for mnemonic in ("SC_ORI", "SC_LUI"):
            fields = {"rt": 3, "offset": value}
            if mnemonic == "SC_ORI":
                fields["rs"] = 3
            instr = Instruction(mnemonic, fields)
            decoded = decode(encode(instr))
            assert decoded.mnemonic == mnemonic
            assert decoded.offset == value

    def test_branch_offsets_stay_signed(self):
        """CTL-format branches keep two's-complement offsets."""
        decoded = decode(encode(Instruction("BLT", {"rs": 1, "rt": 2,
                                                    "offset": -4})))
        assert decoded.offset == -4
        with pytest.raises(ISAError):
            encode(Instruction("BLT", {"rs": 1, "rt": 2, "offset": 0x8000}))

    def test_li_expansion_encodes_any_address(self):
        """li-expanded 32-bit constants with bit 15 set encode/decode."""
        builder = ProgramBuilder()
        builder.li(1, 0x4000_8000)  # GLOBAL_BASE | 0x8000: SC_ORI 0x8000
        program = builder.finalize()
        words = [encode(instr) for instr in program]
        assert [decode(w).mnemonic for w in words] == ["SC_LUI", "SC_ORI"]
        assert decode(words[1]).offset == 0x8000


class TestAssembly:
    def test_line_round_trip(self):
        instr = parse_line("CIM_MVM R7, R10, R9, 1")
        assert instr.mnemonic == "CIM_MVM"
        assert (instr.rs, instr.rt, instr.re, instr.flags) == (7, 10, 9, 1)
        assert format_instruction(instr) == "CIM_MVM R7, R10, R9, 1"

    def test_comments_and_blanks(self):
        assert parse_line("// just a comment") is None
        assert parse_line("   ") is None

    def test_wrong_operand_count(self):
        with pytest.raises(ISAError):
            parse_line("SC_ADD R1, R2")

    def test_register_expected(self):
        with pytest.raises(ISAError):
            parse_line("SC_ADD 1, R2, R3")

    def test_program_round_trip(self):
        text = """
        start:
          SC_ADDI R1, R1, 1
          BLT R1, R2, start
          HALT
        """
        program = parse_program(text)
        program.finalize()
        assert program.instructions[1].offset == -1
        rendered = format_program(program)
        assert "start:" in rendered and "HALT" in rendered

    def test_line_numbers_in_errors(self):
        with pytest.raises(ISAError, match="line 2"):
            parse_program("NOP\nBOGUS R1\n")

    @given(_random_instruction(declared_only=True))
    def test_asm_round_trip_property(self, instr):
        line = format_instruction(instr)
        parsed = parse_line(line)
        assert parsed.mnemonic == instr.mnemonic
        assert {k: v for k, v in parsed.fields.items() if v} == {
            k: v for k, v in instr.fields.items() if v
        }


def _emit(fields):
    Program().emit("SC_ADDI", **fields)


def _assemble(fields):
    parse_line(f"SC_ADDI R{fields['rs']}, R{fields['rt']}, {fields['imm']}")


def _load_override(fields):
    from repro.artifact import _program_from_entry

    overrides = {"0": {"mnemonic": "SC_ADDI", "fields": fields}}
    _program_from_entry(
        {"words": [0], "overrides": overrides}, default_registry()
    )


class TestContractAtConstruction:
    """An instruction the ISA does not admit is refused where it is made,
    naming the mnemonic, field and value: a register outside the register
    file, or a field outside the format.  Immediates are not
    range-checked there (``li`` immediates that do not fit travel as
    artifact overrides)."""

    @pytest.mark.parametrize("make", [_emit, _assemble, _load_override])
    def test_register_outside_the_file(self, make):
        with pytest.raises(ISAError, match=r"SC_ADDI: field rs=40 .*register"):
            make({"rs": 40, "rt": 2, "imm": 5})

    @pytest.mark.parametrize("make", [_emit, _load_override])
    def test_field_outside_the_format(self, make):
        with pytest.raises(ISAError, match=r"SC_ADDI: field bogus=9 .*format"):
            make({"rs": 1, "rt": 2, "imm": 5, "bogus": 9})

    def test_immediates_are_not_range_checked(self):
        instr = Program().emit("SC_ADDI", rt=1, imm=5000)
        with pytest.raises(ISAError):
            encode(instr)


class TestProgram:
    def test_labels_resolve_forward_and_back(self):
        program = Program()
        program.label("top")
        program.emit("NOP")
        program.emit("JMP", target="end")
        program.emit("JMP", target="top")
        program.label("end")
        program.finalize()
        assert program.instructions[1].offset == 2
        assert program.instructions[2].offset == -2

    def test_duplicate_label_rejected(self):
        program = Program()
        program.label("a")
        with pytest.raises(ISAError):
            program.label("a")

    def test_undefined_label_rejected(self):
        program = Program()
        program.emit("JMP", target="nowhere")
        with pytest.raises(ISAError):
            program.finalize()

    def test_encode_all(self):
        program = Program()
        program.emit("NOP")
        program.emit("HALT")
        words = [encode(instr) for instr in program]
        assert len(words) == 2
        assert program.size_bytes() == 8


class TestProgramBuilder:
    def test_li_small(self):
        builder = ProgramBuilder()
        builder.li(1, 42)
        assert [i.mnemonic for i in builder.program] == ["SC_ADDI"]

    def test_li_large_expands(self):
        builder = ProgramBuilder()
        builder.li(1, 418816)
        names = [i.mnemonic for i in builder.program]
        assert names == ["SC_LUI", "SC_ORI"]

    def test_li_rejects_r0(self):
        with pytest.raises(ISAError):
            ProgramBuilder().li(0, 1)

    def test_loop_emits_backedge(self):
        builder = ProgramBuilder()
        builder.li(1, 0)
        builder.li(2, 4)
        with builder.loop(1, 2):
            builder.emit("NOP")
        program = builder.finalize()
        assert program.instructions[-1].mnemonic == "BLT"
        assert program.instructions[-1].offset < 0


class TestExtensions:
    def test_register_custom_instruction(self):
        registry = ISARegistry()
        desc = InstructionDescriptor(
            mnemonic="VEC_GELU",
            opcode=int(Opcode.EXT0),
            category=Category.VECTOR,
            fmt=Format.VEC,
            operands=("rs", "rd", "re"),
            description="custom gelu activation",
            latency=6,
            energy_pj=12.0,
        )
        registry.register(desc)
        assert "VEC_GELU" in registry
        instr = parse_line("VEC_GELU R1, R2, R3", registry)
        word = encode(instr, registry)
        assert decode(word, registry).mnemonic == "VEC_GELU"

    def test_extension_requires_latency(self):
        registry = ISARegistry()
        desc = InstructionDescriptor(
            "X_NOP", int(Opcode.EXT1), Category.SCALAR, Format.CTL
        )
        with pytest.raises(ISAError):
            registry.register(desc)

    def test_duplicate_opcode_rejected(self):
        registry = ISARegistry()
        desc = InstructionDescriptor(
            "MY_MVM", int(Opcode.CIM_MVM), Category.CIM, Format.CIM, latency=1
        )
        with pytest.raises(ISAError):
            registry.register(desc)

    def test_free_extension_opcodes(self):
        registry = ISARegistry()
        taken = {registry.lookup(m).opcode for m in registry.mnemonics()}
        free = [op for op in EXTENSION_OPCODES if op not in taken]
        assert len(free) == 4


class TestBlockMetadata:
    """Loop-block discovery (execution-engine metadata consumed by
    repro.sim.blockengine)."""

    def _counted_loop(self, body_nops=3):
        b = ProgramBuilder()
        b.li(1, 0)
        b.li(2, 10)
        with b.loop(1, 2):
            for _ in range(body_nops):
                b.emit("NOP")
        b.halt()
        return b.finalize()

    def test_loop_blocks_found(self):
        program = self._counted_loop()
        blocks = program.loop_blocks()
        assert len(blocks) == 1
        block = blocks[0]
        assert program[block.branch].mnemonic == "BLT"
        assert program[block.branch].fields["offset"] == -block.span + 1
        assert block.span == 3 + 2  # body NOPs + SC_ADDI + BLT

    def test_control_flow_inside_span_disqualifies(self):
        b = ProgramBuilder()
        b.li(1, 0)
        b.li(2, 4)
        head = b.program.new_label("head")
        b.program.place_label(head)
        b.emit("NOP")
        b.emit("BARRIER")           # control transfer inside the span
        b.emit("SC_ADDI", rs=1, rt=1, imm=1)
        b.emit("BLT", rs=1, rt=2, target=head)
        b.halt()
        assert b.finalize().loop_blocks() == []
