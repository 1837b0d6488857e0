"""Per-core instruction programs with label resolution.

A :class:`Program` is the unit the compiler emits for each core and the
simulator loads into a core's instruction memory: a list of references
to its registry's shared, immutable instructions.  Branch targets may be
symbolic labels while a program is being built; :meth:`Program.finalize`
resolves them into relative instruction offsets (``pc += offset``
semantics, matching the paper's generated-code example ``JMP -26``).
"""

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import ISAError
from repro.isa.extension import ISARegistry, default_registry
from repro.isa.formats import Format, field_width
from repro.isa.instruction import Instruction

#: Mnemonics that transfer control (loop-block discovery must not cross
#: these, except for the backward conditional branch that closes a block).
BRANCH_MNEMONICS = frozenset({"BEQ", "BNE", "BLT", "BGE"})
CONTROL_MNEMONICS = BRANCH_MNEMONICS | {"JMP", "HALT", "BARRIER"}


@dataclass(frozen=True)
class LoopBlock:
    """A straight-line loop body discovered in a finalized program.

    ``head`` is the target of the backward conditional branch at
    ``branch``; instructions ``[head, branch]`` form the block, with no
    other control transfer inside.  ``span`` is the static instruction
    count of one iteration.
    """

    head: int
    branch: int

    @property
    def span(self) -> int:
        return self.branch - self.head + 1


class Program:
    """An ordered list of instructions plus a label table.

    Every instruction is made by the registry's intern site
    (:meth:`ISARegistry.instruction`), so the list holds one shared
    reference per distinct instruction value, not a copy per position.
    """

    def __init__(self, registry: Optional[ISARegistry] = None):
        self.registry = registry or default_registry()
        self.instructions: List[Instruction] = []
        self.labels: Dict[str, int] = {}
        self._finalized = False
        self._loop_blocks: Optional[List[LoopBlock]] = None
        #: ``(registry, decoded tuples)``, owned by
        #: :func:`repro.sim.core.translate_program`.
        self._translated = None

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def emit(self, mnemonic: str, **fields) -> Instruction:
        """Append an instruction; ``target=`` may name a label.

        Raises :class:`ISAError` for an instruction the ISA does not
        admit (see :meth:`ISARegistry.instruction`)."""
        target = fields.pop("target", None)
        return self._append(self.registry.instruction(mnemonic, fields, target))

    def append(self, instr: Instruction) -> Instruction:
        """Append the value of ``instr``, as this registry's instance."""
        return self._append(
            self.registry.instruction(instr.mnemonic, instr.fields, instr.target)
        )

    def _append(self, instr: Instruction) -> Instruction:
        self.instructions.append(instr)
        self._finalized = False
        self._loop_blocks = None
        self._translated = None
        return instr

    def label(self, name: str) -> str:
        """Define ``name`` at the current position (the next instruction)."""
        if name in self.labels:
            raise ISAError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)
        return name

    def new_label(self, stem: str = "L") -> str:
        """Generate a fresh, not-yet-placed label name."""
        index = len(self.labels)
        while f"{stem}{index}" in self.labels:
            index += 1
        return f"{stem}{index}"

    def place_label(self, name: str) -> None:
        """Place a label generated earlier with :meth:`new_label`."""
        if name in self.labels:
            raise ISAError(f"label {name!r} already placed")
        self.labels[name] = len(self.instructions)

    def finalize(self) -> "Program":
        """Resolve symbolic branch targets into relative offsets.

        Branch semantics are ``pc += offset`` when taken, so the offset for
        an instruction at ``pc`` targeting label position ``L`` is
        ``L - pc``; the label branch at ``pc`` is replaced by the interned
        instruction carrying that offset (instructions are never mutated,
        so finalizing twice changes nothing).  Raises :class:`ISAError` for
        unknown labels or offsets that do not fit the 16-bit field.
        """
        limit = 1 << (field_width(Format.CTL, "offset") - 1)
        resolve = self.registry.instruction
        for pc, instr in enumerate(self.instructions):
            if instr.target is None:
                continue
            if instr.target not in self.labels:
                raise ISAError(f"undefined label {instr.target!r}")
            offset = self.labels[instr.target] - pc
            if not -limit <= offset < limit:
                raise ISAError(
                    f"branch at {pc} to {instr.target!r}: offset {offset} "
                    f"exceeds the 16-bit field"
                )
            self.instructions[pc] = resolve(
                instr.mnemonic, {**instr.fields, "offset": offset}
            )
        self._finalized = True
        return self

    @property
    def finalized(self) -> bool:
        return self._finalized

    # -- execution-engine metadata ------------------------------------------
    def loop_blocks(self) -> List[LoopBlock]:
        """Straight-line loop bodies closed by backward conditional branches.

        A :class:`LoopBlock` covers ``[head, branch]`` where the
        instruction at ``branch`` is a conditional branch with a negative
        resolved offset targeting ``head`` and no instruction strictly
        inside the span transfers control.  These are the hot-block
        candidates the vectorized execution engine
        (:mod:`repro.sim.blockengine`) replays without per-instruction
        dispatch.  Results are cached until the program is mutated.
        """
        if self._loop_blocks is not None:
            return self._loop_blocks
        if not self._finalized:
            self.finalize()
        blocks: List[LoopBlock] = []
        mnemonics = [instr.mnemonic for instr in self.instructions]
        for branch, instr in enumerate(self.instructions):
            if instr.mnemonic not in BRANCH_MNEMONICS:
                continue
            offset = instr.offset
            if offset >= 0:
                continue
            head = branch + offset
            if head < 0:
                continue
            if any(
                mnemonics[pc] in CONTROL_MNEMONICS
                for pc in range(head, branch)
            ):
                continue
            blocks.append(LoopBlock(head=head, branch=branch))
        self._loop_blocks = blocks
        return blocks

    def size_bytes(self) -> int:
        """Program footprint in instruction memory."""
        return 4 * len(self.instructions)
