"""The memory law: a weight byte is copied once per place it lives, and
an instruction once per distinct value.

graph -> global image, one int8 byte each: two copies.  Simulated
global memory borrows the image's parameter segment as a read-only view
and owns only the activation window, a macro-group register borrows the
parameter bytes it was staged from (``tests/test_laws.py`` holds chip
construction and every compiled ``CIM_LOAD`` to that), and a replaced
chip set is freed at once.  A program is a list of references to its
registry's immutable, interned instructions: one object and one decoded
tuple per distinct instruction, however many static positions hold it.
These are deterministic counts (``tracemalloc`` bytes, parameter reads,
weakrefs, objects, spied calls), not RSS readings: the process-level
numbers are ``benchmarks/perf``'s ``peak_rss_mib``.
"""

import asyncio
import gc
import tracemalloc
import weakref

import pytest

from repro import Deployment, Fleet, artifact
from repro.compiler import compile_graph
from repro.compiler.codegen import lowering
from repro.compiler.pipeline import compile_model, plan_graph
from repro.compiler.plan import layout_global_memory
from repro.config import default_arch, small_test_arch
from repro.console import drive_session
from repro.errors import CapacityError
from repro.graph.models import get_model
from repro.graph.ops import Operator
from repro.isa import ISARegistry, Program
from repro.sim.core import translate_program
from repro.sim.functional import random_input
from repro.sim.multichip import MultiChipSimulator


def _resnet18_small():
    return get_model("resnet18", input_size=32, num_classes=10)


def test_run_borrows_every_loaded_weight(table1_arch):
    """Net allocation across a cycle-tier run is small change (block
    programs, reports, the scratchpad-vs-parameter comparisons), not the
    registers: every ``CIM_LOAD`` borrows its bytes from the parameter
    segment.  With an owned int8 register the ratio read 1.11, with a
    float32 one 4.1."""
    compiled = compile_graph(_resnet18_small(), table1_arch, "dp")
    sim = MultiChipSimulator(compiled)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    loaded = sum(chip.acct.cim_load_bytes for chip in sim.chips)
    assert loaded >= compiled.graph.total_weight_bytes()
    assert grown <= 0.25 * loaded


def test_a_replaced_chip_set_is_freed_at_once(monkeypatch):
    """A non-resident stream builds fresh chips per input.  With the
    cyclic collector off, input ``i``'s chips are gone once input
    ``i + 1`` starts: a replaced set is unlinked, not left to the GC."""
    compiled = compile_model(
        "tiny_resnet", small_test_arch(), "dp", chips=2,
        input_size=8, num_classes=10,
    )
    sim = MultiChipSimulator(compiled)
    replaced = []
    execute = sim._execute_pipeline

    def spied():
        assert [ref() for ref in replaced] == [None] * len(replaced)
        replaced.extend(weakref.ref(chip) for chip in sim.chips)
        return execute()

    monkeypatch.setattr(sim, "_execute_pipeline", spied)
    inputs = [random_input(compiled.graph, seed=s) for s in range(3)]
    gc.disable()
    try:
        sim.execute_stream(inputs)
    finally:
        gc.enable()
    assert len(replaced) == 3 * compiled.num_chips


@pytest.fixture(scope="module")
def resnet18_plan():
    """resnet18@32 dp on the Table I arch, planned and laid out: what
    ``ProgramGenerator`` lowers (18 240 static instructions, 973
    distinct)."""
    plan = plan_graph(_resnet18_small(), default_arch(), "dp")
    layout_global_memory(plan)
    return plan


def _generate(plan, registry):
    return lowering.ProgramGenerator(plan, registry).generate()


def test_one_instruction_object_per_distinct_instruction(resnet18_plan):
    """Programs share one ``Instruction`` per distinct value: no more
    objects than distinct decoded tuples (18 240 objects on a compiler
    that made one per static instruction)."""
    registry = ISARegistry()
    programs = _generate(resnet18_plan, registry).values()
    objects = {id(instr) for program in programs for instr in program}
    decoded = {t for program in programs
               for t in translate_program(program, registry)}
    assert len(objects) <= len(decoded)


def test_codegen_retains_a_reference_per_static_instruction(resnet18_plan):
    """``tracemalloc`` growth of code generation per static instruction:
    a list slot plus each distinct instruction's share of the intern
    table (~69 B), not an object and a field dict each (~297 B)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        programs = _generate(resnet18_plan, ISARegistry())
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    static = sum(len(program) for program in programs.values())
    assert grown / static < 150


def test_an_instruction_is_an_immutable_value():
    """A shared instruction cannot be changed through any program that
    holds it: a spelling of the same value (field order, explicit zeros)
    is the same object, and neither its attributes nor its fields take
    an assignment."""
    program = Program()
    instr = program.emit("SC_ADDI", rs=1, rt=2, imm=5)
    assert program.emit("SC_ADDI", imm=5, rt=2, rs=1, funct=0) is instr
    with pytest.raises(AttributeError):
        instr.mnemonic = "SC_MULI"
    with pytest.raises(TypeError):
        instr.fields["imm"] = 6
    assert (instr.mnemonic, dict(instr.fields)) == (
        "SC_ADDI", {"imm": 5, "rs": 1, "rt": 2})


def test_finalize_swaps_label_branches_and_is_idempotent():
    """Two programs whose loop branches resolve to different offsets:
    each label branch is replaced by its resolved instruction, the
    branch ``emit`` returned is left as it was, and a second
    ``finalize`` changes nothing."""
    programs, pending = [], []
    for body in (1, 2):
        program = Program()
        program.label("top")
        for _ in range(body):
            program.emit("NOP")
        pending.append(program.emit("BLT", rs=1, rt=2, target="top"))
        program.emit("HALT")
        programs.append(program.finalize())
    assert [(i.target, i.offset) for i in pending] == [("top", 0)] * 2
    branches = [program[-2] for program in programs]
    assert [(i.target, i.offset) for i in branches] == [(None, -1), (None, -2)]
    held = [list(program) for program in programs]
    for program in programs:
        program.finalize()
    assert all(a is b for program, before in zip(programs, held)
               for a, b in zip(program, before))


def test_translation_and_encoding_visit_each_distinct_instruction_once(
    resnet18_plan, monkeypatch
):
    """``translate_program`` is one lookup per static instruction (the
    registry's descriptor lookup runs once per distinct instruction, on
    an intern miss), and the artifact codec encodes each distinct
    instruction of a program once."""
    registry = ISARegistry()
    programs = list(_generate(resnet18_plan, registry).values())
    distinct = [len(set(translate_program(program, registry)))
                for program in programs]
    lookups, encodes = [], []
    lookup = registry.lookup
    monkeypatch.setattr(registry, "lookup",
                        lambda m: lookups.append(m) or lookup(m))
    encode = artifact.encode
    monkeypatch.setattr(artifact, "encode",
                        lambda i, r: encodes.append(i) or encode(i, r))
    for program in programs:
        program._translated = None
        translate_program(program, registry)
    assert len(lookups) <= sum(distinct)
    for program in programs:
        artifact._program_to_entry(program)
    assert len(encodes) <= sum(distinct)


def test_compile_reads_values_only_to_build_the_image(
    table1_arch, rng_calls, monkeypatch
):
    """Planning, layout and lowering ask shapes; the one reader of
    ``Operator.weight`` / ``.bias`` values is ``build_global_image``."""
    reads = {"inside": 0, "outside": 0}
    where = ["outside"]

    def counted(prop):
        def read(op):
            reads[where[0]] += 1
            return prop.fget(op)
        return property(read)

    monkeypatch.setattr(Operator, "weight", counted(Operator.weight))
    monkeypatch.setattr(Operator, "bias", counted(Operator.bias))
    build_global_image = lowering.build_global_image

    def entered(plan):
        assert rng_calls == []  # nothing drawn before the image is built
        where[0] = "inside"
        try:
            return build_global_image(plan)
        finally:
            where[0] = "outside"

    monkeypatch.setattr(lowering, "build_global_image", entered)
    compiled = compile_graph(_resnet18_small(), table1_arch, "dp")
    assert compiled.global_image.any()
    assert reads["outside"] == 0 and reads["inside"] > 0
    assert len(rng_calls) == 1


def test_oversized_model_fails_in_lowering_before_any_draw(rng_calls):
    """resnet18@224 still dies on its activation slab (ROADMAP item 3),
    now without drawing its 11 M weights first."""
    with pytest.raises(CapacityError, match="stem_pool: segment 'input'"):
        Deployment("resnet18", input_size=224, strategy="dp")
    assert rng_calls == []


def test_a_live_session_keeps_no_event_objects():
    """A live session's memory is the fleet step's records and the
    report, not a second copy of them as events: the event stream is
    replayed from those records on demand.  With the cyclic collector
    off, a clean 20 000-request session grew ~503 B per request while
    the handle kept its events, and grows ~294 B without them."""
    fleet = Fleet(
        "tiny_mlp", small_test_arch(), tier="fast", replicas=3,
        policy="rr", input_size=8, num_classes=10,
    )
    row, _ = fleet._service_profile()
    releases = [i * max(row) // 2 for i in range(20_000)]
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        handle = asyncio.run(drive_session(fleet, releases))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert handle.report.completed == len(releases)
    assert grown / len(releases) < 400
