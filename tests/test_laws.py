"""System laws as tests: each one a structural check that fails on a
violation, run with the rest of tier-1.

Hold each simulated byte once.  A chip simulator owns its global
activation window and borrows the compiled image's parameter segment
read-only (``sim/memory.py``); nothing writes the parameters, whichever
engine path issues the write; and a macro-group register is its own
array, aliasing neither segment.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.config import small_test_arch
from repro.config.arch import GLOBAL_BASE
from repro.errors import SimulationError
from repro.graph.models import get_model
from repro.isa import ProgramBuilder
from repro.sim import ChipSimulator
from repro.sim import blockengine as be
from repro.sim.functional import random_input

#: Bytes a chip may allocate beyond its scratchpads and activation window
#: (cores, register files, NoC and ledger state).
_EPSILON = 256 * 1024


@pytest.fixture(scope="module")
def resnet18_32():
    from repro.config import default_arch

    graph = get_model("resnet18", input_size=32, num_classes=10)
    return compile_graph(graph, default_arch(), "dp")


def test_chip_allocates_its_activation_window_not_its_parameters(resnet18_32):
    compiled = resnet18_32
    ChipSimulator.from_compiled(compiled)  # decode + block programs, once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = ChipSimulator.from_compiled(compiled)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    mem = sim.memory
    scratchpads = sum(local.nbytes for local in mem.locals)
    assert mem.activation_bytes == compiled.activation_bytes()
    assert mem.parameters.nbytes > 8 * _EPSILON  # the law has teeth
    assert grown - scratchpads <= mem.activation_bytes + _EPSILON
    assert np.shares_memory(mem.parameters, compiled.global_image)
    assert not mem.parameters.flags.writeable


def test_registers_alias_neither_segment(resnet18_32):
    compiled = resnet18_32
    sim = ChipSimulator.from_compiled(compiled)
    sim.memory.write_global(
        compiled.input_address(), random_input(compiled.graph, seed=0)
    )
    sim.run()
    mem = sim.memory
    registers = 0
    for core in sim.cores:
        for entry in core.mgs:
            if entry is None:
                continue
            register = entry[0]
            registers += 1
            assert not np.shares_memory(register, mem.activations)
            assert not np.shares_memory(register, mem.parameters)
            assert not np.shares_memory(register, mem.locals[core.core_id])
    assert registers > 0


_SPLIT = 512


def _parameter_write(mnemonic: str, looped: bool):
    """A core-0 program writing 8 bytes (or a word) into the parameter
    segment, straight-line or from inside a counted loop."""
    b = ProgramBuilder()
    b.li(4, GLOBAL_BASE + _SPLIT + 64)
    b.li(5, 0)
    b.li(3, 8)

    def body():
        if mnemonic == "MEM_CPY":
            b.emit("MEM_CPY", rs=5, rt=4, rd=3)
        else:
            b.emit("MEM_ST", rs=4, rt=3, offset=0)
        b.emit("SC_ADDI", rs=4, rt=4, imm=8)

    if looped:
        b.li(1, 0)
        b.li(2, 6)
        with b.loop(1, 2):
            body()
    else:
        body()
    b.halt()
    return {0: b.finalize()}


@pytest.mark.parametrize("mnemonic", ["MEM_CPY", "MEM_ST"])
@pytest.mark.parametrize("path", ["interpreter", "cold", "generated", "loop"])
def test_parameter_segment_is_read_only(path, mnemonic, monkeypatch):
    """A simulated write into the parameter segment raises on every
    engine path instead of corrupting the weights later inputs read."""
    monkeypatch.setattr(be, "_HOT_RUNS", 0 if path == "generated" else 16)
    be._BP_CACHE.clear()
    be.reset_stats()
    image = np.arange(1024, dtype=np.int64).astype(np.uint8)
    pristine = image.copy()
    sim = ChipSimulator(
        small_test_arch(),
        _parameter_write(mnemonic, looped=path == "loop"),
        global_image=image,
        activation_bytes=_SPLIT,
        engine="interp" if path == "interpreter" else "block",
    )
    try:
        with pytest.raises(SimulationError, match="read-only parameter"):
            sim.run()
        stats = dict(be.ENGINE_STATS)
    finally:
        be._BP_CACHE.clear()
    assert np.array_equal(image, pristine)
    if path == "cold":
        assert stats["block_promotions"] == 0
    elif path == "generated":
        assert stats["block_promotions"] > 0
    elif path == "loop":
        assert stats["loop_entries"] > 0
