"""Engine equivalence: the hot-block engine vs the legacy interpreter.

The hot-block execution engine (:mod:`repro.sim.blockengine`) promises
**bit-identical** results to the per-instruction interpreter: the same
``SimulationReport`` (cycles, energy breakdown, utilization, NoC
counters, instruction counts) and the same functional outputs / memory
contents for every workload.  These tests enforce that contract on every
tier-1 workload class plus the scheduler/engine edge cases (deadlock
reporting, mis-sized RECV, barrier release ordering, runaway detection,
extension instructions, batched-loop replay).

The engine compiles loop blocks only; straight-line code runs on the
interpreter's own handlers.  Each test therefore compares the
interpreter with the block engine, whose compiled loops and batched
replay are the only code the two do not share.  Block programs are
content-cached across simulators together with their compiled loops
and each loop's last plan, so the model, fuzz, NoC-contention and
hand-written classes also run warm (each has a ``...WarmCache`` twin
that runs every test twice in one cache), the opcode pins run warm
too, and the typed-error tests also raise from inside a compiled loop.
"""

import dataclasses
import functools
import os

import numpy as np
import pytest

from repro import Deployment, compile_model
from repro.config import small_test_arch
from repro.config.arch import GLOBAL_BASE
from repro.errors import ConfigError, SimulationError
from repro.isa import (
    Category,
    Format,
    InstructionDescriptor,
    ISARegistry,
    Opcode,
    ProgramBuilder,
    SReg,
)
from repro.sim.chip import ChipSimulator, default_engine

TINY_MODELS = ("tiny_mlp", "tiny_cnn", "tiny_resnet")
STRATEGIES = ("generic", "duplication", "dp")


def _deep_macro_arch():
    """The small arch with 2048-row macros (and local memory to stage
    them): one macro-group tile is deeper than an ``int_matmul`` chunk."""
    arch = small_test_arch()
    core = arch.chip.core
    group = core.cim_unit.macro_group
    macro = dataclasses.replace(group.macro, rows=2048)
    cim = dataclasses.replace(
        core.cim_unit, macro_group=dataclasses.replace(group, macro=macro)
    )
    memory = dataclasses.replace(core.local_memory, size_bytes=256 * 1024)
    core = dataclasses.replace(core, cim_unit=cim, local_memory=memory)
    return dataclasses.replace(
        arch, chip=dataclasses.replace(arch.chip, core=core)
    )


@pytest.fixture
def block_cache():
    """Start each test from an empty block cache and fresh engine
    counters, and leave the cache empty behind it."""
    from repro.sim import blockengine as be

    be._BP_CACHE.clear()
    be.reset_stats()
    yield
    be._BP_CACHE.clear()


def _warm_cache_twin(cls):
    """``cls`` with every test run twice in one block cache: the second
    pass meets the block programs, compiled loops and last plans the
    first left behind, must pass the same assertions, and may build no
    block program of its own."""

    def twice(test):
        @functools.wraps(test)
        def run_twice(self, *args, **kwargs):
            from repro.sim import blockengine as be

            test(self, *args, **kwargs)
            built = set(be._BP_CACHE)
            assert built, "the first pass built no block program"
            test(self, *args, **kwargs)
            assert set(be._BP_CACHE) == built, "the warm pass missed the cache"

        return run_twice

    tests = {name: twice(test) for name, test in vars(cls).items()
             if name.startswith("test_")}
    return type(cls.__name__ + "WarmCache", (cls,), tests)


def _report_fields(report):
    return {
        "cycles": report.cycles,
        "instructions": report.instructions,
        "macs": report.macs,
        "energy_breakdown_pj": report.energy_breakdown_pj,
        "utilization": report.utilization,
        "noc_bytes": report.noc_bytes,
        "noc_byte_hops": report.noc_byte_hops,
    }


def _run_both(programs, arch=None, image=None, registry=None, handlers=None,
              activation_bytes=None):
    """Run a hand-written program set on both engines, counting into
    freshly reset engine stats; return the sims."""
    from repro.sim import blockengine as be

    be.reset_stats()
    sims = {}
    for engine in ("interp", "block"):
        sim = ChipSimulator(
            arch or small_test_arch(),
            programs,
            registry=registry,
            global_image=None if image is None else image.copy(),
            extension_handlers=handlers,
            engine=engine,
            activation_bytes=activation_bytes,
        )
        sim.report = sim.run()
        sims[engine] = sim
    return sims["interp"], sims["block"]


def _assert_equal_state(interp, block):
    assert _report_fields(interp.report) == _report_fields(block.report)
    for cid in range(len(interp.cores)):
        assert np.array_equal(
            interp.memory.locals[cid], block.memory.locals[cid]
        ), f"core {cid} local memory diverged"
        assert interp.cores[cid].regs == block.cores[cid].regs
        assert interp.cores[cid].clock == block.cores[cid].clock
    assert np.array_equal(
        interp.memory.activations, block.memory.activations
    )


@pytest.mark.usefixtures("block_cache")
class TestModelEquivalence:
    @pytest.mark.parametrize("model", TINY_MODELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tiny_models_bit_identical(self, model, strategy, arch):
        compiled = compile_model(model, arch, strategy)
        a = Deployment(compiled, engine="interp").run()
        b = Deployment(compiled, engine="block").run()
        assert _report_fields(a.report) == _report_fields(b.report)
        for name in compiled.graph.outputs:
            assert np.array_equal(a.outputs[name], b.outputs[name])

    @pytest.mark.parametrize(
        "model,input_size",
        [("resnet18", 16), ("mobilenetv2", 16)],
    )
    def test_paper_models_bit_identical(self, model, input_size, table1_arch):
        compiled = compile_model(
            model, table1_arch, "generic",
            input_size=input_size, num_classes=10,
        )
        a = Deployment(compiled, engine="interp").run()
        b = Deployment(compiled, engine="block").run()
        assert _report_fields(a.report) == _report_fields(b.report)
        for name in compiled.graph.outputs:
            assert np.array_equal(a.outputs[name], b.outputs[name])


def _fuzz_graph(seed: int):
    """A small random-but-valid CNN, fully determined by ``seed``.

    Random depth, channel widths, kernel sizes, pooling and residual
    blocks over an 8x8 input, closed with the standard
    global-avgpool/classifier tail so every graph golden-validates.
    """
    from repro.graph.builder import GraphBuilder

    rng = np.random.default_rng(10_000 + seed)
    b = GraphBuilder(f"fuzz_{seed}", seed=int(rng.integers(1 << 30)))
    channels = int(rng.choice([4, 8]))
    size = 8
    x = b.input((size, size, channels))
    for i in range(int(rng.integers(2, 5))):
        kind = rng.choice(["conv", "relu", "pool", "residual"])
        if kind == "conv":
            channels = int(rng.choice([4, 8]))
            kernel = int(rng.choice([1, 3]))
            x = b.conv(x, channels, kernel, 1, kernel // 2, name=f"conv{i}")
        elif kind == "relu":
            x = b.relu(x, name=f"relu{i}")
        elif kind == "pool" and size >= 4:
            x = b.maxpool(x, 2, 2, name=f"pool{i}")
            size //= 2
        else:
            skip = x
            x = b.conv(x, channels, 3, 1, 1, name=f"res{i}_conv")
            x = b.relu(x, name=f"res{i}_relu")
            x = b.add(x, skip, name=f"res{i}_add")
    x = b.global_avgpool(x, name="gap")
    x = b.gemm(x, int(rng.choice([5, 10])), name="fc")
    b.output(x)
    return b.build(), rng


@pytest.mark.usefixtures("block_cache")
class TestDifferentialFuzz:
    """Seeded differential fuzzing: random graphs/configs, both engines.

    Each seed deterministically generates a small random CNN plus a
    random-but-valid architecture/strategy combination, then demands the
    hot-block engine and the legacy interpreter produce bit-identical
    reports and outputs.  This sweeps compiler/engine interactions the
    hand-picked models miss (odd channel mixes, kernel-1 convolutions,
    pool/residual placements) while staying fully reproducible.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graph_and_config_bit_identical(self, seed):
        from repro.config import with_flit_bytes, with_mg_size

        graph, rng = _fuzz_graph(seed)
        arch = with_flit_bytes(
            with_mg_size(small_test_arch(), int(rng.choice([2, 4]))),
            int(rng.choice([8, 16])),
        )
        strategy = str(rng.choice(STRATEGIES))
        compiled = compile_model(graph, arch, strategy)
        a = Deployment(compiled, engine="interp").run()
        b = Deployment(compiled, engine="block").run()
        assert a.validated and b.validated
        assert _report_fields(a.report) == _report_fields(b.report), (
            f"seed {seed}: {graph.name} [{strategy}] engine reports diverge"
        )
        for name in compiled.graph.outputs:
            assert np.array_equal(a.outputs[name], b.outputs[name]), (
                f"seed {seed}: output {name!r} diverged"
            )


def _run_block_stepped(programs, arch=None, image=None):
    """Run the block engine with loop batching disabled (forced stepped)."""
    from repro.sim import blockengine as be

    old = be._MIN_BATCH
    be._MIN_BATCH = 1 << 30
    try:
        sim = ChipSimulator(
            arch or small_test_arch(),
            programs,
            global_image=None if image is None else image.copy(),
            engine="block",
        )
        sim.report = sim.run()
    finally:
        be._MIN_BATCH = old
    return sim


#: Per-core disjoint global write-back windows for the NoC fuzzer.
_FUZZ_WB_BASE = 4096
_FUZZ_WB_SPAN = 512


def _fuzz_noc_programs(seed: int):
    """Random concurrent NoC-traffic programs, fully determined by seed.

    Generates a per-core mix of the patterns the iteration-major NoC
    replay must survive: global-memory streaming loops on adjacent cores
    (all routes converge on the memory port, so their reservations
    contend), write-back loops, a multicast SEND/RECV clique, CIM
    weight-streaming bodies (``MEM_CPY`` + ``CIM_LOAD`` + ``CIM_MVM``
    per pass, the multipass conv shape) and degenerate 1-iteration
    loops.  Global writes land in per-core disjoint windows so the
    functional outcome is engine-order independent by construction;
    everything else (timing, energy, NoC counters) must still match
    bit-for-bit.
    """
    rng = np.random.default_rng(20_000 + seed)
    num_cores = 4
    iters_menu = [1, 2, 5, 16, 33]

    # Optionally reserve a multicast clique: one source SENDs to one or
    # two receivers every iteration; receivers RECV in lockstep.
    mc_src, mc_dsts, mc_iters, mc_bytes = None, (), 0, 0
    if rng.random() < 0.6:
        mc_src = int(rng.integers(num_cores))
        others = [c for c in range(num_cores) if c != mc_src]
        rng.shuffle(others)
        mc_dsts = tuple(others[: int(rng.integers(1, 3))])
        mc_iters = int(rng.choice([1, 2, 6, 12]))
        mc_bytes = int(rng.choice([4, 16, 40]))

    progs = {}
    for cid in range(num_cores):
        b = ProgramBuilder()
        if cid == mc_src:
            b.li(4, 128)                      # payload pointer (steps)
            b.li(3, mc_bytes)
            b.li(1, 0)
            b.li(2, mc_iters)
            with b.loop(1, 2):
                for dst in mc_dsts:
                    b.li(5, dst)
                    b.emit("SEND", rs=4, rt=5, rd=3)
                b.emit("SC_ADDIW", rs=4, rt=4, offset=8)
        elif cid in mc_dsts:
            b.li(4, 4096)                     # receive buffer (steps)
            b.li(5, mc_src)
            b.li(3, mc_bytes)
            b.li(1, 0)
            b.li(2, mc_iters)
            with b.loop(1, 2):
                b.emit("RECV", rs=4, rt=5, rd=3)
                b.emit("SC_ADDIW", rs=4, rt=4, offset=8)
        kind = rng.choice(["stream", "writeback", "cim_stream", "idle"])
        iters = int(rng.choice(iters_menu))
        nbytes = int(rng.choice([8, 32, 64]))
        stride = int(rng.choice([0, nbytes, nbytes + 8]))
        if kind == "stream":
            # Global -> local streaming: every iteration crosses the
            # mesh from the memory port, contending with other cores.
            b.li(6, GLOBAL_BASE + int(rng.integers(0, 1024)))
            b.li(7, 512)
            b.li(3, nbytes)
            b.li(1, 0)
            b.li(2, iters)
            with b.loop(1, 2):
                b.emit("MEM_CPY", rs=6, rt=7, rd=3)
                b.emit("SC_ADDIW", rs=6, rt=6, offset=stride)
        elif kind == "writeback":
            # Local -> global into this core's disjoint window.
            b.li(6, 256)
            b.li(7, GLOBAL_BASE + _FUZZ_WB_BASE + cid * _FUZZ_WB_SPAN)
            b.li(3, min(nbytes, 32))
            b.li(1, 0)
            b.li(2, min(iters, 12))
            with b.loop(1, 2):
                b.emit("MEM_CPY", rs=6, rt=7, rd=3)
                b.emit("SC_ADDIW", rs=7, rt=7, offset=32)
        elif kind == "cim_stream":
            # Multipass conv shape: stream a weight tile from global,
            # load it into a CIM macro-group, multiply-accumulate.
            rows, cols = 16, 8
            b.li(6, GLOBAL_BASE + int(rng.integers(0, 512)))
            b.li(7, 1024)                     # staging
            b.li(3, rows * cols)
            b.set_sreg(SReg.MVM_ROWS, 10, rows)
            b.set_sreg(SReg.MVM_COLS, 10, cols)
            b.li(8, 0)                        # vector pointer
            b.li(9, 2048)                     # accumulator
            b.li(11, 0)                       # mg slot
            b.li(1, 0)
            b.li(2, iters)
            with b.loop(1, 2):
                b.emit("MEM_CPY", rs=6, rt=7, rd=3)
                b.emit("CIM_LOAD", rs=7, rt=11)
                b.emit("CIM_MVM", rs=8, rt=11, re=9, flags=1)
                b.emit("SC_ADDIW", rs=6, rt=6, offset=rows * cols)
        b.halt()
        progs[cid] = b.finalize()
    rng_img = np.random.default_rng(30_000 + seed)
    image = rng_img.integers(
        -128, 128, _FUZZ_WB_BASE + num_cores * _FUZZ_WB_SPAN, dtype=np.int8
    ).view(np.uint8)
    return progs, image


@pytest.mark.usefixtures("block_cache")
class TestNoCContentionFuzz:
    """Seeded NoC-contention fuzzing across both differential axes.

    Each seed generates concurrent per-core traffic (global streams
    converging on the memory port, multicast SEND/RECV cliques, CIM
    weight-streaming loops, degenerate 1-iteration loops) and is run
    three ways: legacy interpreter, block engine with iteration-major
    NoC replay, and block engine with batching forced off.  All three
    must agree bit-for-bit on reports, register files, clocks and
    memory images -- 100 seeds x 2 comparison axes = 200 trials.
    """

    @pytest.mark.parametrize("seed", range(100))
    def test_contention_trial_bit_identical(self, seed):
        progs, image = _fuzz_noc_programs(seed)
        interp, block = _run_both(progs, image=image)
        # Axis 1: batched block engine vs the interpreter.
        _assert_equal_state(interp, block)
        # Axis 2: batched vs forced-stepped block engine.
        stepped = _run_block_stepped(progs, image=image)
        _assert_equal_state(stepped, block)

    def test_corpus_exercises_noc_replay(self):
        """The corpus must actually drive the NoC replay machinery:
        windows attempted, windows committed, and at least one
        contention bailout falling back to stepped execution."""
        from repro.sim import blockengine as be

        be.reset_stats()
        for seed in range(100):
            progs, image = _fuzz_noc_programs(seed)
            sim = ChipSimulator(
                small_test_arch(), progs,
                global_image=image.copy(), engine="block",
            )
            sim.run()
        stats = be.ENGINE_STATS
        assert stats["noc_batch_attempts"] > 0
        assert stats["noc_batch_successes"] > 0
        assert stats["noc_batch_contention_bailouts"] > 0


class TestMultipassStreamEquivalence:
    """Overlapping multipass convs on adjacent cores: the compiled
    weight-streaming workload whose loop bodies carry global ``MEM_CPY``
    + ``CIM_LOAD`` per pass, batched via iteration-major NoC replay."""

    @pytest.mark.parametrize(
        "branches,in_channels,width,kernel,make_arch",
        [
            pytest.param(2, 64, 4, 4, small_test_arch, id="2-64-4-4"),
            pytest.param(3, 128, 8, 3, small_test_arch, id="3-128-8-3"),
            # MG tiles of 2048 rows: every MVM spans two int_matmul chunks
            pytest.param(2, 512, 8, 5, _deep_macro_arch,
                         id="2-512-8-5-rows2048"),
        ],
    )
    def test_weight_stream_bit_identical(
        self, branches, in_channels, width, kernel, make_arch
    ):
        from repro.sim import blockengine as be

        arch = make_arch()
        compiled = compile_model(
            "weight_stream", arch, "generic",
            branches=branches, in_channels=in_channels,
            width=width, kernel=kernel,
        )
        be.reset_stats()
        a = Deployment(compiled, engine="block").run()
        stats = dict(be.ENGINE_STATS)
        assert stats["noc_batch_attempts"] >= branches
        assert stats["noc_batch_successes"] >= branches
        b = Deployment(compiled, engine="interp").run()
        assert a.validated and b.validated
        assert _report_fields(a.report) == _report_fields(b.report)
        for name in compiled.graph.outputs:
            assert np.array_equal(a.outputs[name], b.outputs[name])
        sim = ChipSimulator.from_compiled(compiled, engine="block")
        sim.run()
        loaded = [mg for core in sim.cores for mg in core.mgs if mg is not None]
        assert max(rows for _, rows, _ in loaded) == min(
            arch.chip.core.cim_unit.macro_group.macro.rows,
            kernel * kernel * in_channels,
        )


def _assert_register_owned(sim, mg, weights):
    """Macro group ``mg`` of core 0 holds ``weights`` as one owned int8
    array: a byte per weight, aliasing neither memory, pinning no larger
    buffer."""
    register, rows, cols = sim.cores[0].mgs[mg]
    assert (rows, cols) == weights.shape
    assert register.dtype == np.int8
    assert register.nbytes == rows * cols
    assert np.array_equal(register, weights)
    assert not np.shares_memory(register, sim.memory.locals[0])
    assert not np.shares_memory(register, sim.memory.activations)
    assert not np.shares_memory(register, sim.memory.parameters)
    assert register.base is None or register.base.nbytes == rows * cols


@pytest.mark.usefixtures("block_cache")
class TestHandWrittenPrograms:
    def test_register_survives_overwritten_staging(self):
        """``CIM_LOAD`` -> clobber the staged scratchpad bytes ->
        ``CIM_MVM``: the product uses the loaded values on both engines.
        The rendered ``CIM_LOAD`` reads its source as the view ``lm[a:a
        + n]``, so the naive narrowing -- drop the widening cast, add no
        copy -- would leave a register that follows the clobber."""
        rows, cols = 32, 8
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, rows * cols + rows)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)    # weights at 0, vector after
        b.set_sreg(SReg.MVM_ROWS, 10, rows)
        b.set_sreg(SReg.MVM_COLS, 10, cols)
        b.li(4, 0)
        b.li(5, 1)
        b.emit("CIM_LOAD", rs=4, rt=5)
        b.set_sreg(SReg.FILL_VALUE, 10, 9)
        b.li(3, rows * cols)
        b.emit("VEC_FILL", rd=4, re=3)
        b.li(6, rows * cols)
        b.li(7, 1024)
        b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
        b.halt()
        rng = np.random.default_rng(17)
        image = rng.integers(-128, 128, 2048, dtype=np.int8)
        weights = image[:rows * cols].reshape(rows, cols).copy()
        vec = image[rows * cols:rows * cols + rows].astype(np.int32)
        interp, block = _run_both(
            {0: b.finalize()}, image=image.view(np.uint8)
        )
        _assert_equal_state(interp, block)
        for sim in (interp, block):
            out = sim.memory.read(0, 1024, 4 * cols).view(np.int32)
            assert np.array_equal(out, vec @ weights.astype(np.int32))
            _assert_register_owned(sim, 1, weights)

    def test_batched_flush_register_is_its_own_copy(self):
        """A loop that loads a new tile every iteration is replayed as one
        ``m x rows x cols`` stack; the register left behind is the last
        tile *copied out*, so it neither pins the stack nor follows the
        scratchpad when the staged tiles are overwritten afterwards."""
        from repro.sim import blockengine as be

        rows, cols, iters = 16, 8, 24
        tile = rows * cols
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, iters * tile + rows)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)    # tiles at 0, vector after
        b.set_sreg(SReg.MVM_ROWS, 10, rows)
        b.set_sreg(SReg.MVM_COLS, 10, cols)
        b.li(4, 0)               # tile pointer (steps by one tile)
        b.li(5, 0)               # macro group 0
        b.li(6, iters * tile)    # input vector (fixed)
        b.li(7, 8192)            # output pointer (steps by 4 * cols)
        b.li(1, 0)
        b.li(2, iters)
        with b.loop(1, 2):
            b.emit("CIM_LOAD", rs=4, rt=5)
            b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
            b.emit("SC_ADDIW", rs=4, rt=4, offset=tile)
            b.emit("SC_ADDIW", rs=7, rt=7, offset=4 * cols)
        b.set_sreg(SReg.FILL_VALUE, 10, 3)
        b.li(4, 0)
        b.li(3, iters * tile)
        b.emit("VEC_FILL", rd=4, re=3)         # clobber every staged tile
        b.li(7, 12288)
        b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
        b.halt()
        rng = np.random.default_rng(23)
        image = rng.integers(-128, 128, 16384, dtype=np.int8)
        last = image[(iters - 1) * tile:iters * tile].reshape(rows, cols).copy()
        vec = image[iters * tile:iters * tile + rows].astype(np.int32)
        interp, block = _run_both(
            {0: b.finalize()}, image=image.view(np.uint8)
        )
        # the replay runs to the loop's end, so its flush wrote the register
        batched = be.ENGINE_STATS["loop_iterations_batched"]
        stepped = be.ENGINE_STATS["loop_iterations_stepped"]
        assert batched > 0 and batched + stepped == iters
        _assert_equal_state(interp, block)
        for sim in (interp, block):
            out = sim.memory.read(0, 12288, 4 * cols).view(np.int32)
            assert np.array_equal(out, vec @ last.astype(np.int32))
            _assert_register_owned(sim, 0, last)

    def test_counted_loop_batched_replay(self):
        """A long counted loop (exercises the batched NumPy replay)."""
        rows, cols, iters = 32, 8, 200
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, rows * cols)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.set_sreg(SReg.MVM_ROWS, 10, rows)
        b.set_sreg(SReg.MVM_COLS, 10, cols)
        b.li(4, 0)
        b.li(5, 0)
        b.emit("CIM_LOAD", rs=4, rt=5)
        b.set_sreg(SReg.QMUL, 10, 3)
        b.set_sreg(SReg.QSHIFT, 10, 6)
        b.li(6, 512)      # input pointer (steps by 1)
        b.li(7, 1024)     # accumulator (fixed)
        b.li(8, 2048)     # output pointer (steps by cols)
        b.li(21, cols)
        b.li(1, 0)
        b.li(2, iters)
        with b.loop(1, 2):
            b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
            b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=1)
            b.emit("VEC_QNT", rs=7, rd=8, re=21)
            b.emit("SC_ADDIW", rs=6, rt=6, offset=1)
            b.emit("SC_ADDIW", rs=8, rt=8, offset=cols)
        b.halt()
        rng = np.random.default_rng(11)
        image = rng.integers(-128, 128, 4096, dtype=np.int8).view(np.uint8)
        interp, block = _run_both({0: b.finalize()}, image=image)
        _assert_equal_state(interp, block)

    def test_accumulation_loop(self):
        """VEC_ACC32 loop (cumsum-batched) + gather/scatter traffic."""
        n = 16
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 256)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)          # input rows -> local
        b.set_sreg(SReg.FILL_VALUE, 10, 0)
        b.li(4, 1024)
        b.li(5, n)
        b.emit("VEC_FILL", rd=4, re=5, funct=4)      # zero int32 acc
        b.li(6, 0)       # source pointer
        b.li(7, n)
        b.li(1, 0)
        b.li(2, 12)
        with b.loop(1, 2):
            b.emit("VEC_ACC32", rs=6, rd=4, re=7)
            b.emit("SC_ADDIW", rs=6, rt=6, offset=n)
        b.set_sreg(SReg.QMUL, 10, 5)
        b.set_sreg(SReg.QSHIFT, 10, 4)
        b.li(8, 2048)
        b.emit("VEC_QNT", rs=4, rd=8, re=7)
        b.li(9, GLOBAL_BASE + 512)
        b.emit("MEM_CPY", rs=8, rt=9, rd=7)
        b.halt()
        rng = np.random.default_rng(3)
        image = rng.integers(-128, 128, 1024, dtype=np.int8).view(np.uint8)
        interp, block = _run_both({0: b.finalize()}, image=image)
        _assert_equal_state(interp, block)

    def test_accumulator_reset_inside_loop(self):
        """VEC_FILL resetting the VEC_ACC32 region every iteration.

        Regression test: the cumsum closed form must refuse to batch an
        accumulator that another op writes (even the identical region),
        otherwise the running sum survives across iterations that the
        interpreter resets.
        """
        n = 8
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 64)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.set_sreg(SReg.FILL_VALUE, 10, 5)
        b.li(4, 1024)     # accumulator, reset each iteration
        b.li(5, n)
        b.li(6, 0)        # source pointer (steps by n)
        b.li(1, 0)
        b.li(2, 40)
        with b.loop(1, 2):
            b.emit("VEC_FILL", rd=4, re=5, funct=4)
            b.emit("VEC_ACC32", rs=6, rd=4, re=5)
            b.emit("SC_ADDIW", rs=6, rt=6, offset=1)
        b.halt()
        rng = np.random.default_rng(5)
        image = rng.integers(-128, 128, 256, dtype=np.int8).view(np.uint8)
        interp, block = _run_both({0: b.finalize()}, image=image)
        _assert_equal_state(interp, block)

    def test_send_recv_barrier_ordering(self):
        """Producer/consumer chain across three cores with barriers."""
        nbytes = 24
        progs = {}
        for cid in range(3):
            b = ProgramBuilder()
            if cid == 0:
                b.li(1, GLOBAL_BASE)
                b.li(2, 0)
                b.li(3, nbytes)
                b.emit("MEM_CPY", rs=1, rt=2, rd=3)
            else:
                b.li(2, 64)
                b.li(4, cid - 1)
                b.li(3, nbytes)
                b.emit("RECV", rs=2, rt=4, rd=3)
            if cid < 2:
                b.li(5, cid + 1)
                b.li(6, 0 if cid == 0 else 64)
                b.li(3, nbytes)
                b.emit("SEND", rs=6, rt=5, rd=3)
            b.emit("BARRIER")
            if cid == 2:
                b.li(7, GLOBAL_BASE + 256)
                b.li(2, 64)
                b.li(3, nbytes)
                b.emit("MEM_CPY", rs=2, rt=7, rd=3)
            b.halt()
            progs[cid] = b.finalize()
        payload = np.arange(nbytes, dtype=np.uint8)
        image = np.concatenate([payload, np.zeros(512, np.uint8)])
        interp, block = _run_both(progs, image=image)
        _assert_equal_state(interp, block)
        out = block.memory.read_global(GLOBAL_BASE + 256, nbytes)
        assert np.array_equal(out.view(np.uint8), payload)

    def test_extension_instructions_equivalent(self):
        """Extension opcodes fall back to handler dispatch in the engine."""
        registry = ISARegistry()
        registry.register(InstructionDescriptor(
            mnemonic="VEC_NEG",
            opcode=int(Opcode.EXT0),
            category=Category.VECTOR,
            fmt=Format.VEC,
            operands=("rs", "rd", "re"),
            latency=4,
            energy_pj=2.0,
        ))

        def neg_handler(core, t):
            n = core.regs[t[4]]
            data = core.chip.memory.read(core.core_id, core.regs[t[1]], n)
            core.chip.memory.write(core.core_id, core.regs[t[3]], -data)

        b = ProgramBuilder(registry)
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 8)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(4, 64)
        b.emit("VEC_NEG", rs=2, rd=4, re=3)
        b.li(5, GLOBAL_BASE + 64)
        b.emit("MEM_CPY", rs=4, rt=5, rd=3)
        b.halt()
        image = np.arange(1, 9, dtype=np.int8).view(np.uint8)
        image = np.concatenate([image, np.zeros(128, np.uint8)])
        interp, block = _run_both(
            {0: b.finalize()}, image=image,
            registry=registry, handlers={"VEC_NEG": neg_handler},
        )
        _assert_equal_state(interp, block)
        out = block.memory.read_global(GLOBAL_BASE + 64, 8)
        assert list(out) == [-1, -2, -3, -4, -5, -6, -7, -8]

    def test_inner_loop_length_alternates_across_entries(self):
        """An inner loop whose vector length is 8 on even outer entries
        and 4 on odd ones: the length is a value the plan template binds,
        so every second entry meets a template whose guard rejects it and
        must still be planned (and batched) from its own state."""
        from repro.sim import blockengine as be

        inner, outer = 24, 6
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 2048)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(11, 1)
        b.li(9, 0)        # outer counter
        b.li(10, outer)   # outer bound
        with b.loop(9, 10):
            # length = 8 - 4 * (outer_i & 1)
            b.emit("SC_AND", rs=9, rt=11, rd=21)
            b.emit("SC_MULI", rs=21, rt=21, imm=-4)
            b.emit("SC_ADDIW", rs=21, rt=21, offset=8)
            # in = 192 * outer_i, out = 4096 + 192 * outer_i
            b.emit("SC_MULI", rs=9, rt=6, imm=192)
            b.emit("SC_ADDIW", rs=6, rt=8, offset=4096)
            b.li(1, 0)      # inner counter
            b.li(2, inner)  # inner bound
            with b.loop(1, 2):
                b.emit("VEC_RELU", rs=6, rd=8, re=21)
                b.emit("SC_ADDIW", rs=6, rt=6, offset=8)
                b.emit("SC_ADDIW", rs=8, rt=8, offset=8)
        b.halt()
        rng = np.random.default_rng(23)
        image = rng.integers(-128, 128, 2048, dtype=np.int8).view(np.uint8)
        interp, block = _run_both({0: b.finalize()}, image=image)
        _assert_equal_state(interp, block)
        stats = be.ENGINE_STATS
        assert stats["batch_attempts"] == outer
        assert stats["batch_successes"] == outer
        assert stats["template_misfits"] >= outer // 2

    def test_inner_loop_destination_global_then_local(self):
        """An inner copy loop that writes global memory on outer entry 0
        (never batched: the write is visible to other cores) and local
        memory on entries 1-4.  The entry that cannot batch must not
        decide for the ones that can."""
        from repro.sim import blockengine as be

        n, inner, outer = 8, 24, 5
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 2048)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(3, n)
        b.li(11, GLOBAL_BASE + 4096)
        b.li(9, 0)        # outer counter
        b.li(10, outer)   # outer bound
        with b.loop(9, 10):
            # in = 192 * outer_i
            # out = 4096 + 192 * outer_i, + GLOBAL_BASE + 4096 on entry 0
            b.emit("SC_MULI", rs=9, rt=6, imm=192)
            b.emit("SC_SLTI", rs=9, rt=12, imm=1)
            b.emit("SC_MUL", rs=12, rt=11, rd=12)
            b.emit("SC_ADD", rs=6, rt=12, rd=8)
            b.emit("SC_ADDIW", rs=8, rt=8, offset=4096)
            b.li(1, 0)      # inner counter
            b.li(2, inner)  # inner bound
            with b.loop(1, 2):
                b.emit("MEM_CPY", rs=6, rt=8, rd=3)
                b.emit("SC_ADDIW", rs=6, rt=6, offset=n)
                b.emit("SC_ADDIW", rs=8, rt=8, offset=n)
        b.halt()
        rng = np.random.default_rng(29)
        image = rng.integers(-128, 128, 2048, dtype=np.int8).view(np.uint8)
        image = np.concatenate([image, np.zeros(16384, np.uint8)])
        interp, block = _run_both({0: b.finalize()}, image=image)
        _assert_equal_state(interp, block)
        out = block.memory.read_global(GLOBAL_BASE + 8192, inner * n)
        assert np.array_equal(out.view(np.uint8), image[:inner * n])
        stats = be.ENGINE_STATS
        assert stats["batch_attempts"] == outer
        assert stats["batch_successes"] == outer - 1


#: The borrowed-register chips' image split: activations ``[0, A)``, then
#: the read-only parameter segment, staged from parameter offset ``_POFF``.
_A, _POFF = 1024, 512


def _assert_register_borrowed(sim, mg, weights, offset):
    """Macro group ``mg`` of core 0 holds ``weights`` as a read-only view
    of exactly its bytes at parameter offset ``offset``, aliasing neither
    the scratchpad nor the activation window."""
    register, rows, cols = sim.cores[0].mgs[mg]
    params = sim.memory.parameters
    assert (rows, cols) == weights.shape
    assert register.dtype == np.int8
    assert register.nbytes == rows * cols
    assert np.array_equal(register, weights)
    assert not register.flags.writeable
    assert np.shares_memory(register, params)
    start = register.__array_interface__["data"][0]
    assert start - params.__array_interface__["data"][0] == offset
    assert not np.shares_memory(register, sim.memory.locals[0])
    assert not np.shares_memory(register, sim.memory.activations)


@pytest.mark.usefixtures("block_cache")
class TestBorrowedRegisters:
    """A ``CIM_LOAD`` of scratchpad bytes the core staged from the
    parameter segment, still equal to them, borrows its register from
    the parameters; anything else gets an owned copy.  Hand-built chips
    split their image at ``_A``, so the parameter segment is not empty."""

    ROWS, COLS = 16, 8

    def _run(self, staged, at, clobber=None):
        """Core 0 copies ``staged`` parameter bytes from ``_POFF`` to
        scratchpad 0 and a ``ROWS``-long vector from the activation
        window to 2048, loads the tile at scratchpad ``at`` into MG 1
        and multiplies into 3072.  ``clobber`` ("before" / "after" the
        load) fills the tile's first row with 9s."""
        rows, cols = self.ROWS, self.COLS
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE + _A + _POFF)
        b.li(2, 0)
        b.li(3, staged)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(1, GLOBAL_BASE)
        b.li(2, 2048)
        b.li(3, rows)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.set_sreg(SReg.MVM_ROWS, 10, rows)
        b.set_sreg(SReg.MVM_COLS, 10, cols)
        b.set_sreg(SReg.FILL_VALUE, 10, 9)
        b.li(4, at)
        b.li(5, 1)
        b.li(3, cols)

        def fill_first_row():
            b.emit("VEC_FILL", rd=4, re=3)

        if clobber == "before":
            fill_first_row()
        b.emit("CIM_LOAD", rs=4, rt=5)
        if clobber == "after":
            fill_first_row()
        b.li(6, 2048)
        b.li(7, 3072)
        b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
        b.halt()
        image = np.random.default_rng(29).integers(
            -128, 128, 4096, dtype=np.int8)
        interp, block = _run_both(
            {0: b.finalize()}, image=image.view(np.uint8), activation_bytes=_A
        )
        _assert_equal_state(interp, block)
        vec = image[:rows].astype(np.int32)
        start = _A + _POFF + at
        weights = image[start:start + rows * cols].reshape(rows, cols).copy()
        if clobber == "before":
            weights[0] = 9
        for sim in (interp, block):
            out = sim.memory.read(0, 3072, 4 * cols).view(np.int32)
            assert np.array_equal(out, vec @ weights.astype(np.int32))
        return (interp, block), weights

    def test_staged_tile_is_borrowed(self):
        """(a) Stage, load, clobber the staging: the register borrows the
        parameters, so the product still uses the loaded values."""
        sims, weights = self._run(self.ROWS * self.COLS, 0, clobber="after")
        for sim in sims:
            _assert_register_borrowed(sim, 1, weights, _POFF)

    def test_staging_clobbered_before_the_load_is_copied(self):
        """(b) The staging rewritten between ``MEM_CPY`` and ``CIM_LOAD``
        no longer equals the parameters: the note is only a hint, and the
        register is an owned copy of the clobbered bytes."""
        sims, weights = self._run(self.ROWS * self.COLS, 0, clobber="before")
        for sim in sims:
            _assert_register_owned(sim, 1, weights)

    def test_sub_range_of_the_staging_borrows_at_its_offset(self):
        """(c) A tile loaded from inside a larger staged range borrows the
        parameter bytes at the same distance from the staged start."""
        at = self.ROWS * self.COLS + 24
        sims, weights = self._run(3 * self.ROWS * self.COLS, at)
        for sim in sims:
            _assert_register_borrowed(sim, 1, weights, _POFF + at)

    def test_resident_session_keeps_borrowed_registers(self):
        """(d) ``load_resident`` borrows every register, the warm replays
        keep the same views, and the warm outputs are byte-equal across
        engines and to isolated full runs."""
        from repro.sim.functional import random_input
        from repro.sim.multichip import MultiChipSimulator

        compiled = compile_model(
            "tiny_mlp", small_test_arch(), "generic", num_classes=10
        )
        inputs = [random_input(compiled.graph, seed=s) for s in range(3)]

        def registers(sim):
            return [(chip, entry[0]) for chip in sim.chips
                    for core in chip.cores for entry in core.mgs
                    if entry is not None]

        outputs = []
        for engine in ("interp", "block"):
            sim = MultiChipSimulator(compiled, engine=engine)
            sim.load_resident()
            loaded = registers(sim)
            assert loaded
            for chip, register in loaded:
                assert np.shares_memory(register, chip.memory.parameters)
                assert not register.flags.writeable
            _, outs = sim.execute_warm_stream(inputs)
            kept = registers(sim)
            assert len(kept) == len(loaded)
            assert all(a is b for (_, a), (_, b) in zip(kept, loaded))
            outputs.append(outs)
        isolated = MultiChipSimulator(compiled, engine="interp")
        outputs.append(isolated.execute_stream(inputs)[1])
        for outs in outputs[1:]:
            for got, want in zip(outs, outputs[0]):
                assert got.keys() == want.keys()
                for name in want:
                    assert got[name].tobytes() == want[name].tobytes()


TestModelEquivalenceWarmCache = _warm_cache_twin(TestModelEquivalence)
TestDifferentialFuzzWarmCache = _warm_cache_twin(TestDifferentialFuzz)
TestNoCContentionFuzzWarmCache = _warm_cache_twin(TestNoCContentionFuzz)
TestHandWrittenProgramsWarmCache = _warm_cache_twin(TestHandWrittenPrograms)
TestBorrowedRegistersWarmCache = _warm_cache_twin(TestBorrowedRegisters)


class TestEdgeCases:
    def _lonely_recv(self):
        b = ProgramBuilder()
        b.li(1, 0)
        b.li(2, 1)
        b.li(3, 4)
        b.emit("RECV", rs=1, rt=2, rd=3)
        b.halt()
        return b.finalize()

    @pytest.mark.parametrize("engine", ("interp", "block"))
    def test_deadlock_reported(self, engine):
        sim = ChipSimulator(
            small_test_arch(), {0: self._lonely_recv()}, engine=engine
        )
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()

    @pytest.mark.parametrize("engine", ("interp", "block"))
    def test_recv_size_mismatch_detected(self, engine):
        sender = ProgramBuilder()
        sender.li(1, 0)
        sender.li(2, 1)
        sender.li(3, 8)
        sender.emit("SEND", rs=1, rt=2, rd=3)
        sender.halt()
        receiver = ProgramBuilder()
        receiver.li(1, 0)
        receiver.li(2, 0)
        receiver.li(3, 4)  # expects 4, message has 8
        receiver.emit("RECV", rs=1, rt=2, rd=3)
        receiver.halt()
        sim = ChipSimulator(
            small_test_arch(),
            {0: sender.finalize(), 1: receiver.finalize()},
            engine=engine,
        )
        with pytest.raises(SimulationError, match="RECV expects"):
            sim.run()

    @pytest.mark.parametrize("engine", ("interp", "block"))
    def test_runaway_detection(self, engine):
        b = ProgramBuilder()
        b.program.label("spin")
        b.emit("JMP", target="spin")
        b.halt()
        sim = ChipSimulator(
            small_test_arch(), {0: b.finalize()}, engine=engine
        )
        with pytest.raises(SimulationError, match="runaway"):
            sim.cores[0].run(max_instructions=1000)

    def test_barrier_release_clocks_match(self):
        fast = ProgramBuilder()
        fast.emit("BARRIER")
        fast.emit("NOP")
        fast.halt()
        slow = ProgramBuilder()
        for _ in range(40):
            slow.emit("NOP")
        slow.emit("BARRIER")
        slow.emit("NOP")
        slow.halt()
        interp, block = _run_both(
            {0: fast.finalize(), 1: slow.finalize()}
        )
        _assert_equal_state(interp, block)


class TestEngineSelection:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert default_engine() == "block"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "interp")
        assert default_engine() == "interp"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "bogus")
        with pytest.raises(ConfigError, match="unknown simulation engine"):
            default_engine()

    def test_env_selects_interpreter(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "interp")
        sim = ChipSimulator(small_test_arch(), {})
        assert sim.engine == "interp"
        assert all(core._blockprog is None for core in sim.cores)

    def test_block_engine_installs_tables(self):
        sim = ChipSimulator(small_test_arch(), {}, engine="block")
        assert sim.engine == "block"
        assert all(core._blockprog is not None for core in sim.cores)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown simulation engine"):
            ChipSimulator(small_test_arch(), {}, engine="turbo")

    def test_block_programs_shared_across_cores(self):
        b = ProgramBuilder()
        for _ in range(4):
            b.emit("NOP")
        b.halt()
        program = b.finalize()
        sim = ChipSimulator(
            small_test_arch(), {0: program, 1: program}, engine="block"
        )
        assert sim.cores[0]._blockprog is sim.cores[1]._blockprog


def _count_engine_compiles(monkeypatch):
    """Spy on ``compile()``: the list of block-engine sources compiled
    from now on (handlers compile under another filename)."""
    import builtins

    sources = []
    real_compile = builtins.compile

    def counting_compile(source, filename, *args, **kwargs):
        if filename == "<blockengine>":
            sources.append(source)
        return real_compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    return sources


class TestCompiledLoops:
    """The engine compiles loop blocks and nothing else."""

    def test_session_compiles_loop_shapes_only(self, monkeypatch):
        """A 19-input deployment session is identical to the interpreter
        on every input, and the only functions it compiles are loops: the
        first input compiles them, every later one reuses them."""
        from repro.serve import Deployment
        from repro.sim import blockengine as be

        monkeypatch.setattr(be, "_BP_CACHE", {})
        monkeypatch.setattr(be, "_SHAPE_CACHE", {})
        sources = _count_engine_compiles(monkeypatch)
        served = Deployment(
            "tiny_resnet", _deep_macro_arch(), engine="block",
            input_size=8, num_classes=10,
        )
        reference = Deployment(served.compiled, engine="interp")
        compiled_by_input = []
        for seed in range(19):
            before = len(sources)
            a = served.submit(batch=1, seed=seed)
            compiled_by_input.append(len(sources) - before)
            b = reference.submit(batch=1, seed=seed)
            assert a.validated and b.validated
            assert a.to_dict() == b.to_dict(), f"input {seed} diverged"
            for got, want in zip(a.per_input_outputs, b.per_input_outputs):
                for name in want:
                    assert np.array_equal(got[name], want[name])
        assert compiled_by_input[0] > 0
        assert compiled_by_input[1:] == [0] * 18
        assert all(source.startswith("def _block(core, C, max_iter):")
                   for source in sources)

    def test_cold_run_compiles_loop_shapes_only(self, table1_arch, monkeypatch):
        """The count guard: a process-cold resnet18@64 run pays
        ``compile()`` for its loop shapes alone (117 shapes when every
        straight-line block was compiled too, 13 loops)."""
        from repro.sim import blockengine as be

        compiled = compile_model(
            "resnet18", table1_arch, "dp", input_size=64, num_classes=100
        )
        sources = _count_engine_compiles(monkeypatch)
        be._BP_CACHE.clear()
        be._SHAPE_CACHE.clear()
        ChipSimulator.from_compiled(compiled, engine="block").run()
        assert 0 < len(sources) <= 13


class TestPlanTemplates:
    """The batch planner walks each loop entry from its concrete state;
    a loop instance keeps its last plan and reuses it for an entry in
    exactly that state.  Results must stay bit-identical (the fuzzer and
    every equivalence test above run with the planner active)."""

    def test_nested_loop_reuses_template_across_entries(self):
        """An inner counted loop re-entered by an outer loop with
        translated base pointers: every entry differs from the last, so
        each is walked once and batches."""
        from repro.sim import blockengine as be

        rows, cols, inner, outer = 16, 8, 24, 10
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 2048)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.set_sreg(SReg.MVM_ROWS, 10, rows)
        b.set_sreg(SReg.MVM_COLS, 10, cols)
        b.li(4, 0)
        b.li(5, 0)
        b.emit("CIM_LOAD", rs=4, rt=5)
        b.set_sreg(SReg.QMUL, 10, 3)
        b.set_sreg(SReg.QSHIFT, 10, 6)
        b.li(21, cols)
        b.li(9, 0)        # outer counter
        b.li(10, outer)   # outer bound
        with b.loop(9, 10):
            # per-entry translated pointers: in = 256 + 32*outer_i,
            # out = 4096 + 256*outer_i
            b.emit("SC_MULI", rs=9, rt=6, imm=32)
            b.emit("SC_ADDIW", rs=6, rt=6, offset=256)
            b.emit("SC_MULI", rs=9, rt=8, imm=256)
            b.emit("SC_ADDIW", rs=8, rt=8, offset=4096)
            b.li(7, 1024)   # accumulator (fixed)
            b.li(1, 0)      # inner counter
            b.li(2, inner)  # inner bound
            with b.loop(1, 2):
                b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
                b.emit("VEC_QNT", rs=7, rd=8, re=21)
                b.emit("SC_ADDIW", rs=6, rt=6, offset=1)
                b.emit("SC_ADDIW", rs=8, rt=8, offset=cols)
        b.halt()
        rng = np.random.default_rng(17)
        image = rng.integers(-128, 128, 4096, dtype=np.int8).view(np.uint8)

        be.reset_stats()
        interp, block = _run_both({0: b.finalize()}, image=image)
        _assert_equal_state(interp, block)
        stats = be.ENGINE_STATS
        assert stats["batch_successes"] == outer
        assert stats["template_builds"] == outer
        assert stats["template_misfits"] == outer - 1

    @pytest.mark.parametrize("model", TINY_MODELS)
    def test_templates_active_and_bit_identical_on_models(self, model, arch):
        from repro.sim import blockengine as be

        compiled = compile_model(model, arch, "dp")
        be.reset_stats()
        a = Deployment(compiled, engine="block").run()
        first = dict(be.ENGINE_STATS)
        b = Deployment(compiled, engine="block").run()
        second = dict(be.ENGINE_STATS)
        if first["batch_successes"]:
            # Re-simulation enters every loop in the state of the first
            # run, so it walks nothing new and each of its batches reuses
            # a plan (content-addressed across simulator runs).
            assert second["template_builds"] == first["template_builds"]
            assert (second["template_hits"] - first["template_hits"]
                    == second["batch_successes"] - first["batch_successes"])
        interp = Deployment(compiled, engine="interp").run()
        assert _report_fields(a.report) == _report_fields(interp.report)
        for name in compiled.graph.outputs:
            assert np.array_equal(a.outputs[name], interp.outputs[name])


class TestPlanMemoKey:
    """A loop instance reuses its last plan only for an entry that agrees
    on everything the planner's walk reads.  Each program below re-enters
    one loop in a state that differs from the last entry only in a part
    of that key no register shows."""

    @staticmethod
    def _sim(arch, program, image, engine):
        return ChipSimulator(
            arch, {0: program}, global_image=image.copy(),
            engine=engine,
        )

    @pytest.mark.parametrize("engine", ("interp", "block", "warm"))
    def test_macro_groups_reloaded_at_swapped_shapes(self, engine,
                                                     monkeypatch):
        """Two passes load MG 1 at 16x8 and MG 2 at 8x16, then the other
        way round, and enter an inner loop of two MVMs with identical
        registers, S_Regs and step delta: only the loaded shapes differ,
        and both entries still batch.  ``warm`` runs the program once
        before, so its first entry meets the last plan of that run's
        second pass, which differs in the loaded shapes alone."""
        from repro.graph.quantize import int_matmul
        from repro.sim import blockengine as be

        monkeypatch.setattr(be, "_BP_CACHE", {})
        inner, x0, out1, out2, park = 16, 256, 4096, 8192, 12288
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 2048)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(9, 0)        # pass
        b.li(10, 2)
        with b.loop(9, 10):
            # MG 1 is (16 - 8 * pass) x (8 + 8 * pass); MG 2 transposed
            b.emit("SC_MULI", rs=9, rt=11, imm=-8)
            b.emit("SC_ADDIW", rs=11, rt=11, offset=16)
            b.emit("SC_MULI", rs=9, rt=12, imm=8)
            b.emit("SC_ADDIW", rs=12, rt=12, offset=8)
            for mg, base, rows, cols in ((1, 0, 11, 12), (2, 128, 12, 11)):
                b.emit("MV_G2S", rs=rows, imm=int(SReg.MVM_ROWS))
                b.emit("MV_G2S", rs=cols, imm=int(SReg.MVM_COLS))
                b.li(4, base)
                b.li(5, mg)
                b.emit("CIM_LOAD", rs=4, rt=5)
            # enter the inner loop in the same state on both passes
            b.emit("MEM_ST", rs=0, rt=9, offset=park)
            for reg in (9, 11, 12):
                b.li(reg, 0)
            for sreg in (SReg.MVM_ROWS, SReg.MVM_COLS):
                b.emit("MV_G2S", rs=0, imm=int(sreg))
            b.li(6, x0)
            b.li(7, out1)
            b.li(8, out2)
            b.li(13, 1)
            b.li(14, 2)
            b.li(1, 0)
            b.li(2, inner)
            with b.loop(1, 2):
                b.emit("CIM_MVM", rs=6, rt=13, re=7, flags=0)
                b.emit("CIM_MVM", rs=6, rt=14, re=8, flags=0)
                b.emit("SC_ADDIW", rs=6, rt=6, offset=16)
                b.emit("SC_ADDIW", rs=7, rt=7, offset=64)
                b.emit("SC_ADDIW", rs=8, rt=8, offset=64)
            b.emit("MEM_LD", rs=0, rt=9, offset=park)
        b.halt()
        rng = np.random.default_rng(29)
        image = rng.integers(-128, 128, 2048, dtype=np.int8).view(np.uint8)
        program = b.finalize()
        if engine == "warm":
            engine = "block"
            self._sim(small_test_arch(), program, image, engine).run()
        be.reset_stats()
        sim = self._sim(small_test_arch(), program, image, engine)
        sim.run()

        local = sim.memory.locals[0]
        w = image.view(np.int8)
        for i in range(inner):
            x = w[x0 + 16 * i:x0 + 16 * i + 16]
            # pass 1 wrote all of MG 1's 16 columns and the first 8 of
            # MG 2's slot; pass 0's MG 2 (8x16) result keeps the rest
            y1 = int_matmul(x[:8], w[:128].reshape(8, 16))
            y2 = np.concatenate([
                int_matmul(x, w[128:256].reshape(16, 8)),
                int_matmul(x[:8], w[128:256].reshape(8, 16))[8:],
            ])
            assert np.array_equal(
                local[out1 + 64 * i:out1 + 64 * i + 64].view(np.int32), y1)
            assert np.array_equal(
                local[out2 + 64 * i:out2 + 64 * i + 64].view(np.int32), y2)
        if engine != "interp":
            assert be.ENGINE_STATS["batch_successes"] == 2
            assert be.ENGINE_STATS["template_hits"] == 0

    @pytest.mark.parametrize("engine", ("interp", "block"))
    def test_smaller_scratchpad_after_a_batched_run(self, engine,
                                                    monkeypatch):
        """A copy loop that fits a 16 KiB scratchpad runs again, with the
        same entry state, on an 8 KiB one: it must raise the
        interpreter's error, leaving exactly the copies that fit."""
        from repro.sim import blockengine as be

        monkeypatch.setattr(be, "_BP_CACHE", {})
        n, dst, trips = 256, 4096, 32
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, n)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(4, dst)
        b.li(1, 0)
        b.li(2, trips)
        with b.loop(1, 2):
            b.emit("MEM_CPY", rs=0, rt=4, rd=3)
            b.emit("SC_ADDIW", rs=4, rt=4, offset=n)
        b.halt()
        program = b.finalize()
        rng = np.random.default_rng(31)
        image = rng.integers(0, 256, n, dtype=np.uint8)
        big = small_test_arch()
        core = big.chip.core
        small = dataclasses.replace(big, chip=dataclasses.replace(
            big.chip, core=dataclasses.replace(
                core, local_memory=dataclasses.replace(
                    core.local_memory, size_bytes=8192))))

        be.reset_stats()
        self._sim(big, program, image, engine).run()
        if engine != "interp":
            assert be.ENGINE_STATS["batch_successes"] == 1
        sim = self._sim(small, program, image, engine)
        with pytest.raises(SimulationError, match="outside scratchpad"):
            sim.run()
        expected = np.zeros(8192, dtype=np.int8)
        expected[:n] = image.view(np.int8)
        expected[dst:] = np.tile(image.view(np.int8), (8192 - dst) // n)
        assert np.array_equal(sim.memory.locals[0], expected)


class TestBatchedWriteBounds:
    def test_write_past_the_scratchpad_bails_before_the_flush(self):
        """A planned step-0 write whose region ends past ``local_size``
        refuses the batch in phase A: ``_Bail`` before ``pre_flush``, the
        scratchpad untouched (the flush writes through unchecked strided
        views, so a wrong plan must never reach it)."""
        from repro.sim import blockengine as be

        sim = ChipSimulator(small_test_arch(), {}, engine="block")
        local, size = sim.memory.locals[0], sim.memory.local_size
        before = local.copy()
        ops = [
            ("fill", (7, 16, 0), (), (0, 0, 16)),
            ("fill", (9, 32, 0), (), (size - 16, 0, 32)),
        ]
        flushed = []
        with pytest.raises(be._Bail):
            be._exec_batch(sim.cores[0], ops, 8, lambda: flushed.append(1))
        assert flushed == []
        assert np.array_equal(local, before)


# ---------------------------------------------------------------------------
# Opcode pins: one hand-written program per opcode family, held to numbers
# ---------------------------------------------------------------------------

def _pin_scalar():
    """Register and immediate ALU ops, LUI / ORI / ADDIW, S_Reg moves."""
    b = ProgramBuilder()
    b.emit("SC_ADDI", rs=0, rt=1, imm=100)
    b.emit("SC_ADDI", rs=0, rt=2, imm=7)
    b.emit("SC_ADDI", rs=0, rt=3, imm=-3)
    for rd, mnemonic in enumerate(
        ("SC_ADD", "SC_SUB", "SC_MUL", "SC_SLT", "SC_AND", "SC_OR",
         "SC_XOR", "SC_SLL"), start=4,
    ):
        b.emit(mnemonic, rs=1, rt=2, rd=rd)
    b.emit("SC_SUB", rs=2, rt=1, rd=12)
    b.emit("SC_MUL", rs=1, rt=3, rd=13)
    b.emit("SC_SLT", rs=3, rt=2, rd=14)
    b.emit("SC_SRL", rs=3, rt=2, rd=15)
    b.emit("SC_ADD", rs=1, rt=2, rd=0)       # r0 stays zero
    b.emit("SC_ADDI", rs=1, rt=16, imm=-50)
    b.emit("SC_MULI", rs=3, rt=17, imm=-7)
    b.emit("SC_SLTI", rs=3, rt=18, imm=0)
    b.emit("SC_SLTI", rs=1, rt=19, imm=5)
    b.emit("SC_LUI", rt=20, offset=0x1234)
    b.emit("SC_ORI", rs=20, rt=20, offset=0x5678)
    b.emit("SC_ADDIW", rs=20, rt=21, offset=-1000)
    b.emit("SC_ADDIW", rs=0, rt=22, offset=30000)
    b.emit("MV_G2S", rs=13, imm=int(SReg.USER0))
    b.emit("MV_S2G", rt=23, imm=int(SReg.USER0))
    b.emit("MV_S2G", rt=24, imm=int(SReg.NUM_CORES))
    b.emit("SC_ADD", rs=23, rt=24, rd=25)
    b.halt()
    return {0: b.finalize()}, None


def _pin_control():
    """Every branch taken and not taken, JMP, NOP, SYNC, a counted loop."""
    b = ProgramBuilder()
    b.li(1, 5)
    b.li(2, 5)
    b.li(3, 9)
    cases = [
        ("BEQ", 1, 2), ("BEQ", 1, 3), ("BNE", 1, 3), ("BNE", 1, 2),
        ("BLT", 1, 3), ("BLT", 3, 1), ("BGE", 3, 1), ("BGE", 1, 3),
    ]
    for k, (mnemonic, rs, rt) in enumerate(cases):
        skip = b.program.new_label("skip")
        b.emit(mnemonic, rs=rs, rt=rt, target=skip)
        b.emit("SC_ADDI", rs=0, rt=10 + k, imm=k + 1)   # runs if not taken
        b.program.place_label(skip)
        b.emit("SC_ADDI", rs=10 + k, rt=10 + k, imm=20)
    over = b.program.new_label("over")
    b.emit("JMP", target=over)
    b.emit("SC_ADDI", rs=0, rt=20, imm=99)
    b.program.place_label(over)
    b.emit("NOP")
    b.emit("SYNC", rt=1)
    b.li(4, 0)
    b.li(5, 3)
    with b.loop(4, 5):
        b.emit("SC_ADD", rs=21, rt=3, rd=21)
        b.emit("NOP")
    b.halt()
    return {0: b.finalize()}, None


def _pin_copy():
    """MEM_CPY / LD / ST local and global both ways, GATHER, SCATTER."""
    b = ProgramBuilder()
    b.li(1, GLOBAL_BASE)
    b.li(2, 0)
    b.li(3, 200)
    b.emit("MEM_CPY", rs=1, rt=2, rd=3)                # global -> local
    b.li(4, 256)
    b.emit("MEM_CPY", rs=2, rt=4, rd=3, offset=8)      # local -> local
    b.li(5, 100)
    b.emit("MEM_CPY", rs=2, rt=5, rd=3)                # overlapping
    b.li(6, GLOBAL_BASE + 512)
    b.emit("MEM_CPY", rs=4, rt=6, rd=3)                # local -> global
    b.emit("MEM_CPY", rs=1, rt=6, rd=3, offset=256)    # global -> global
    b.emit("MEM_CPY", rs=2, rt=4, rd=0)                # zero bytes
    b.emit("MEM_LD", rs=2, rt=7, offset=4)
    b.emit("MEM_LD", rs=1, rt=8, offset=16)
    b.emit("MEM_ST", rs=4, rt=8, offset=-8)
    b.emit("MEM_ST", rs=6, rt=7, offset=12)
    b.set_sreg(SReg.CHUNK, 10, 4)
    b.set_sreg(SReg.STRIDE, 10, 12)
    b.li(9, 5)
    b.li(11, 1024)
    b.emit("MEM_GATHER", rs=2, rt=11, rd=9)            # local -> local
    b.li(12, 2048)
    b.emit("MEM_SCATTER", rs=11, rt=12, rd=9)          # local -> local
    b.li(13, 3072)
    b.emit("MEM_GATHER", rs=1, rt=13, rd=9)            # global -> local
    b.li(14, GLOBAL_BASE + 800)
    b.emit("MEM_SCATTER", rs=13, rt=14, rd=9)          # local -> global
    b.emit("MEM_GATHER", rs=2, rt=11, rd=0)            # zero chunks
    b.emit("MEM_LD", rs=12, rt=15, offset=12)
    b.halt()
    rng = np.random.default_rng(41)
    return {0: b.finalize()}, rng.integers(0, 256, 1024, dtype=np.uint8)


def _pin_send_recv():
    """SEND / RECV between two cores, both ways, from local and global."""
    sender = ProgramBuilder()
    sender.li(1, GLOBAL_BASE)
    sender.li(2, 0)
    sender.li(3, 40)
    sender.emit("MEM_CPY", rs=1, rt=2, rd=3)
    sender.li(4, 3)
    sender.emit("SEND", rs=2, rt=4, rd=3)
    sender.li(5, 24)
    sender.emit("SEND", rs=1, rt=4, rd=5)              # global source
    sender.li(6, 512)
    sender.emit("RECV", rs=6, rt=4, rd=5)
    sender.halt()
    receiver = ProgramBuilder()
    receiver.li(1, 128)
    receiver.li(2, 0)
    receiver.li(3, 40)
    receiver.emit("RECV", rs=1, rt=2, rd=3)
    receiver.li(4, 256)
    receiver.li(5, 24)
    receiver.emit("RECV", rs=4, rt=2, rd=5)
    receiver.emit("SEND", rs=1, rt=2, rd=5)
    receiver.halt()
    rng = np.random.default_rng(43)
    image = rng.integers(0, 256, 256, dtype=np.uint8)
    return {0: sender.finalize(), 3: receiver.finalize()}, image


def _pin_cim():
    """CIM_LOAD / CFG / MVM with flags 0 and 1, local and global ends."""
    rows, cols = 16, 8
    b = ProgramBuilder()
    b.li(1, GLOBAL_BASE)
    b.li(2, 0)
    b.li(3, rows * cols + rows)
    b.emit("MEM_CPY", rs=1, rt=2, rd=3)
    b.set_sreg(SReg.MVM_ROWS, 10, rows)
    b.set_sreg(SReg.MVM_COLS, 10, cols)
    b.li(4, 1)
    b.emit("CIM_LOAD", rs=2, rt=4)
    b.li(5, rows * cols)
    b.li(6, 1024)
    b.emit("CIM_MVM", rs=5, rt=4, re=6, flags=0)
    b.emit("CIM_MVM", rs=5, rt=4, re=6, flags=1)
    b.set_sreg(SReg.MVM_ROWS, 10, 8)
    b.set_sreg(SReg.MVM_COLS, 10, 4)
    b.emit("CIM_CFG", rt=4)
    b.li(7, 2048)
    b.emit("CIM_MVM", rs=5, rt=4, re=7, flags=0)
    b.li(8, GLOBAL_BASE + 512)
    b.li(9, GLOBAL_BASE + 600)
    b.emit("CIM_MVM", rs=9, rt=4, re=8, flags=1)       # global ends
    b.li(11, 3)
    b.li(12, 256)
    b.emit("CIM_LOAD", rs=12, rt=11)                   # 8 x 4 tile
    b.emit("CIM_MVM", rs=5, rt=11, re=7, flags=1)
    b.halt()
    rng = np.random.default_rng(47)
    return {0: b.finalize()}, rng.integers(0, 256, 1024, dtype=np.uint8)


def _pin_vector():
    """All fifteen vector ops, both FILL widths, local and global ends."""
    n = 24
    b = ProgramBuilder()
    b.li(1, GLOBAL_BASE)
    b.li(2, 0)
    b.li(3, 256)
    b.emit("MEM_CPY", rs=1, rt=2, rd=3)
    b.li(4, 64)                  # second int8 operand
    b.li(5, n)
    out = 512
    for mnemonic in ("VEC_ADD", "VEC_SUB", "VEC_MUL", "VEC_MAX", "VEC_MIN"):
        b.li(6, out)
        b.emit(mnemonic, rs=2, rt=4, rd=6, re=5)
        out += 32
    for mnemonic in ("VEC_RELU", "VEC_RELU6", "VEC_SILU", "VEC_SIGMOID",
                     "VEC_COPY"):
        b.li(6, out)
        b.emit(mnemonic, rs=2, rd=6, re=5)
        out += 32
    b.set_sreg(SReg.FILL_VALUE, 10, 200)
    b.li(7, 1024)
    b.emit("VEC_FILL", rd=7, re=5)                     # int8
    b.li(8, 1100)
    b.emit("VEC_FILL", rd=8, re=5, funct=4)            # int32
    b.li(9, 1300)
    b.emit("VEC_ADD32", rs=8, rt=2, rd=9, re=5)
    b.emit("VEC_ACC32", rs=4, rd=9, re=5)
    b.set_sreg(SReg.QMUL, 10, 3)
    b.set_sreg(SReg.QSHIFT, 10, 4)
    b.li(11, 1500)
    b.emit("VEC_QNT", rs=9, rd=11, re=5)
    b.set_sreg(SReg.CHANNEL_LEN, 10, 8)
    b.li(12, 1600)
    b.emit("VEC_CMUL", rs=2, rt=4, rd=12, re=5)
    b.li(13, GLOBAL_BASE + 512)
    b.emit("VEC_RELU", rs=1, rd=13, re=5)              # global ends
    b.emit("VEC_ADD32", rs=1, rt=8, rd=13, re=5)
    b.emit("VEC_COPY", rs=2, rd=12, re=0)              # zero elements
    b.halt()
    rng = np.random.default_rng(53)
    return {0: b.finalize()}, rng.integers(0, 256, 1024, dtype=np.uint8)


def _pin_batched():
    """Counted loops that batch every plan kind (12 trips each)."""
    trips = 12
    b = ProgramBuilder()
    b.li(1, GLOBAL_BASE)
    b.li(2, 0)
    b.li(3, 1024)
    b.emit("MEM_CPY", rs=1, rt=2, rd=3)

    # Copies + the scalar ops the walk binds.  Local MEM_CPY forward,
    # backward and into one fixed row; a two-piece read (half forwarded,
    # half memory); MEM_GATHER; a global-source MEM_CPY (NoC replay).
    b.set_sreg(SReg.CHUNK, 10, 4)
    b.set_sreg(SReg.STRIDE, 10, 8)
    b.li(1, 0)              # forward source, step 16
    b.li(2, 2048)           # forward destination, step 32
    b.li(3, 16)
    b.li(4, 900)            # backward source, step -16
    b.li(5, 2816)           # backward destination, step -16
    b.li(6, 3)              # gather chunk count
    b.li(7, 64)             # gather source, step 16
    b.li(8, 3072)           # gather destination, step 12
    b.li(9, GLOBAL_BASE + 1024)   # global source, step 24
    b.li(11, 3328)          # global-copy destination, step 16
    b.li(12, 24)
    b.li(13, 3712)          # two-piece copy destination, step 32
    b.li(14, 32)
    b.li(15, 4224)          # fixed destination (step 0)
    b.li(16, 0x35)
    b.li(17, 3)
    b.li(30, 0)
    b.li(31, trips)
    with b.loop(30, 31):
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.emit("MEM_CPY", rs=2, rt=13, rd=14)          # two-piece read
        b.emit("MEM_CPY", rs=4, rt=5, rd=3)
        b.emit("MEM_CPY", rs=1, rt=15, rd=3, offset=4)
        b.emit("MEM_GATHER", rs=7, rt=8, rd=6)
        b.emit("MEM_CPY", rs=9, rt=11, rd=12)
        for rd, mnemonic in enumerate(
            ("SC_SLT", "SC_AND", "SC_OR", "SC_XOR", "SC_SLL", "SC_SRL"),
            start=18,
        ):
            b.emit(mnemonic, rs=16, rt=17, rd=rd)
        b.emit("SC_SLTI", rs=17, rt=24, imm=5)
        b.emit("SC_LUI", rt=25, offset=0x12)
        b.emit("SC_ORI", rs=16, rt=26, offset=0x0F00)
        b.emit("SC_MUL", rs=1, rt=17, rd=27)
        b.emit("SC_SUB", rs=27, rt=1, rd=28)
        b.emit("MV_G2S", rs=28, imm=int(SReg.USER1))
        b.emit("MV_S2G", rt=29, imm=int(SReg.USER1))
        b.emit("SC_ADDIW", rs=1, rt=1, offset=16)
        b.emit("SC_ADDIW", rs=2, rt=2, offset=32)
        b.emit("SC_ADDIW", rs=13, rt=13, offset=32)
        b.emit("SC_ADDI", rs=4, rt=4, imm=-16)
        b.emit("SC_ADDI", rs=5, rt=5, imm=-16)
        b.emit("SC_ADDI", rs=7, rt=7, imm=16)
        b.emit("SC_ADDI", rs=8, rt=8, imm=12)
        b.emit("SC_ADDI", rs=9, rt=9, imm=24)
        b.emit("SC_ADDI", rs=11, rt=11, imm=16)

    # CIM: an in-loop load into macro group 1 and a resident group 0;
    # MVM flags 0 and 1 on both, one accumulating into a fixed row.
    rows, cols = 16, 8
    b.set_sreg(SReg.MVM_ROWS, 10, rows)
    b.set_sreg(SReg.MVM_COLS, 10, cols)
    b.emit("CIM_LOAD", rs=0, rt=0)          # resident group 0, from 0
    b.li(1, 128)            # in-loop weights, step 64
    b.li(2, 1)
    b.li(3, 512)            # input vector, step 16
    b.li(4, 5120)           # group-1 output, step 32
    b.li(5, 5632)           # fixed accumulator row
    b.li(6, 6144)           # group-0 output, step 32
    b.li(30, 0)
    with b.loop(30, 31):
        b.emit("CIM_LOAD", rs=1, rt=2)
        b.emit("CIM_MVM", rs=3, rt=2, re=4, flags=0)
        b.emit("CIM_MVM", rs=3, rt=2, re=4, flags=1)
        b.emit("CIM_MVM", rs=3, rt=0, re=5, flags=1)
        b.emit("CIM_MVM", rs=3, rt=0, re=6, flags=0)
        b.emit("SC_ADDIW", rs=1, rt=1, offset=64)
        b.emit("SC_ADDIW", rs=3, rt=3, offset=16)
        b.emit("SC_ADDIW", rs=4, rt=4, offset=32)
        b.emit("SC_ADDIW", rs=6, rt=6, offset=32)

    # Vector: all fifteen ops, both FILL widths, an int32 accumulator.
    n = 16
    b.set_sreg(SReg.FILL_VALUE, 10, 200)
    b.set_sreg(SReg.QMUL, 10, 3)
    b.set_sreg(SReg.QSHIFT, 10, 4)
    b.set_sreg(SReg.CHANNEL_LEN, 10, 8)
    b.li(1, n)
    b.li(2, 0)              # int8 operand a, step 16
    b.li(3, 512)            # int8 operand b, step 16
    b.li(4, 8192)           # int8 results, step 16 (13 regions of 256)
    b.li(6, 12288)          # int32 results, step 64 (2 regions of 1024)
    b.li(8, 14336)          # int32 accumulator (fixed)
    b.li(9, 768)            # VEC_CMUL scales (fixed)
    b.emit("VEC_FILL", rd=8, re=1, funct=4)
    b.li(30, 0)
    with b.loop(30, 31):
        k = 0
        for mnemonic in ("VEC_ADD", "VEC_SUB", "VEC_MUL", "VEC_MAX",
                         "VEC_MIN", "VEC_CMUL"):
            b.emit("SC_ADDIW", rs=4, rt=5, offset=256 * k)
            b.emit(mnemonic, rs=2, rt=9 if mnemonic == "VEC_CMUL" else 3,
                   rd=5, re=1)
            k += 1
        for mnemonic in ("VEC_RELU", "VEC_RELU6", "VEC_SILU", "VEC_SIGMOID",
                         "VEC_COPY", "VEC_FILL"):
            b.emit("SC_ADDIW", rs=4, rt=5, offset=256 * k)
            b.emit(mnemonic, rs=2, rd=5, re=1)
            k += 1
        b.emit("VEC_FILL", rd=6, re=1, funct=4)
        b.emit("SC_ADDIW", rs=6, rt=7, offset=1024)
        b.emit("VEC_ADD32", rs=6, rt=6, rd=7, re=1)
        b.emit("SC_ADDIW", rs=4, rt=5, offset=256 * k)
        b.emit("VEC_QNT", rs=7, rd=5, re=1)
        b.emit("VEC_ACC32", rs=3, rd=8, re=1)
        b.emit("SC_ADDIW", rs=2, rt=2, offset=16)
        b.emit("SC_ADDIW", rs=3, rt=3, offset=16)
        b.emit("SC_ADDIW", rs=4, rt=4, offset=16)
        b.emit("SC_ADDIW", rs=6, rt=6, offset=64)
    b.halt()
    rng = np.random.default_rng(59)
    return {0: b.finalize()}, rng.integers(0, 256, 2048, dtype=np.uint8)


_PIN_PROGRAMS = {
    "scalar": _pin_scalar,
    "control": _pin_control,
    "copy": _pin_copy,
    "send_recv": _pin_send_recv,
    "cim": _pin_cim,
    "vector": _pin_vector,
    "batched": _pin_batched,
}


def _sha(*arrays) -> str:
    """The first 16 hex digits of the SHA-256 of ``arrays``' bytes."""
    import hashlib

    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def _pinned_state(sim, cores):
    """Everything an opcode's rendering can move: per-core clock, unit
    busy, registers, ready times and macro groups; every accountant
    tally; the bytes of local and global memory."""
    acct = sim.acct
    return {
        "clock": {c: sim.cores[c].clock for c in cores},
        "busy": {c: dict(sim.cores[c].busy) for c in cores},
        "regs": {c: {i: v for i, v in enumerate(sim.cores[c].regs) if v}
                 for c in cores},
        "ready": {c: {i: v for i, v in enumerate(sim.cores[c].reg_ready)
                      if v} for c in cores},
        "sregs": {c: {i: v for i, v in enumerate(sim.cores[c].sregs) if v}
                  for c in cores},
        "mgs": {c: {g: (e[1], e[2], _sha(e[0]))
                    for g, e in enumerate(sim.cores[c].mgs) if e is not None}
                for c in cores},
        "acct": {f.name: getattr(acct, f.name)
                 for f in dataclasses.fields(acct) if f.name != "energy"},
        "local": _sha(*sim.memory.locals),
        "global": _sha(sim.memory.activations),
    }


def _run_pinned(family: str, engine: str):
    """Run one family's program on ``engine`` from an empty block cache;
    ``warm`` is the block engine's second run of it in one cache."""
    from repro.sim import blockengine as be

    programs, image = _PIN_PROGRAMS[family]()
    be._BP_CACHE.clear()
    try:
        for _ in range(2 if engine == "warm" else 1):
            be.reset_stats()
            sim = ChipSimulator(
                small_test_arch(), programs,
                global_image=None if image is None else image.copy(),
                engine="interp" if engine == "interp" else "block",
            )
            sim.run()
        stats = dict(be.ENGINE_STATS)
    finally:
        be._BP_CACHE.clear()
    return _pinned_state(sim, sorted(programs)), stats


#: What each family's program leaves behind (identical on every engine).
_OPCODE_PINS = {
    'scalar': {
        'clock': {0: 28},
        'busy': {0: {'scalar': 28, 'vector': 0, 'cim': 0, 'mem': 0,
            'xfer': 0}},
        'regs': {0: {1: 100, 2: 7, 3: -3, 4: 107, 5: 93, 6: 700, 8: 4, 9: 103,
            10: 99, 11: 12800, 12: -93, 13: -300, 14: 1, 15: 33554431, 16: 50,
            17: 21, 18: 1, 20: 305419896, 21: 305418896, 22: 30000, 23: -300,
            24: 4, 25: -296}},
        'ready': {0: {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9,
            10: 10, 11: 11, 12: 12, 13: 13, 14: 14, 15: 15, 16: 17, 17: 18,
            18: 19, 19: 20, 20: 22, 21: 23, 22: 24, 23: 26, 24: 27, 25: 28}},
        'sregs': {0: {1: 4, 8: -300}},
        'mgs': {0: {}},
        'acct': {'n_instructions': 32, 'n_scalar_ops': 28, 'macs': 0,
            'mvm_rows': 0, 'mvm_result_bytes': 0, 'cim_load_bytes': 0,
            'vec_elements': 0, 'local_bytes_read': 0, 'local_bytes_written': 0,
            'global_bytes': 0, 'noc_pj_total': 0.0, 'static_pj_total': 42000.0,
            'extra_pj': {}},
        'local': 'de2f256064a0af79',
        'global': '30e14955ebf13522',
    },
    'control': {
        'clock': {0: 40},
        'busy': {0: {'scalar': 40, 'vector': 0, 'cim': 0, 'mem': 0,
            'xfer': 0}},
        'regs': {0: {1: 5, 2: 5, 3: 9, 4: 3, 5: 3, 10: 20, 11: 22, 12: 20,
            13: 24, 14: 20, 15: 26, 16: 20, 17: 28, 21: 27}},
        'ready': {0: {1: 1, 2: 2, 3: 3, 4: 39, 5: 28, 10: 5, 11: 8, 12: 10,
            13: 13, 14: 15, 15: 18, 16: 20, 17: 23, 21: 37}},
        'sregs': {0: {1: 4}},
        'mgs': {0: {}},
        'acct': {'n_instructions': 44, 'n_scalar_ops': 34, 'macs': 0,
            'mvm_rows': 0, 'mvm_result_bytes': 0, 'cim_load_bytes': 0,
            'vec_elements': 0, 'local_bytes_read': 0, 'local_bytes_written': 0,
            'global_bytes': 0, 'noc_pj_total': 0.0, 'static_pj_total': 60000.0,
            'extra_pj': {}},
        'local': 'de2f256064a0af79',
        'global': '30e14955ebf13522',
    },
    'copy': {
        'clock': {0: 138},
        'busy': {0: {'scalar': 20, 'vector': 0, 'cim': 0, 'mem': 136,
            'xfer': 0}},
        'regs': {0: {1: 1073741824, 3: 200, 4: 256, 5: 100, 6: 1073742336,
            7: -196919514, 8: -1254021337, 9: 5, 10: 12, 11: 1024, 12: 2048,
            13: 3072, 14: 1073742624, 15: -996724082}},
        'ready': {0: {1: 1, 2: 2, 3: 3, 4: 5, 5: 19, 6: 28, 7: 65, 8: 76,
            9: 84, 10: 82, 11: 86, 12: 92, 13: 99, 14: 106, 15: 139}},
        'sregs': {0: {1: 4, 7: 12, 13: 4}},
        'mgs': {0: {}},
        'acct': {'n_instructions': 40, 'n_scalar_ops': 20, 'macs': 0,
            'mvm_rows': 0, 'mvm_result_bytes': 0, 'cim_load_bytes': 0,
            'vec_elements': 0, 'local_bytes_read': 1100,
            'local_bytes_written': 1100, 'global_bytes': 648,
            'noc_pj_total': 730.4, 'static_pj_total': 207000.0,
            'extra_pj': {}},
        'local': '020eea8ff706bfd6',
        'global': '8c88a455b7007287',
    },
    'send_recv': {
        'clock': {0: 22, 3: 17},
        'busy': {0: {'scalar': 7, 'vector': 0, 'cim': 0, 'mem': 11, 'xfer': 9},
            3: {'scalar': 5, 'vector': 0, 'cim': 0, 'mem': 0, 'xfer': 6}},
        'regs': {0: {1: 1073741824, 3: 40, 4: 3, 5: 24, 6: 512}, 3: {1: 128,
            3: 40, 4: 256, 5: 24}},
        'ready': {0: {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 13}, 3: {1: 1, 2: 2,
            3: 3, 4: 14, 5: 15}},
        'sregs': {0: {1: 4}, 3: {0: 3, 1: 4}},
        'mgs': {0: {}, 3: {}},
        'acct': {'n_instructions': 23, 'n_scalar_ops': 12, 'macs': 0,
            'mvm_rows': 0, 'mvm_result_bytes': 0, 'cim_load_bytes': 0,
            'vec_elements': 0, 'local_bytes_read': 216,
            'local_bytes_written': 216, 'global_bytes': 40,
            'noc_pj_total': 237.60000000000002, 'static_pj_total': 33000.0,
            'extra_pj': {}},
        'local': '501c738542aa17b1',
        'global': '2e725d76f0bc1076',
    },
    'cim': {
        'clock': {0: 71},
        'busy': {0: {'scalar': 23, 'vector': 0, 'cim': 67, 'mem': 13,
            'xfer': 0}},
        'regs': {0: {1: 1073741824, 3: 144, 4: 1, 5: 128, 6: 1024, 7: 2048,
            8: 1073742336, 9: 1073742424, 10: 4, 11: 3, 12: 256}},
        'ready': {0: {1: 1, 2: 2, 3: 3, 4: 9, 5: 11, 6: 13, 7: 45, 8: 48,
            9: 50, 10: 38, 11: 55, 12: 56}},
        'sregs': {0: {1: 4, 2: 8, 3: 4}},
        'mgs': {0: {1: (8, 4, '344569a82ae0c2cb'), 3: (8, 4,
            '66687aadf862bd77')}},
        'acct': {'n_instructions': 36, 'n_scalar_ops': 23, 'macs': 352,
            'mvm_rows': 56, 'mvm_result_bytes': 112, 'cim_load_bytes': 160,
            'vec_elements': 0, 'local_bytes_read': 360,
            'local_bytes_written': 256, 'global_bytes': 144,
            'noc_pj_total': 158.4, 'static_pj_total': 106500.0,
            'extra_pj': {}},
        'local': 'ba81a21fb2b32b17',
        'global': 'adec97638bf1977d',
    },
    'vector': {
        'clock': {0: 71},
        'busy': {0: {'scalar': 45, 'vector': 57, 'cim': 0, 'mem': 14,
            'xfer': 0}},
        'regs': {0: {1: 1073741824, 3: 256, 4: 64, 5: 24, 6: 800, 7: 1024,
            8: 1100, 9: 1300, 10: 8, 11: 1500, 12: 1600, 13: 1073742336}},
        'ready': {0: {1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 6: 35, 7: 40, 8: 43, 9: 46,
            10: 58, 11: 56, 12: 61, 13: 64}},
        'sregs': {0: {1: 4, 4: 3, 5: 4, 6: 200, 12: 8}},
        'mgs': {0: {}},
        'acct': {'n_instructions': 69, 'n_scalar_ops': 45, 'macs': 0,
            'mvm_rows': 0, 'mvm_result_bytes': 0, 'cim_load_bytes': 0,
            'vec_elements': 432, 'local_bytes_read': 1432,
            'local_bytes_written': 976, 'global_bytes': 256,
            'noc_pj_total': 281.6, 'static_pj_total': 106500.0,
            'extra_pj': {}},
        'local': 'f9c41c53221c9d98',
        'global': 'aec0cdd863a09b12',
    },
    'batched': {
        'clock': {0: 1759},
        'busy': {0: {'scalar': 670, 'vector': 579, 'cim': 605, 'mem': 321,
            'xfer': 0}},
        'regs': {0: {1: 16, 2: 192, 3: 704, 4: 8384, 5: 11440, 6: 13056,
            7: 14016, 8: 14336, 9: 768, 10: 8, 11: 3520, 12: 24, 13: 4096,
            14: 32, 15: 4224, 16: 53, 17: 3, 19: 1, 20: 55, 21: 54, 22: 424,
            23: 6, 24: 1, 25: 1179648, 26: 3893, 27: 528, 28: 352, 29: 352,
            30: 12, 31: 12}},
        'ready': {0: {1: 1110, 2: 1754, 3: 1755, 4: 1756, 5: 1748, 6: 1757,
            7: 1745, 8: 1119, 9: 1121, 10: 1108, 11: 491, 12: 26, 13: 485,
            14: 29, 15: 31, 16: 32, 17: 33, 18: 470, 19: 471, 20: 472,
            21: 473, 22: 474, 23: 475, 24: 476, 25: 477, 26: 478, 27: 479,
            28: 480, 29: 482, 30: 1758, 31: 35}},
        'sregs': {0: {1: 4, 2: 16, 3: 8, 4: 3, 5: 4, 6: 200, 7: 8, 9: 352,
            12: 8, 13: 4}},
        'mgs': {0: {0: (16, 8, '464117715909febb'), 1: (16, 8,
            'f9113d3d016a50a4')}},
        'acct': {'n_instructions': 1001, 'n_scalar_ops': 670, 'macs': 6144,
            'mvm_rows': 768, 'mvm_result_bytes': 1536, 'cim_load_bytes': 1664,
            'vec_elements': 3088, 'local_bytes_read': 12336,
            'local_bytes_written': 8816, 'global_bytes': 1312,
            'noc_pj_total': 1443.2000000000012, 'static_pj_total': 2638500.0,
            'extra_pj': {}},
        'local': 'c1129bd436cb488b',
        'global': 'ad6232f30ad5ecd0',
    },
}


#: The ``batched`` family's three loops replay in closed form on the
#: block engine: three warm-up iterations each, the other 27 batched.
_BATCHED_STATS = {"batch_successes": 3, "loop_iterations_batched": 27}


class TestOpcodePins:
    """Literal numbers per opcode family.

    The interpreter and the block engine agree with each other by
    construction once both render one definition per opcode, so their
    agreement says nothing about the semantics themselves.  These pins
    do: a change to any opcode's timing, energy, register or memory
    effect moves a number here, on the interpreter and the block engine
    alike.  The ``batched`` family's loops run long enough to be
    replayed in closed form, so its pin holds batched replay to the same
    numbers; ``warm`` holds a second run in one block cache, whose loop
    entries reuse the first run's plans, to them as well.
    """

    @pytest.mark.parametrize("engine", ("interp", "block", "warm"))
    @pytest.mark.parametrize("family", _PIN_PROGRAMS)
    def test_family_matches_its_pin(self, family, engine):
        state, stats = _run_pinned(family, engine)
        assert state == _OPCODE_PINS[family]
        if family == "batched" and engine != "interp":
            assert {k: stats[k] for k in _BATCHED_STATS} == _BATCHED_STATS


def _emit_faulting(b, emit, engine):
    """Emit the faulting instruction(s) ``emit`` straight-line, or under
    ``engine == "loop"`` as the body of a counted loop (registers 20 and
    21), which the block engine runs in compiled code."""
    if engine == "loop":
        b.li(20, 0)
        b.li(21, 4)
        with b.loop(20, 21):
            emit()
    else:
        emit()


def _run_faulting(program, engine, match):
    """Run ``program`` on ``engine`` (``loop`` is the block engine) from
    an empty block cache: it raises ``match``, from inside a compiled
    loop exactly when ``engine == "loop"``; return the simulator."""
    from repro.sim import blockengine as be

    be._BP_CACHE.clear()
    be.reset_stats()
    sim = ChipSimulator(
        small_test_arch(), {0: program},
        engine="interp" if engine == "interp" else "block",
    )
    try:
        with pytest.raises(SimulationError, match=match):
            sim.run()
        stats = dict(be.ENGINE_STATS)
    finally:
        be._BP_CACHE.clear()
    assert (stats["loop_entries"] > 0) == (engine == "loop")
    return sim


class TestNegativeLength:
    """A length register below zero is a typed error on every engine
    path; zero stays legal (the pins above run zero-length ops)."""

    OPERANDS = {
        "MEM_CPY": dict(rs=1, rt=1, rd=3),
        "SEND": dict(rs=1, rt=2, rd=3),
        "VEC_ADD": dict(rs=1, rt=1, rd=1, re=3),
        "VEC_FILL": dict(rd=1, re=3, funct=4),
    }

    @pytest.mark.parametrize("engine", ("interp", "block", "loop"))
    @pytest.mark.parametrize("mnemonic", OPERANDS)
    def test_negative_length_raises(self, mnemonic, engine):
        b = ProgramBuilder()
        b.emit("SC_ADDI", rs=0, rt=1, imm=64)
        b.emit("SC_ADDI", rs=0, rt=2, imm=1)
        b.emit("SC_ADDI", rs=0, rt=3, imm=-10)
        _emit_faulting(
            b, lambda: b.emit(mnemonic, **self.OPERANDS[mnemonic]), engine)
        b.halt()
        sim = _run_faulting(
            b.finalize(), engine,
            f"^core 0: {mnemonic} length -10 is negative$",
        )
        assert sim.acct.local_bytes_read == sim.acct.vec_elements == 0


class TestSRegIndex:
    """An S_Reg index outside the file is a typed error on every engine
    path, moving into the file and out of it alike (a negative
    ``MV_S2G`` index once read the file from its end)."""

    @pytest.mark.parametrize("engine", ("interp", "block", "loop"))
    @pytest.mark.parametrize("index", (-1, 16))
    @pytest.mark.parametrize("mnemonic", ("MV_G2S", "MV_S2G"))
    def test_bad_index_raises(self, mnemonic, index, engine):
        b = ProgramBuilder()
        b.emit("SC_ADDI", rs=0, rt=1, imm=5)
        _emit_faulting(
            b, lambda: b.emit(mnemonic, rs=1, rt=2, imm=index), engine)
        b.halt()
        sim = _run_faulting(
            b.finalize(), engine, f"^core 0: bad S_Reg index {index}$")
        assert sim.cores[0].regs[2] == 0


class TestCimCfgShape:
    """``CIM_CFG`` narrows a loaded register, never widens or empties it:
    a shape outside ``0 < rows <= loaded rows, 0 < cols <= loaded cols``
    is a typed error on every engine path (it once surfaced as an untyped
    matmul / broadcast error, or ran with a bogus or zero MAC count)."""

    #: requested (rows, cols) -> the shape the S_Regs hold (``li`` of
    #: -1 leaves the 32-bit pattern).
    SHAPES = {(32, 4): "32x4", (8, 16): "8x16", (8, -1): "8x4294967295",
              (0, 4): "0x4"}

    @pytest.mark.parametrize("engine", ("interp", "block", "loop"))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_shape_outside_the_register_raises(self, shape, engine):
        rows, cols = 16, 8
        b = ProgramBuilder()
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, rows * cols + rows)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.set_sreg(SReg.MVM_ROWS, 10, rows)
        b.set_sreg(SReg.MVM_COLS, 10, cols)
        b.li(4, 1)
        b.emit("CIM_LOAD", rs=2, rt=4)
        b.set_sreg(SReg.MVM_ROWS, 10, shape[0])
        b.set_sreg(SReg.MVM_COLS, 10, shape[1])
        b.li(5, rows * cols)
        b.li(6, 1024)

        def configure_and_multiply():
            b.emit("CIM_CFG", rt=4)
            b.emit("CIM_MVM", rs=5, rt=4, re=6, flags=0)

        _emit_faulting(b, configure_and_multiply, engine)
        b.halt()
        sim = _run_faulting(
            b.finalize(), engine,
            f"^core 0: CIM_CFG {self.SHAPES[shape]} on MG 1 "
            f"outside its loaded {rows}x{cols}$",
        )
        assert sim.acct.macs == 0
        assert sim.cores[0].mgs[1][1:] == (rows, cols)
