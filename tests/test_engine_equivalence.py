"""Engine equivalence: the hot-block engine vs the legacy interpreter.

The hot-block execution engine (:mod:`repro.sim.blockengine`) promises
**bit-identical** results to the per-instruction interpreter: the same
``SimulationReport`` (cycles, energy breakdown, utilization, NoC
counters, instruction counts) and the same functional outputs / memory
contents for every workload.  These tests enforce that contract on every
tier-1 workload class plus the scheduler/engine edge cases (deadlock
reporting, mis-sized RECV, barrier release ordering, runaway detection,
extension instructions, batched-loop replay).

The engine is tiered: a straight-line block is interpreted until it has
run ``blockengine._HOT_RUNS`` times and compiled after that.  The model,
fuzz, NoC-contention and hand-written classes therefore run under both
forced tiers (the ``tier`` fixture; each class has a ``...HotTier``
subclass), so the compiled straight-line code stays under the oracle
even though no single short test would heat it.
"""

import dataclasses
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
def tier(request):
    """Force the straight-line tier named by the test class's ``TIER``,
    the way ``_run_block_stepped`` forces ``_MIN_BATCH``: ``_HOT_RUNS =
    0`` compiles every block on its first execution (the pre-tiering
    behaviour), the default interprets it.  Block programs are
    content-cached together with their heat and compiled functions, so
    each test starts from an empty cache; the teardown asserts that the
    intended tier actually ran.
    """
    from repro.sim import blockengine as be

    hot = request.cls.TIER == "hot"
    old = be._HOT_RUNS
    if hot:
        be._HOT_RUNS = 0
    be._BP_CACHE.clear()
    be.reset_stats()
    try:
        yield
        stats = dict(be.ENGINE_STATS)
    finally:
        be._HOT_RUNS = old
        be._BP_CACHE.clear()
    if hot:
        assert stats["block_promotions"] > 0
        assert stats["cold_block_instructions"] == 0
    else:
        assert stats["cold_block_instructions"] > 0


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


def _run_both(programs, arch=None, image=None, registry=None, handlers=None):
    """Run a hand-written program set on both engines; return the sims."""
    sims = {}
    for engine in ("interp", "block"):
        sim = ChipSimulator(
            arch or small_test_arch(),
            programs,
            registry=registry,
            global_image=None if image is None else image.copy(),
            extension_handlers=handlers,
            engine=engine,
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
    assert np.array_equal(interp.memory.global_mem, block.memory.global_mem)


@pytest.mark.usefixtures("tier")
class TestModelEquivalence:
    TIER = "cold"

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


@pytest.mark.usefixtures("tier")
class TestDifferentialFuzz:
    """Seeded differential fuzzing: random graphs/configs, both engines.

    Each seed deterministically generates a small random CNN plus a
    random-but-valid architecture/strategy combination, then demands the
    hot-block engine and the legacy interpreter produce bit-identical
    reports and outputs.  This sweeps compiler/engine interactions the
    hand-picked models miss (odd channel mixes, kernel-1 convolutions,
    pool/residual placements) while staying fully reproducible.
    """

    TIER = "cold"

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


@pytest.mark.usefixtures("tier")
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

    TIER = "cold"

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
    assert not np.shares_memory(register, sim.memory.global_mem)
    assert register.base is None or register.base.nbytes == rows * cols


@pytest.mark.usefixtures("tier")
class TestHandWrittenPrograms:
    TIER = "cold"

    def test_register_survives_overwritten_staging(self):
        """``CIM_LOAD`` -> clobber the staged scratchpad bytes ->
        ``CIM_MVM``: the product uses the loaded values on the
        interpreter, on a cold block and (``...HotTier``) in generated
        code, whose ``CIM_LOAD`` source ``lm[a:a + n]`` is a view.  The
        naive narrowing -- drop the widening cast, add no copy -- fails
        ``TestModelEquivalenceHotTier::test_tiny_models_bit_identical
        [generic-tiny_mlp]`` (10/10 outputs wrong) for that reason."""
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


class TestModelEquivalenceHotTier(TestModelEquivalence):
    TIER = "hot"


class TestDifferentialFuzzHotTier(TestDifferentialFuzz):
    TIER = "hot"


class TestNoCContentionFuzzHotTier(TestNoCContentionFuzz):
    TIER = "hot"


class TestHandWrittenProgramsHotTier(TestHandWrittenPrograms):
    TIER = "hot"


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


class TestTieredEngine:
    """Heat, promotion and what a cold run is allowed to pay for."""

    def test_deployment_promotes_and_stays_bit_identical(self):
        """One deployment serving ``_HOT_RUNS + 3`` inputs: interpreted
        for the first ``_HOT_RUNS``, compiled on the next (the heat lives
        in the content-addressed block cache, not in the simulator that
        is rebuilt per input), and identical to the interpreter on every
        input either side of the promotion."""
        from repro.serve import Deployment
        from repro.sim import blockengine as be

        be._BP_CACHE.clear()
        served = Deployment(
            "tiny_resnet", _deep_macro_arch(), engine="block",
            input_size=8, num_classes=10,
        )
        reference = Deployment(served.compiled, engine="interp")
        cold, promoted = [], []
        for seed in range(be._HOT_RUNS + 3):
            be.reset_stats()
            a = served.submit(batch=1, seed=seed)
            cold.append(be.ENGINE_STATS["cold_block_instructions"])
            promoted.append(be.ENGINE_STATS["block_promotions"])
            b = reference.submit(batch=1, seed=seed)
            assert a.validated and b.validated
            assert a.to_dict() == b.to_dict(), f"input {seed} diverged"
            for got, want in zip(a.per_input_outputs, b.per_input_outputs):
                for name in want:
                    assert np.array_equal(got[name], want[name])
        hot = be._HOT_RUNS
        assert all(count > 0 for count in cold[:hot])
        assert promoted[:hot] == [0] * hot
        # the promotion input compiles every block it meets...
        assert promoted[hot] > 0 and cold[hot] == 0
        # ...and the session stays compiled afterwards.
        assert cold[hot + 1:] == [0, 0] and promoted[hot + 1:] == [0, 0]

    def test_cold_run_compiles_loop_shapes_only(self, table1_arch, monkeypatch):
        """The count guard: a process-cold resnet18@64 run pays
        ``compile()`` for its loop shapes alone (117 shapes before the
        engine was tiered, 13 loops)."""
        import builtins

        from repro.sim import blockengine as be

        compiled = compile_model(
            "resnet18", table1_arch, "dp", input_size=64, num_classes=100
        )
        calls = {"compile": 0}
        real_compile = builtins.compile

        def counting_compile(source, filename, *args, **kwargs):
            calls["compile"] += filename == "<blockengine>"
            return real_compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", counting_compile)
        be._BP_CACHE.clear()
        be._SHAPE_CACHE.clear()
        be.reset_stats()
        ChipSimulator.from_compiled(compiled, engine="block").run()
        assert 0 < calls["compile"] <= 13
        assert be.ENGINE_STATS["block_promotions"] == 0
        assert be.ENGINE_STATS["cold_block_instructions"] > 0


class TestPlanTemplates:
    """Plan-template caching: the affine walk + hazard analysis runs
    once per loop-block instance; re-entries instantiate the cached
    template.  Results must stay bit-identical (the fuzzer and every
    equivalence test above run with templates active)."""

    def test_nested_loop_reuses_template_across_entries(self):
        """An inner counted loop re-entered by an outer loop with
        translated base pointers: one template build, many hits."""
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
        assert stats["batch_successes"] >= outer
        # one symbolic walk serves every translated re-entry
        assert stats["template_builds"] == 1
        assert stats["template_hits"] >= outer
        assert stats["template_misfits"] == 0

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
            # every successful batch went through a template...
            assert first["template_hits"] == first["batch_successes"]
            # ...and re-simulation reuses the cached templates instead
            # of re-walking (content-addressed across simulator runs).
            assert second["template_builds"] == first["template_builds"]
            assert second["template_hits"] > first["template_hits"]
        interp = Deployment(compiled, engine="interp").run()
        assert _report_fields(a.report) == _report_fields(interp.report)
        for name in compiled.graph.outputs:
            assert np.array_equal(a.outputs[name], interp.outputs[name])
