"""Direct simulator tests: hand-written programs through ChipSimulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_arch
from repro.config.arch import GLOBAL_BASE
from repro.errors import SimulationError
from repro.isa import (
    Category,
    Format,
    InstructionDescriptor,
    ISARegistry,
    Opcode,
    ProgramBuilder,
    SReg,
)
from repro.sim import ChipSimulator


def _run(programs, arch=None, image=None, registry=None, handlers=None):
    sim = ChipSimulator(
        arch or small_test_arch(),
        programs,
        registry=registry,
        global_image=image,
        extension_handlers=handlers,
    )
    report = sim.run()
    return sim, report


def _builder(registry=None):
    return ProgramBuilder(registry)


class TestScalarAndControl:
    def test_arithmetic_loop(self):
        b = _builder()
        b.li(1, 0)
        b.li(2, 5)
        b.li(3, 0)
        with b.loop(1, 2):
            b.emit("SC_ADDI", rs=3, rt=3, imm=2)
        # store result to global so we can observe it
        b.li(4, GLOBAL_BASE)
        b.emit("MEM_ST", rs=4, rt=3, offset=0)
        b.halt()
        sim, report = _run({0: b.finalize()})
        assert sim.memory.read_word(0, GLOBAL_BASE) == 10
        assert report.cycles > 0

    def test_r0_is_hardwired_zero(self):
        b = _builder()
        b.emit("SC_ADDI", rs=0, rt=0, imm=9)  # write to R0 ignored
        b.li(1, GLOBAL_BASE)
        b.emit("MEM_ST", rs=1, rt=0, offset=0)
        b.halt()
        sim, _ = _run({0: b.finalize()})
        assert sim.memory.read_word(0, GLOBAL_BASE) == 0

    def test_special_register_moves(self):
        b = _builder()
        b.emit("MV_S2G", rt=5, imm=int(SReg.CORE_ID))
        b.li(1, GLOBAL_BASE)
        b.emit("MEM_ST", rs=1, rt=5, offset=0)
        b.halt()
        programs = {2: b.finalize()}
        sim, _ = _run(programs)
        assert sim.memory.read_word(0, GLOBAL_BASE) == 2

    def test_runaway_detection(self):
        b = _builder()
        b.program.label("spin")
        b.emit("JMP", target="spin")
        b.halt()
        with pytest.raises(SimulationError):
            ChipSimulator(small_test_arch(), {0: b.finalize()}).cores[0].run(
                max_instructions=1000
            )


class TestIdleCores:
    """A core without a program runs the one finalized HALT program of
    its registry -- shared across cores, chips and ``reset_run``s."""

    @pytest.mark.parametrize("engine", ["block", "interp"])
    def test_idle_cores_share_one_halt_program(self, engine):
        b = _builder()
        b.li(1, 0)
        b.li(2, 5)
        b.li(3, 0)
        with b.loop(1, 2):
            b.emit("SC_ADDI", rs=3, rt=3, imm=2)
        b.li(4, GLOBAL_BASE)
        b.emit("MEM_ST", rs=4, rt=3, offset=0)
        b.halt()
        programs = {2: b.finalize()}
        sim = ChipSimulator(small_test_arch(), programs, engine=engine)
        idle = sim.cores[0].program
        assert [c.program is idle for c in sim.cores].count(False) == 1
        first = sim.run()
        for _ in range(2):
            sim.reset_run(programs)
            assert all(
                core.program is idle for core in sim.cores if core.core_id != 2
            )
            assert sim.run() == first
        other = ChipSimulator(small_test_arch(), programs, engine=engine)
        assert other.cores[0].program is idle
        assert other.run() == first


class TestMemoryOps:
    def test_copy_between_local_and_global(self):
        image = np.arange(64, dtype=np.uint8)
        b = _builder()
        b.li(1, GLOBAL_BASE)      # src
        b.li(2, 128)              # local dst
        b.li(3, 64)               # length
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(4, GLOBAL_BASE + 256)
        b.emit("MEM_CPY", rs=2, rt=4, rd=3)
        b.halt()
        sim, _ = _run({0: b.finalize()}, image=np.concatenate(
            [image, np.zeros(512, np.uint8)]
        ))
        out = sim.memory.read_global(GLOBAL_BASE + 256, 64)
        assert np.array_equal(out.view(np.uint8), image)

    def test_gather_strided(self):
        b = _builder()
        # local[0:32] = pattern via global preload
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 32)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.set_sreg(SReg.CHUNK, 10, 2)
        b.set_sreg(SReg.STRIDE, 10, 8)
        b.emit("MV_G2S", rs=0, imm=0)  # no-op keeps builder simple
        b.li(4, 0)     # src
        b.li(5, 64)    # dst
        b.li(6, 4)     # count: 4 chunks of 2 bytes, stride 8
        b.emit("MEM_GATHER", rs=4, rt=5, rd=6)
        b.li(7, GLOBAL_BASE + 100)
        b.li(8, 8)
        b.emit("MEM_CPY", rs=5, rt=7, rd=8)
        b.halt()
        image = np.arange(32, dtype=np.uint8)
        sim, _ = _run({0: b.finalize()}, image=np.concatenate(
            [image, np.zeros(256, np.uint8)]
        ))
        out = sim.memory.read_global(GLOBAL_BASE + 100, 8).view(np.uint8)
        assert list(out) == [0, 1, 8, 9, 16, 17, 24, 25]

    @pytest.mark.parametrize(
        "access,match",
        [
            pytest.param(
                lambda m: m.read_global(GLOBAL_BASE - 8, 8),
                r"host access \[-8, 0\) outside global memory \[0, 1024\)",
                id="read-below",
            ),
            pytest.param(
                lambda m: m.read_global(GLOBAL_BASE + 1000, 100),
                r"host access \[1000, 1100\) outside global memory",
                id="read-past-end",
            ),
            pytest.param(
                lambda m: m.write_global(GLOBAL_BASE - 8, np.zeros(8)),
                r"host access \[-8, 0\) outside global memory",
                id="write-below",
            ),
            pytest.param(
                lambda m: m.write_global(GLOBAL_BASE + (1 << 33), np.zeros(8)),
                r"outside global memory \[0, 1024\)",
                id="write-far-past-end",
            ),
            pytest.param(
                lambda m: m.write_global(GLOBAL_BASE + 600, np.ones(8)),
                r"host access \[600, 608\) writes the read-only parameter "
                r"segment \[512, 1024\)",
                id="write-parameters",
            ),
            pytest.param(
                lambda m: m.read_global(GLOBAL_BASE + 500, 24),
                r"straddles the activation window \[0, 512\)",
                id="read-straddling",
            ),
        ],
    )
    def test_host_accessors_fail_typed(self, access, match):
        """Host reads and writes outside their segment raise a
        :class:`SimulationError` naming the window -- never wrap around,
        truncate, grow the window or corrupt the parameters."""
        image = np.arange(1024, dtype=np.int64).astype(np.uint8)
        sim = ChipSimulator(
            small_test_arch(), {}, global_image=image, activation_bytes=512
        )
        with pytest.raises(SimulationError, match=match):
            access(sim.memory)
        assert sim.memory.global_size == 1024
        assert np.array_equal(
            sim.memory.read_global(GLOBAL_BASE + 512, 512).view(np.uint8),
            image[512:],
        )

    def test_cross_core_isolation(self):
        # cores have separate local memories
        b0 = _builder()
        b0.li(1, 0)
        b0.li(2, 7)
        b0.emit("MEM_ST", rs=1, rt=2, offset=0)
        b0.halt()
        sim, _ = _run({0: b0.finalize()})
        assert sim.memory.read_word(1, 0) == 0


class TestVectorOps:
    def _vec_program(self, mnemonic, a, bvals=None, sregs=()):
        b = _builder()
        n = len(a)
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, n)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)  # a -> local 0
        if bvals is not None:
            b.li(1, GLOBAL_BASE + n)
            b.li(2, 64)
            b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        for sreg, value in sregs:
            b.set_sreg(sreg, 10, value)
        b.li(4, 0)
        b.li(5, 64)
        b.li(6, 128)
        b.li(7, n)
        fields = dict(rs=4, rd=6, re=7)
        if bvals is not None:
            fields["rt"] = 5
        b.emit(mnemonic, **fields)
        b.li(1, GLOBAL_BASE + 128)
        b.li(8, n)
        b.emit("MEM_CPY", rs=6, rt=1, rd=8)
        b.halt()
        data = np.zeros(512, np.int8)
        data[:n] = a
        if bvals is not None:
            data[n:2 * n] = bvals
        sim, _ = _run({0: b.finalize()}, image=data.view(np.uint8))
        return sim.memory.read_global(GLOBAL_BASE + 128, n)

    def test_vec_add_saturates(self):
        a = np.array([100, -100, 3], dtype=np.int8)
        out = self._vec_program("VEC_ADD", a, a)
        assert list(out) == [127, -128, 6]

    def test_vec_relu(self):
        a = np.array([-5, 0, 9], dtype=np.int8)
        assert list(self._vec_program("VEC_RELU", a)) == [0, 0, 9]

    def test_vec_max(self):
        a = np.array([1, -2, 3], dtype=np.int8)
        b = np.array([0, 5, 3], dtype=np.int8)
        assert list(self._vec_program("VEC_MAX", a, b)) == [1, 5, 3]

    def test_vec_sigmoid_lut(self):
        from repro.graph.quantize import SIGMOID_LUT, apply_lut

        a = np.array([-64, 0, 64], dtype=np.int8)
        out = self._vec_program("VEC_SIGMOID", a)
        assert np.array_equal(out, apply_lut(a, SIGMOID_LUT))


class TestCIMUnit:
    def test_mvm_matches_numpy(self):
        rng = np.random.default_rng(3)
        rows, cols = 16, 8
        weights = rng.integers(-64, 64, (rows, cols), dtype=np.int8)
        vec = rng.integers(-100, 100, rows, dtype=np.int8)

        b = _builder()
        # stage weights global -> local 0, vector -> local 256
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, rows * cols)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(1, GLOBAL_BASE + rows * cols)
        b.li(2, 256)
        b.li(3, rows)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.set_sreg(SReg.MVM_ROWS, 10, rows)
        b.set_sreg(SReg.MVM_COLS, 10, cols)
        b.li(4, 0)
        b.li(5, 0)  # macro group 0
        b.emit("CIM_LOAD", rs=4, rt=5)
        # clobber the staged bytes: the register owns its copy
        b.set_sreg(SReg.FILL_VALUE, 10, 7)
        b.li(3, rows * cols)
        b.emit("VEC_FILL", rd=4, re=3)
        b.li(6, 256)
        b.li(7, 512)
        b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
        b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=1)  # accumulate once more
        b.li(1, GLOBAL_BASE + 300)
        b.li(8, 4 * cols)
        b.emit("MEM_CPY", rs=7, rt=1, rd=8)
        b.halt()

        image = np.zeros(1024, np.int8)
        image[: rows * cols] = weights.reshape(-1)
        image[rows * cols: rows * cols + rows] = vec
        sim, report = _run({0: b.finalize()}, image=image.view(np.uint8))
        out = sim.memory.read_global(GLOBAL_BASE + 300, 4 * cols).view(np.int32)
        expected = 2 * (vec.astype(np.int32) @ weights.astype(np.int32))
        assert np.array_equal(out, expected)
        assert report.macs == 2 * rows * cols
        # one owned byte per weight (test_engine_equivalence holds every
        # engine path to this; the naive narrowing fails there)
        register = sim.cores[0].mgs[0][0]
        assert register.dtype == np.int8 and register.nbytes == rows * cols
        assert np.array_equal(register, weights)
        assert not np.shares_memory(register, sim.memory.locals[0])
        assert not np.shares_memory(register, sim.memory.activations)
        assert not np.shares_memory(register, sim.memory.parameters)

    def test_mvm_on_unloaded_mg_fails(self):
        b = _builder()
        b.li(1, 0)
        b.li(2, 1)
        b.li(3, 64)
        b.emit("CIM_MVM", rs=1, rt=2, re=3)
        b.halt()
        with pytest.raises(SimulationError):
            _run({0: b.finalize()})


class TestCommunication:
    def test_send_recv_pair(self):
        payload = np.arange(16, dtype=np.uint8)
        sender = _builder()
        sender.li(1, GLOBAL_BASE)
        sender.li(2, 0)
        sender.li(3, 16)
        sender.emit("MEM_CPY", rs=1, rt=2, rd=3)
        sender.li(4, 1)  # destination core
        sender.emit("SEND", rs=2, rt=4, rd=3)
        sender.emit("BARRIER")
        sender.halt()

        receiver = _builder()
        receiver.li(1, 64)
        receiver.li(2, 0)  # source core
        receiver.li(3, 16)
        receiver.emit("RECV", rs=1, rt=2, rd=3)
        receiver.li(4, GLOBAL_BASE + 128)
        receiver.emit("MEM_CPY", rs=1, rt=4, rd=3)
        receiver.emit("BARRIER")
        receiver.halt()

        sim, report = _run(
            {0: sender.finalize(), 1: receiver.finalize()},
            image=np.concatenate([payload, np.zeros(256, np.uint8)]),
        )
        out = sim.memory.read_global(GLOBAL_BASE + 128, 16).view(np.uint8)
        assert np.array_equal(out, payload)
        assert report.noc_bytes >= 16

    def test_recv_length_mismatch_detected(self):
        sender = _builder()
        sender.li(1, 0)
        sender.li(2, 1)
        sender.li(3, 8)
        sender.emit("SEND", rs=1, rt=2, rd=3)
        sender.halt()
        receiver = _builder()
        receiver.li(1, 0)
        receiver.li(2, 0)
        receiver.li(3, 4)  # expects 4, message has 8
        receiver.emit("RECV", rs=1, rt=2, rd=3)
        receiver.halt()
        with pytest.raises(SimulationError):
            _run({0: sender.finalize(), 1: receiver.finalize()})

    def test_barrier_synchronises_clocks(self):
        fast = _builder()
        fast.emit("BARRIER")
        fast.halt()
        slow = _builder()
        for _ in range(50):
            slow.emit("NOP")
        slow.emit("BARRIER")
        slow.halt()
        sim, _ = _run({0: fast.finalize(), 1: slow.finalize()})
        assert abs(sim.cores[0].clock - sim.cores[1].clock) <= 2

    def test_deadlock_reported(self):
        lonely = _builder()
        lonely.li(1, 0)
        lonely.li(2, 1)
        lonely.li(3, 4)
        lonely.emit("RECV", rs=1, rt=2, rd=3)  # nobody ever sends
        lonely.halt()
        with pytest.raises(SimulationError, match="deadlock"):
            _run({0: lonely.finalize()})


class TestExtensionInstructions:
    def test_custom_instruction_simulates(self):
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

        b = _builder(registry)
        b.li(1, GLOBAL_BASE)
        b.li(2, 0)
        b.li(3, 4)
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.li(4, 64)
        b.emit("VEC_NEG", rs=2, rd=4, re=3)
        b.li(5, GLOBAL_BASE + 64)
        b.emit("MEM_CPY", rs=4, rt=5, rd=3)
        b.halt()
        image = np.array([1, 2, 3, 4], dtype=np.int8)
        sim, _ = _run(
            {0: b.finalize()},
            image=np.concatenate([image, np.zeros(128, np.int8)]).view(np.uint8),
            registry=registry,
            handlers={"VEC_NEG": neg_handler},
        )
        out = sim.memory.read_global(GLOBAL_BASE + 64, 4)
        assert list(out) == [-1, -2, -3, -4]


#: Every directed link of the small arch's 2 x 2 mesh.
_MESH_LINKS = [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 1), (1, 1, 1, 0),
               (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 1, 1), (1, 1, 0, 1)]


def _noc_state(noc):
    return (dict(noc._link_free), noc.total_bytes, noc.total_byte_hops,
            noc.busy_cycles)


class TestNoCReplay:
    """``NoC.replay_affine`` commits ``count`` iterations of a window in
    closed form.  It must leave exactly the state ``count`` stepped
    rounds of ``transfer`` leave, or refuse and leave the state as it
    found it."""

    _node = st.sampled_from([-1, 0, 1, 2, 3])   # -1: the global port
    _message = st.tuples(_node, _node, st.integers(0, 96),
                         st.integers(0, 12))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 400), min_size=8, max_size=8),
           st.lists(_message, min_size=1, max_size=3),
           st.integers(0, 300), st.integers(1, 60), st.integers(1, 40))
    def test_replay_is_stepped_transfer(self, frees, messages, start, step,
                                        count):
        from repro.sim.noc import NoC

        txns = []
        for src, dst, nbytes, gap in messages:
            start += gap
            txns.append((src, dst, nbytes, start))
        replayed, stepped = NoC(small_test_arch()), NoC(small_test_arch())
        for noc in (replayed, stepped):
            noc._link_free = dict(zip(_MESH_LINKS, frees))
        before = _noc_state(replayed)
        if not replayed.replay_affine(txns, step, count):
            assert _noc_state(replayed) == before
            return
        for k in range(1, count + 1):
            for src, dst, nbytes, t in txns:
                stepped.transfer(src, dst, nbytes, t + k * step)
        assert _noc_state(replayed) == _noc_state(stepped)
