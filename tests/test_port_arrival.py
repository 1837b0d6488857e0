"""A global copy's NoC arrival, which no core waits on yet.

Every copy with a global end reserves the links of its route through
``blockengine.issue_copy``, which returns the cycle its message arrives.
Nothing waits on that cycle yet (ROADMAP item 1(b)): a core pays only
the copy's mem-unit cost while its links stay reserved behind it.  Each
test here pins one consequence on the Table I arch and is a strict xfail
until a copy finishes when its message arrives.
"""

import numpy as np
import pytest

from repro.config.arch import GLOBAL_BASE
from repro.isa import ProgramBuilder
from repro.sim.chip import ChipSimulator
from repro.sim.functional import random_input
from repro.sim.multichip import MultiChipSimulator
from repro.utils import ceil_div

_WAITS_FOR_THE_PORT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a copy does not wait for its NoC arrival (ROADMAP item 1(b))",
)

#: The weight bytes core 2 loads, in four copies, from the parameter
#: segment: ceil(N / flit) = 8192 cycles on the first link out of the
#: port at (0, 0).
N = 64 * 1024
#: Activation window of the hand-built image; the parameters follow it.
A = 1024
#: A barrier releases one cycle after its last core arrives.
BARRIER = 1


def _loader(b: ProgramBuilder, trailing: bool = True):
    """Copy N parameter bytes into the scratchpad in four MEM_CPYs, then
    (``trailing``) one local byte, which waits on the mem unit."""
    b.li(1, GLOBAL_BASE + A)
    b.li(2, 0)
    b.li(3, N // 4)
    for _ in range(4):
        b.emit("MEM_CPY", rs=1, rt=2, rd=3)
        b.emit("SC_ADDIW", rs=1, rt=1, offset=N // 4)
        b.emit("SC_ADDIW", rs=2, rt=2, offset=N // 4)
    if trailing:
        b.li(4, 1)
        b.li(5, N + 64)
        b.emit("MEM_CPY", rs=0, rt=5, rd=4)


def _run(table1_arch, programs):
    sim = ChipSimulator(
        table1_arch, {core: b.finalize() for core, b in programs.items()},
        global_image=np.zeros(A + N, np.uint8), activation_bytes=A,
    )
    return sim, sim.run()


def _halted(b: ProgramBuilder) -> ProgramBuilder:
    b.halt()
    return b


@_WAITS_FOR_THE_PORT
def test_a_loader_finishes_when_its_weights_arrive(table1_arch):
    """The makespan covers the serialisation of the weights on the port's
    first link (without the wait: 2058, with the link reserved to 8198)."""
    b = ProgramBuilder()
    _loader(b)
    sim, report = _run(table1_arch, {2: _halted(b)})
    assert report.cycles >= ceil_div(N, sim.noc.flit_bytes)


@_WAITS_FOR_THE_PORT
def test_the_resident_split_conserves_cycles(resnet18_32):
    """A cold input costs at least its load phase and its warm replay
    and at most both plus the barrier between them (without the wait:
    cold 1 276 470, load 13 846, warm 23 849)."""
    x = random_input(resnet18_32.graph, seed=0)
    cold = MultiChipSimulator(resnet18_32).execute_stream([x])[0][0][0].cycles
    sim = MultiChipSimulator(resnet18_32)
    load = sim.load_resident()[0].cycles
    warm = sim.execute_warm_stream([x])[0][0][0].cycles
    assert max(load, warm) <= cold <= load + warm + BARRIER


@_WAITS_FOR_THE_PORT
def test_a_message_after_a_barrier_misses_the_weight_backlog(table1_arch):
    """Core 2 loads, then all three cores meet at a barrier; after it
    core 1 sends 64 B to core 3 over link (0,1) -> (0,2), which core 2's
    weights crossed.  The receiver finishes within the message's own
    route latency, serialisation and local copy of the release (without
    the wait: it finishes at 8209, 6150 cycles after a release at 2059)."""
    loader, sender, receiver = (ProgramBuilder() for _ in range(3))
    _loader(loader)
    for b, peer in ((sender, 3), (receiver, 1)):
        b.li(1, 0)       # scratchpad address
        b.li(2, peer)
        b.li(3, 64)
    for b in (loader, sender, receiver):
        b.emit("BARRIER")
    sender.emit("SEND", rs=1, rt=2, rd=3)
    receiver.emit("RECV", rs=1, rt=2, rd=3)
    sim, _ = _run(table1_arch, {1: _halted(sender), 2: _halted(loader),
                                3: _halted(receiver)})
    noc = sim.noc
    release = sim.cores[2].clock   # the loader halts at the release
    own = (noc.router_latency + noc.hops(1, 3) * noc.hop_latency
           + noc.serialization(64)
           + ceil_div(64, table1_arch.chip.core.local_memory
                      .bandwidth_bytes_per_cycle))
    assert sim.cores[3].clock - release <= own


@_WAITS_FOR_THE_PORT
def test_the_makespan_covers_work_in_flight_at_halt(table1_arch):
    """``HALT`` ends a core's clock while its units are still busy: the
    report's makespan must cover every unit's free time (it reads 1547
    cycles while core 2's mem unit is busy until 2057)."""
    b = ProgramBuilder()
    _loader(b, trailing=False)
    sim, report = _run(table1_arch, {2: _halted(b)})
    assert report.cycles >= max(
        max(core.unit_free.values()) for core in sim.cores)
