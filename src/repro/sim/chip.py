"""Chip-level simulation: cores + NoC + global memory + barriers.

Cores execute independently until they block (``RECV`` with no matching
message, or ``BARRIER``); the scheduler then resolves blocks and resumes.
Messages carry real data, so simulation is functionally exact and outputs
can be checked against the golden model.  ``SEND`` is buffered (never
blocks), which makes the dataflow deadlock-free for any DAG schedule; a
genuine schedule mismatch (lost or misordered message) is detected and
reported as a :class:`SimulationError` with per-core state.

Scheduling is event-driven: runnable cores sit in a ready queue and are
executed in core-id order, a ``RECV`` completes when a message is
*delivered into its channel* (no re-scanning of blocked cores), and
barrier release is a counter check.  Core execution itself is handled by
the hot-block engine (:mod:`repro.sim.blockengine`) by default; set
``REPRO_SIM_ENGINE=interp`` (or pass ``engine="interp"``) to select the
legacy per-instruction interpreter.  Both engines produce bit-identical
:class:`SimulationReport` fields and functional outputs -- the
engine-equivalence tests enforce this.
"""

import functools
import os
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import ArchConfig
from repro.errors import ConfigError, SimulationError
from repro.isa import ISARegistry, Program, default_registry
from repro.sim.core import BLOCKED_BARRIER, BLOCKED_RECV, HALTED, RUNNING, Core
from repro.sim.energy import EnergyAccountant
from repro.sim.memory import MemorySystem
from repro.sim.noc import NoC
from repro.sim.report import SimulationReport
from repro.utils import ceil_div

#: Environment variable selecting the execution engine.
ENGINE_ENV = "REPRO_SIM_ENGINE"

_ENGINES = ("block", "interp")


def default_engine() -> str:
    """Resolve the engine choice from ``REPRO_SIM_ENGINE`` (default block).

    An unrecognized value raises :class:`ConfigError` -- the same
    validation the ``engine=`` keyword gets -- so a typo never silently
    runs the wrong engine.
    """
    engine = os.environ.get(ENGINE_ENV, "").strip().lower()
    if not engine:
        return "block"
    if engine not in _ENGINES:
        raise ConfigError(
            f"unknown simulation engine {engine!r} in ${ENGINE_ENV}; "
            f"expected one of {_ENGINES}"
        )
    return engine


class ChipSimulator:
    """Cycle-level simulator for one compiled workload."""

    def __init__(
        self,
        arch: ArchConfig,
        programs: Dict[int, Program],
        registry: Optional[ISARegistry] = None,
        global_image: Optional[np.ndarray] = None,
        extension_handlers: Optional[Dict[str, Callable]] = None,
        engine: Optional[str] = None,
        activation_bytes: Optional[int] = None,
    ):
        arch.validate()
        self.arch = arch
        self.registry = registry or default_registry()
        self.extension_handlers = extension_handlers or {}
        if engine is None:
            engine = default_engine()
        if engine not in _ENGINES:
            raise ConfigError(
                f"unknown simulation engine {engine!r}; expected one of "
                f"{_ENGINES}"
            )
        self.engine = engine
        # ``activation_bytes`` splits the image: the run owns a writable
        # copy of the bytes below it and borrows the rest read-only.
        self.memory = MemorySystem(arch, global_image, activation_bytes)
        self.cores = [
            Core(cid, self, programs.get(cid, _empty_program(self.registry)))
            for cid in range(arch.chip.num_cores)
        ]
        self._arm()

    def reset_run(self, programs: Dict[int, Program]) -> None:
        """Rearm for another run, keeping memory + macro-group state.

        Resident-weights sessions call this between the load segment and
        each warm input: global/local memory contents and every core's
        loaded macro groups persist, while all timing state (core
        clocks, unit scoreboards), the NoC, message channels and the
        energy ledger start fresh -- each run is accounted exactly like
        an isolated run of ``programs`` against the persisted state.
        """
        for core in self.cores:
            core.reset_for_program(
                programs.get(core.core_id, _empty_program(self.registry))
            )
        self._arm()

    def _arm(self) -> None:
        """Start a run's state around the cores' programs: a fresh NoC,
        energy ledger, message channels and ready list, and (block
        engine) each core's block program."""
        self.noc = NoC(self.arch)
        self.acct = EnergyAccountant(self.arch.energy)
        self.channels: Dict[Tuple[int, int], deque] = {}
        #: (src, dst) -> core blocked on RECV from that channel.
        self._recv_waiters: Dict[Tuple[int, int], Core] = {}
        #: Cores unblocked during the current scheduler round.
        self._ready: List[Core] = []
        if self.engine == "block":
            from repro.sim.blockengine import block_program_for

            for core in self.cores:
                core._blockprog = block_program_for(
                    core.program, self.registry
                )

    @classmethod
    def from_compiled(cls, compiled, **kwargs) -> "ChipSimulator":
        """Build a simulator for a :class:`CompiledModel`: global memory
        owns the model's activation window and borrows its parameters
        from the compiled image."""
        return cls(
            compiled.arch,
            compiled.programs,
            registry=compiled.registry,
            global_image=compiled.global_image,
            activation_bytes=compiled.activation_bytes(),
            **kwargs,
        )

    # -- messaging ------------------------------------------------------------
    def deliver(self, src: int, dst: int, arrival: int, data: np.ndarray) -> None:
        if not 0 <= dst < len(self.cores):
            raise SimulationError(f"SEND to nonexistent core {dst}")
        self.channels.setdefault((src, dst), deque()).append((arrival, data))
        # Event-driven RECV completion: delivery into the channel a core is
        # blocked on resolves the receive immediately (the receiver runs in
        # the next scheduler round, preserving core-id execution order).
        waiter = self._recv_waiters.pop((src, dst), None)
        if waiter is not None:
            self._try_complete_recv(waiter)
            self._ready.append(waiter)

    def _try_complete_recv(self, core: Core) -> bool:
        addr, src, nbytes = core._pending_recv
        queue = self.channels.get((src, core.core_id))
        if not queue:
            return False
        arrival, data = queue[0]
        if len(data) != nbytes:
            raise SimulationError(
                f"core {core.core_id}: RECV expects {nbytes} B from core "
                f"{src} but the next message has {len(data)} B"
            )
        queue.popleft()
        local_bw = self.arch.chip.core.local_memory.bandwidth_bytes_per_cycle
        copy_cycles = ceil_div(max(1, nbytes), local_bw)
        core.clock = max(core.clock, arrival)
        core._issue("xfer", copy_cycles)
        self.memory.write(core.core_id, addr, data)
        self.acct.local_copy(nbytes)
        core._pending_recv = None
        core.pc += 1
        core.state = RUNNING
        return True

    # -- main loop ----------------------------------------------------------------
    def run(self, max_rounds: int = 1_000_000) -> SimulationReport:
        """Run to completion and return the performance report.

        Event-driven: each round executes the ready cores in core-id
        order until they block; cores unblocked during the round (by a
        message delivery completing their ``RECV``) form the next round.
        When the ready queue drains, either every active core sits at the
        barrier (release them) or nothing can make progress (deadlock).
        """
        self._ready = []
        self._recv_waiters.clear()
        current: List[Core] = [c for c in self.cores if c.state == RUNNING]
        for _ in range(max_rounds):
            if not current:
                active = [c for c in self.cores if c.state != HALTED]
                if not active:
                    return self._finish()
                waiting = [c for c in active if c.state == BLOCKED_BARRIER]
                if len(waiting) != len(active):
                    self._report_deadlock()
                release = max(c.clock for c in waiting) + 1
                for core in waiting:
                    core.clock = release
                    core.state = RUNNING
                current = waiting
                continue
            for core in current:
                state = core.run()
                if state == BLOCKED_RECV:
                    if self._try_complete_recv(core):
                        self._ready.append(core)
                    else:
                        src = core._pending_recv[1]
                        self._recv_waiters[(src, core.core_id)] = core
            current = sorted(self._ready, key=lambda c: c.core_id)
            self._ready = []
        raise SimulationError("simulation exceeded the round limit")

    def _report_deadlock(self) -> None:
        lines = []
        for core in self.cores:
            if core.state == HALTED:
                continue
            state = {BLOCKED_RECV: "RECV", BLOCKED_BARRIER: "BARRIER"}.get(
                core.state, "RUN"
            )
            pending = core._pending_recv
            lines.append(
                f"  core {core.core_id}: {state} pc={core.pc} "
                f"clock={core.clock} pending={pending}"
            )
        raise SimulationError("simulation deadlock:\n" + "\n".join(lines))

    def _finish(self) -> SimulationReport:
        cycles = max((c.clock for c in self.cores), default=0)
        self.acct.static(cycles, self.arch.chip.clock_mhz)
        busy: Dict[str, int] = {}
        for core in self.cores:
            for unit, value in core.busy.items():
                busy[unit] = busy.get(unit, 0) + value
        denominator = max(1, cycles) * len(self.cores)
        utilization = {u: v / denominator for u, v in busy.items()}
        instructions = sum(c.instructions_retired for c in self.cores)
        return SimulationReport(
            arch=self.arch,
            cycles=cycles,
            energy_breakdown_pj=self.acct.breakdown(),
            macs=self.acct.macs,
            instructions=instructions,
            utilization=utilization,
            noc_bytes=self.noc.total_bytes,
            noc_byte_hops=self.noc.total_byte_hops,
        )


@functools.lru_cache(maxsize=16)
def _empty_program(registry: ISARegistry) -> Program:
    """The HALT program of every idle core: built once per registry and
    shared, so constructing or rearming a chip translates it once."""
    program = Program(registry)
    program.emit("HALT")
    return program.finalize()
