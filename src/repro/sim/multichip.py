"""Multi-chip simulation: lock-step pipeline of chip simulators.

A :class:`~repro.compiler.pipeline.MultiChipModel` carries one compiled
single-chip workload per shard plus the explicit
:class:`~repro.compiler.pipeline.InterChipTransfer` schedule between
them; a :class:`~repro.compiler.pipeline.CompiledModel` presents the
same surface as a pipeline of one shard and no transfers, so every
cycle-level execution in the package goes through this module.
:class:`MultiChipSimulator` instantiates one unchanged
:class:`~repro.sim.chip.ChipSimulator` per chip (hot-block engine and
all) and executes the pipeline:

1. chips run in shard order; chip ``k`` starts at the cycle its last
   inbound transfer arrives (chip 0 starts at 0);
2. when a chip finishes, its outbound transfers depart over the modeled
   chip-to-chip link (:class:`~repro.config.InterChipConfig`): each
   ordered chip pair has a dedicated point-to-point link, transfers on
   the same link serialise, and a transfer of ``n`` bytes occupies its
   link for ``ceil(n / bandwidth)`` cycles and arrives ``latency``
   cycles later;
3. transfer payloads are moved between the chips' global memories, so
   simulation remains functionally exact and the final outputs can be
   validated bit-exactly against the golden model.

The same closed-form schedule (:func:`pipeline_schedule`) prices
inter-chip transfers in the fast analytical model
(:func:`repro.sim.fastmodel.analyze_sharded`), so the two fidelity
levels share one timing contract.  See ``docs/ARCHITECTURE.md``
("Multi-chip sharding").

**Batched streaming** (``docs/ARCHITECTURE.md``, "Batched streaming
inference"): :meth:`MultiChipSimulator.execute_stream` runs ``B``
independent inputs through the chip pipeline and
:func:`streaming_schedule` overlaps their per-chip windows.  Input
``i+1`` enters shard 0 while input ``i`` occupies shard 1, so sustained
throughput is bounded by the *bottleneck* resource (slowest shard or
busiest link), not the end-to-end makespan.  Each input executes in
full per-input isolation -- fresh chip state, no cross-input carry-over
-- so per-input outputs stay bit-identical to ``B`` independent
single-input runs.
:func:`streaming_schedule` is the timing recurrence and
:func:`steady_state_interval` its closed-form steady-state law
(``makespan(B) = makespan(1) + (B-1) * bottleneck``), shared with
:func:`repro.sim.fastmodel.analyze_sharded`.

**The admission kernel.**  The recurrence itself is written once, as
the incremental :class:`PipelineState` (:func:`streaming_schedule` is a
fold over it), next to the one fleet dispatch law :func:`route` and the
one unfaulted fleet step built from the two, :class:`Dispatcher`.
:meth:`PipelineState.admit` is called from here and from the failover
engine (:mod:`repro.faults`) only; the serving stack
(:mod:`repro.serve`, :mod:`repro.runtime`,
:func:`repro.sim.fastmodel.serve_fleet`) folds the dispatcher or the
engine and reports from their records.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.config import ArchConfig, InterChipConfig
from repro.errors import ConfigError, SimulationError
from repro.sim.report import CycleReportMetrics, SimulationReport

if TYPE_CHECKING:
    from repro.sim.chip import ChipSimulator

#: (src_chip, dst_chip, nbytes) -- the schedule-level view of a transfer.
TransferEdge = Tuple[int, int, int]


#: Dispatch policies :func:`route` understands.
FLEET_POLICIES = ("rr", "jsq")


def check_fleet(policy: str, replicas: int) -> None:
    """The one fleet-shape rule: a known policy over >= 1 replica."""
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    if policy not in FLEET_POLICIES:
        raise ConfigError(
            f"unknown dispatch policy {policy!r}; expected one of "
            f"{FLEET_POLICIES}"
        )


def check_release(release: int, previous: int = 0) -> None:
    """The one release-cycle rule: non-negative and FIFO.

    Inputs are admitted in submission order, so a release before
    ``previous`` (the last admitted release, 0 initially) describes an
    arrival order other than the one it would be served in.
    """
    if release < previous:
        raise SimulationError(
            f"release cycles must be >= 0 and non-decreasing (inputs are "
            f"served FIFO in submission order): got {release} after "
            f"{previous}"
        )


class PipelineState:
    """Incremental admission state of one chip pipeline -- the queueing law.

    The only copy of the per-input recurrence; every path that admits
    inputs consumes it (see the module docstring).

    ``row[k]`` is shard ``k``'s occupancy for one input; ``edges`` lists
    the per-input (src, dst, nbytes) transfers in schedule order.
    Resource constraints for input ``i``:

    - it cannot enter shard 0 before its release cycle (inputs are
      served FIFO, so releases must be non-decreasing);
    - shard ``k`` processes inputs in order: input ``i`` starts once
      shard ``k`` has finished input ``i-1`` *and* every inbound transfer
      for input ``i`` has fully arrived;
    - all transfers of input ``i`` out of a shard depart after that shard
      finishes input ``i``; transfers sharing a (src, dst) link serialise
      across the whole stream in (input, schedule) order, each occupying
      the link for ``serialization_cycles`` and arriving
      ``transfer_cycles`` after departure;

    so ``start[i][k] = max(release_i if k == 0, finish[i-1][k], last
    inbound arrival)``.

    ``service_time(k, start, base)`` / ``link_time(src, dst, depart,
    nbytes)`` are the fault-injection hooks (:mod:`repro.faults`): the
    (possibly slowed) occupancy of a pass starting at ``start``, and the
    ``(serialization, latency)`` cycles of a transfer departing at
    ``depart``.  ``None`` is the identity -- hook-free link cycles are
    computed once here, not per input.  ``crash`` is the cycle the
    replica dies (:meth:`in_flight` stops counting an input at the
    crash; :meth:`admit` still returns the uncapped finish so the caller
    can tell the attempt was killed).  ``load_offset`` is the cycle a
    cold resident-weights replica finishes loading its weights; no
    input enters the pipeline before it.
    """

    def __init__(
        self,
        row: Sequence[int],
        edges: Sequence[TransferEdge],
        link: InterChipConfig,
        *,
        service_time=None,
        link_time=None,
        crash: Optional[int] = None,
        load_offset: int = 0,
    ):
        self.row = list(row)
        n = len(self.row)
        self.service_time = service_time
        self.link_time = link_time
        self.crash = crash
        self.load_offset = int(load_offset)
        #: Outbound transfers pre-grouped per source shard; schedule
        #: order survives within a source, and links are keyed by
        #: (src, dst), so grouping never reorders a link's traffic.
        self._outbound: List[list] = [[] for _ in range(n)]
        for src, dst, nbytes in edges:
            if not 0 <= src < dst < n:
                raise SimulationError(
                    f"transfer edge ({src}, {dst}) does not connect two "
                    f"of the {n} shards in pipeline order (src < dst)"
                )
            timing = (None, None) if link_time is not None else (
                link.serialization_cycles(nbytes),
                link.transfer_cycles(nbytes),
            )
            self._outbound[src].append(((src, dst), nbytes) + timing)
        self._release = 0
        self._link_free: Dict[Tuple[int, int], int] = {}
        #: Per-shard start / finish cycles of the latest admitted input.
        self.starts: List[int] = []
        self.prev_finish = [0] * n
        #: Completion cycle of every admitted input, capped at the crash.
        #: Non-decreasing (each shard starts no earlier than it last
        #: finished and occupancies are >= 0), which :meth:`in_flight`
        #: relies on.
        self.finishes: List[int] = []

    def alive_at(self, cycle: int) -> bool:
        return self.crash is None or cycle < self.crash

    def admit(
        self, release: int, row: Optional[Sequence[int]] = None
    ) -> Tuple[int, int]:
        """Account one input released at ``release``.

        ``row`` overrides the per-shard occupancies for this input (the
        cyclesim tier measures every input).  Returns ``(start,
        finish)``: the shard-0 service-entry cycle and the last-shard
        completion cycle, ignoring any crash.  A pipeline with no shards
        serves instantly (``start == finish == release``).

        Every input of every serving path pays this call, so it
        allocates only the two per-shard lists it keeps: a shard's
        latest inbound arrival is accumulated in its ``finishes`` slot
        until the shard itself is reached (edges only run forward), and
        each comparison keeps the operand ``max()`` / ``min()`` would.
        """
        if release < self._release:
            check_release(release, self._release)
        self._release = release
        if self.load_offset > release:
            release = self.load_offset
        prev_finish = self.prev_finish
        n = len(prev_finish)
        if row is None:
            row = self.row
        elif len(row) != n:
            raise SimulationError(
                f"ragged service rows: got {len(row)} shard cycles for a "
                f"{n}-shard pipeline"
            )
        starts = [0] * n
        finishes = [0] * n
        if n:
            finishes[0] = release
        link_free = self._link_free
        service_time = self.service_time
        outbound = self._outbound
        for k in range(n):
            start = finishes[k]
            if prev_finish[k] > start:
                start = prev_finish[k]
            occupancy = row[k]
            if service_time is not None:
                occupancy = service_time(k, start, occupancy)
            if occupancy < 0:
                raise SimulationError(
                    f"shard {k} occupancy must be >= 0 cycles, got "
                    f"{occupancy}"
                )
            starts[k] = start
            finishes[k] = finish = start + occupancy
            for key, nbytes, ser, lat in outbound[k]:
                depart = link_free.get(key, 0)
                if finish >= depart:
                    depart = finish
                if ser is None:
                    ser, lat = self.link_time(key[0], key[1], depart, nbytes)
                link_free[key] = depart + ser
                dst = key[1]
                if depart + lat > finishes[dst]:
                    finishes[dst] = depart + lat
        self.starts = starts
        self.prev_finish = finishes
        finish = max(finishes) if n else release
        crash = self.crash
        self.finishes.append(
            crash if crash is not None and crash < finish else finish
        )
        return (starts[0] if n else release), finish

    def in_flight(self, now: int) -> int:
        """Inputs admitted so far that are still being served at ``now``."""
        return len(self.finishes) - bisect_right(self.finishes, now)


def route(
    policy: str,
    states: Sequence[PipelineState],
    now: int,
    cursor: int,
    alive: Optional[Sequence[int]] = None,
) -> int:
    """The fleet dispatch law: which replica takes the next input.

    ``"rr"`` rotates: dispatch number ``cursor`` goes to candidate
    ``cursor % len(candidates)``.  ``"jsq"`` joins the candidate with the
    fewest inputs predicted in flight at ``now`` (ties to the lowest
    index).  Candidates are the indices in ``alive`` (the failover
    engine passes the replicas that have not crashed), default every
    replica.
    """
    candidates = range(len(states)) if alive is None else alive
    if policy == "rr":
        return candidates[cursor % len(candidates)]
    check_fleet(policy, len(states))
    return min(candidates, key=lambda r: (states[r].in_flight(now), r))


class Dispatcher:
    """The unfaulted fleet admission step, one request at a time.

    *Route* (:func:`route`, dispatch number = requests so far), *admit*
    on the chosen replica's :class:`PipelineState` (which clamps the
    release to its ``load_offset``), *record*.  The fault-free twin of
    :class:`repro.faults.FailoverEngine`: :class:`repro.serve.Fleet`
    and :func:`repro.sim.fastmodel.serve_fleet` fold it over a whole
    stream, :class:`repro.runtime.ServerHandle` feeds it arrivals as
    they happen, and the fast tier assembles its reports straight from
    the per-request records -- every admission is made exactly once.
    """

    def __init__(self, policy: str, states: Sequence[PipelineState]):
        check_fleet(policy, len(states))
        self.policy = policy
        self.states = list(states)
        #: Per request, in submission order: the replica that served it,
        #: its shard-0 service-entry cycle and its completion cycle.
        self.assignments: List[int] = []
        self.starts: List[int] = []
        self.finishes: List[int] = []

    def dispatch(self, release: int) -> Tuple[int, int, int]:
        """Dispatch one request released at ``release``.

        Returns ``(replica, dispatch, finish)``; ``dispatch`` is the
        cycle the request reached the replica (its release, or the end
        of a cold resident replica's weight load).
        """
        replica = route(
            self.policy, self.states, release, len(self.assignments)
        )
        state = self.states[replica]
        start, finish = state.admit(release)
        self.assignments.append(replica)
        self.starts.append(start)
        self.finishes.append(finish)
        return replica, max(release, state.load_offset), finish


def streaming_schedule(
    batch_chip_cycles: Sequence[Sequence[int]],
    transfers: Sequence[TransferEdge],
    link: InterChipConfig,
    releases: Optional[Sequence[int]] = None,
    service_time=None,
    link_time=None,
) -> Tuple[List[List[int]], List[List[int]], List[int], int]:
    """Timing recurrence for ``B`` inputs streamed through the pipeline.

    A fold of :class:`PipelineState` (which owns the law and its
    resource constraints) over the whole batch.
    ``batch_chip_cycles[i][k]`` is chip ``k``'s execution time for input
    ``i``; ``transfers`` lists the per-input (src, dst, nbytes) edges in
    schedule order (src < dst).  ``releases[i]`` is the cycle input
    ``i`` becomes available to the system (``None`` = every input is
    available at cycle 0, the PR-4 batched special case -- the
    continuous-arrival generalisation behind :mod:`repro.serve`).

    Returns ``(starts, finishes, input_finishes, makespan)``: per-input
    per-chip start/finish cycles, the completion cycle of each input
    (its last chip finish), and the stream makespan.  With one input
    released at 0 this degenerates to :func:`pipeline_schedule` exactly;
    with all-zero releases it is bit-identical to the ``releases=None``
    batched schedule.

    ``service_time`` / ``link_time`` are :class:`PipelineState`'s
    fault-injection hooks; both default to ``None``, the identity.
    """
    if releases is not None and len(releases) != len(batch_chip_cycles):
        raise SimulationError(
            f"streaming_schedule got {len(batch_chip_cycles)} inputs "
            f"but {len(releases)} release cycles"
        )
    all_starts: List[List[int]] = []
    all_finishes: List[List[int]] = []
    input_finishes: List[int] = []
    if batch_chip_cycles:
        state = PipelineState(
            batch_chip_cycles[0], transfers, link,
            service_time=service_time, link_time=link_time,
        )
        for index, chip_cycles in enumerate(batch_chip_cycles):
            _, finish = state.admit(
                0 if releases is None else releases[index], chip_cycles
            )
            all_starts.append(state.starts)
            all_finishes.append(state.prev_finish)
            input_finishes.append(finish)
    return (
        all_starts, all_finishes, input_finishes,
        max(input_finishes, default=0),
    )


def pipeline_schedule(
    chip_cycles: Sequence[int],
    transfers: Sequence[TransferEdge],
    link: InterChipConfig,
) -> Tuple[List[int], List[int], int]:
    """Closed-form pipeline timing shared by both simulation tiers.

    ``chip_cycles[k]`` is chip ``k``'s own execution time; ``transfers``
    lists (src, dst, nbytes) edges in schedule order (src < dst).
    Returns ``(starts, finishes, makespan)`` in cycles.  All transfers
    out of a chip depart after it finishes; transfers sharing a (src,
    dst) link serialise in schedule order; a chip starts once every
    inbound transfer has fully arrived.  This is
    :func:`streaming_schedule` with a single input.
    """
    starts, finishes, _, makespan = streaming_schedule(
        [list(chip_cycles)], transfers, link
    )
    return starts[0], finishes[0], makespan


def steady_state_interval(
    chip_cycles: Sequence[int],
    transfers: Sequence[TransferEdge],
    link: InterChipConfig,
) -> int:
    """Closed-form steady-state initiation interval of a streamed batch.

    Once the pipeline is full, consecutive inputs complete exactly one
    *bottleneck occupancy* apart: every input occupies each chip for its
    execution time and each (src, dst) link for the serialisation cycles
    of that link's per-input traffic, so the sustained rate is bounded
    by the busiest resource.  Link *latency* is a pure delay (it adds to
    fill, never to the interval).  Both fidelity tiers share this law:
    ``makespan(B) = makespan(1) + (B-1) * steady_state_interval`` -- the
    streaming-contract tests assert the recurrence
    (:func:`streaming_schedule`) reproduces it exactly.
    """
    interval = max(chip_cycles) if chip_cycles else 0
    link_occupancy: Dict[Tuple[int, int], int] = {}
    for src, dst, nbytes in transfers:
        link_occupancy[(src, dst)] = (
            link_occupancy.get((src, dst), 0)
            + link.serialization_cycles(nbytes)
        )
    for occupancy in link_occupancy.values():
        interval = max(interval, occupancy)
    return interval


def sum_energy(breakdowns: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Category-wise sum of energy breakdowns, in the order given."""
    energy: Dict[str, float] = {}
    for breakdown in breakdowns:
        for key, value in breakdown.items():
            energy[key] = energy.get(key, 0.0) + value
    return energy


def merge_shard_energy(
    breakdowns: Sequence[Dict[str, float]],
    interchip_bytes: int,
    link: InterChipConfig,
) -> Dict[str, float]:
    """Sum per-chip energy breakdowns and charge the inter-chip link.

    The energy half of the multi-chip contract, shared verbatim by the
    cycle-level scheduler and the fast model (:func:`repro.sim.fastmodel.
    analyze_sharded`): per-chip categories add, and boundary traffic is
    charged at ``link.energy_pj_per_byte`` under the ``interchip`` key.
    """
    energy = sum_energy(breakdowns)
    if interchip_bytes:
        energy["interchip"] = (
            energy.get("interchip", 0.0)
            + interchip_bytes * link.energy_pj_per_byte
        )
    return energy


def assemble_stream_report(
    arch: ArchConfig,
    per_input_reports: Sequence[Sequence[SimulationReport]],
    edges: Sequence[TransferEdge],
    schedule: Tuple[List[List[int]], List[List[int]], List[int], int],
    interchip_bytes_per_input: int = 0,
) -> "MultiChipReport":
    """Aggregate a streamed execution + its schedule into one report.

    The single assembly shared by :meth:`MultiChipSimulator.run` and
    the serving API (:class:`repro.serve.Deployment`), for any chip
    count: energies/MACs/instructions sum over the stream,
    ``chip_reports`` / ``chip_starts`` / ``chip_finishes`` describe the
    first input's pass, and the steady-state interval is the closed-form
    bottleneck of the first input's per-chip windows.
    """
    link = arch.interchip
    starts, finishes, input_finishes, makespan = schedule
    batch = len(per_input_reports)
    flat = [r for reports in per_input_reports for r in reports]
    total_bytes = interchip_bytes_per_input * batch
    energy = merge_shard_energy(
        [r.energy_breakdown_pj for r in flat], total_bytes, link
    )
    first = per_input_reports[0]
    return MultiChipReport(
        arch=arch,
        cycles=makespan,
        energy_breakdown_pj=energy,
        macs=sum(r.macs for r in flat),
        instructions=sum(r.instructions for r in flat),
        chip_reports=list(first),
        chip_starts=starts[0],
        chip_finishes=finishes[0],
        interchip_bytes=total_bytes,
        noc_bytes=sum(r.noc_bytes for r in flat),
        noc_byte_hops=sum(r.noc_byte_hops for r in flat),
        utilization=_mean_utilization(first),
        batch=batch,
        input_finishes=input_finishes,
        steady_interval_cycles=steady_state_interval(
            [r.cycles for r in first], edges, link
        ),
    )


def _mean_utilization(
    reports: Sequence[SimulationReport],
) -> Dict[str, float]:
    """Per-unit utilization averaged over the chip pipeline."""
    utilization: Dict[str, float] = {}
    for report in reports:
        for unit, value in report.utilization.items():
            utilization[unit] = (
                utilization.get(unit, 0.0) + value / len(reports)
            )
    return utilization


@dataclass
class MultiChipReport(CycleReportMetrics):
    """Aggregate performance report of one multi-chip pipeline run.

    Shares :class:`~repro.sim.report.SimulationReport`'s derived metrics
    (:class:`~repro.sim.report.CycleReportMetrics`; ``cycles`` is
    the pipeline makespan, energies are summed across chips plus the
    ``interchip`` link energy) and keeps the per-chip reports and the
    pipeline schedule for inspection.

    Batched streaming runs (``batch > 1``) aggregate the whole stream:
    ``cycles`` is the stream makespan, energies/MACs/instructions sum
    over every input, ``input_finishes`` records when each input
    completed, and ``steady_interval_cycles`` is the closed-form
    steady-state completion interval (the throughput-mode metric).
    ``chip_reports`` / ``chip_starts`` / ``chip_finishes`` describe the
    *first* input's pass through the pipeline (per-input isolation makes
    every input's per-chip execution identical in timing).
    """

    arch: ArchConfig
    cycles: int
    energy_breakdown_pj: Dict[str, float]
    macs: int
    instructions: int
    chip_reports: List[SimulationReport]
    chip_starts: List[int]
    chip_finishes: List[int]
    interchip_bytes: int = 0
    noc_bytes: int = 0
    noc_byte_hops: int = 0
    utilization: Dict[str, float] = field(default_factory=dict)
    batch: int = 1
    input_finishes: List[int] = field(default_factory=list)
    steady_interval_cycles: int = 0

    @property
    def num_chips(self) -> int:
        return len(self.chip_reports)

    @property
    def throughput_inf_per_s(self) -> float:
        """Sustained inferences/second at the steady-state interval."""
        interval = self.steady_interval_cycles or self.cycles
        seconds = interval * self.arch.chip.cycle_ns / 1e9
        if seconds <= 0:
            return 0.0
        return 1.0 / seconds

    @property
    def energy_per_inference_mj(self) -> float:
        return self.total_energy_mj / max(1, self.batch)

    def to_dict(self) -> Dict:
        from repro.config import arch_fingerprint

        return {
            "arch_fingerprint": arch_fingerprint(self.arch),
            "num_chips": self.num_chips,
            "cycles": int(self.cycles),
            "time_ms": self.time_ms,
            "total_energy_mj": self.total_energy_mj,
            "tops": self.tops,
            "macs": int(self.macs),
            "instructions": int(self.instructions),
            "interchip_bytes": int(self.interchip_bytes),
            "noc_bytes": int(self.noc_bytes),
            "noc_byte_hops": int(self.noc_byte_hops),
            "batch": int(self.batch),
            "input_finishes": [int(c) for c in self.input_finishes],
            "steady_interval_cycles": int(self.steady_interval_cycles),
            "throughput_inf_per_s": self.throughput_inf_per_s,
            "energy_per_inference_mj": self.energy_per_inference_mj,
            "chip_starts": [int(c) for c in self.chip_starts],
            "chip_finishes": [int(c) for c in self.chip_finishes],
            "utilization": {k: float(v) for k, v in self.utilization.items()},
            "energy_breakdown_pj": {
                k: float(v) for k, v in self.energy_breakdown_pj.items()
            },
            "energy_groups_mj": self.grouped_energy_mj(),
            "chips": [r.to_dict() for r in self.chip_reports],
        }

    def __str__(self) -> str:
        lines = [
            f"chips             : {self.num_chips}",
            f"cycles (makespan) : {self.cycles:,}",
            f"latency           : {self.time_ms:.3f} ms",
            f"energy            : {self.total_energy_mj:.4f} mJ",
            f"throughput        : {self.tops:.3f} TOPS",
            f"MACs              : {self.macs:,}",
            f"instructions      : {self.instructions:,}",
            f"inter-chip bytes  : {self.interchip_bytes / 1024:.1f} KiB",
        ]
        if self.batch > 1:
            lines += [
                f"batch             : {self.batch} inputs streamed",
                f"steady interval   : {self.steady_interval_cycles:,} "
                f"cycles/inference",
                f"sustained rate    : {self.throughput_inf_per_s:,.0f} "
                f"inferences/s",
                f"energy/inference  : {self.energy_per_inference_mj:.4f} mJ",
            ]
        lines.append("pipeline          :")
        for k, (s, f) in enumerate(zip(self.chip_starts, self.chip_finishes)):
            lines.append(f"  chip {k}: cycles [{s:,}, {f:,})")
        lines.append("energy breakdown  :")
        for key, value in sorted(self.grouped_energy_mj().items()):
            lines.append(f"  {key:12s}: {value:.4f} mJ")
        return "\n".join(lines)


class MultiChipSimulator:
    """Runs a :class:`MultiChipModel` -- or a :class:`CompiledModel`, a
    pipeline of one shard: one :class:`ChipSimulator` per shard,
    lock-step over the inter-chip link."""

    def __init__(self, model, engine: Optional[str] = None):
        # The cycle tier starts here.  The admission kernel above is
        # shared with the fast tier, so the chip simulator (cores, block
        # engine, NoC, ISA) is not a module-level import.
        from repro.sim.chip import ChipSimulator

        self.model = model
        self.arch: ArchConfig = model.arch
        self._new_chip = partial(ChipSimulator.from_compiled, engine=engine)
        self.chips: List[ChipSimulator] = []
        self.chips = self._fresh_chips()

    def _fresh_chips(self) -> List[ChipSimulator]:
        """One pristine simulator per shard (reset memory and cores).

        Streaming runs rebuild the chip set per input: per-input
        isolation is the batching contract (no cross-input state), and it
        is what keeps batched outputs bit-identical to independent runs.
        The set being replaced is unlinked first: a core and its chip
        reference each other, so without that the old set's registers
        and memories would live until the cyclic collector next runs.
        """
        for chip in self.chips:
            for core in chip.cores:
                core.chip = None
        return [self._new_chip(compiled) for compiled in self.model.chips]

    def write_input(self, tensor: Optional[str], data) -> None:
        """Write one model input into every chip that consumes it."""
        import numpy as np

        for chip, address in self.model.input_placements(tensor):
            self.chips[chip].memory.write_global(
                address, np.asarray(data, np.int8)
            )

    def read_output(self, tensor: Optional[str] = None):
        """Read one model output from the chip that produced it."""
        chip, address = self.model.output_placement(tensor)
        name = tensor if tensor is not None else self.model.graph.outputs[0]
        info = self.model.graph.tensor(name)
        raw = self.chips[chip].memory.read_global(address, info.size_bytes)
        return raw.reshape(info.shape)

    def _execute_pipeline(self) -> List[SimulationReport]:
        """Run every chip of ``self.chips`` once, moving transfer payloads.

        Chips execute in shard order (data dependencies only flow
        forward), each on its own unchanged cycle-level simulator; the
        transfer schedule moves boundary tensors between the chips'
        global memories.  Timing is assembled separately by the
        closed-form link schedule.
        """
        reports: List[SimulationReport] = []
        for k, chip in enumerate(self.chips):
            reports.append(chip.run())
            for tr in self.model.transfers:
                if tr.src_chip != k:
                    continue
                payload = chip.memory.read_global(tr.src_address, tr.nbytes)
                self.chips[tr.dst_chip].memory.write_global(
                    tr.dst_address, payload
                )
        return reports

    def run(self) -> MultiChipReport:
        """Execute one input through the pipeline and aggregate reports."""
        reports = self._execute_pipeline()
        edges = self.model.transfer_edges()
        schedule = streaming_schedule(
            [[r.cycles for r in reports]], edges, self.arch.interchip
        )
        return assemble_stream_report(
            self.arch, [reports], edges, schedule,
            self.model.interchip_bytes(),
        )

    def execute_stream(
        self, inputs: Sequence, tensor: Optional[str] = None
    ) -> Tuple[List[List[SimulationReport]], List[Dict[str, "np.ndarray"]]]:
        """Execute every input in full per-input isolation, no scheduling.

        The functional half of streaming: each input runs on fresh chip
        state (so its outputs are bit-identical to an independent
        single-input run) and the per-input per-chip reports are
        returned for a scheduler -- :func:`streaming_schedule` under any
        arrival process -- to assemble timing from.  ``self.chips`` is
        left holding the final input's state, so :meth:`read_output`
        reads the last input afterwards.
        """
        output_names = list(self.model.graph.outputs)
        per_input_reports: List[List[SimulationReport]] = []
        per_input_outputs: List[Dict[str, "np.ndarray"]] = []
        for data in inputs:
            # Per-input isolation holds even if run() or an earlier
            # stream already consumed this simulator's chip state.
            self.chips = self._fresh_chips()
            self.write_input(tensor, data)
            per_input_reports.append(self._execute_pipeline())
            per_input_outputs.append(
                {name: self.read_output(name) for name in output_names}
            )
        return per_input_reports, per_input_outputs

    def load_resident(self) -> List[SimulationReport]:
        """Run every shard's run-once weight-load segment on fresh chips.

        After this the simulator's chips hold the loaded macro groups and
        constant bands; :meth:`execute_warm_stream` may then be called
        any number of times (a serving session's repeated submissions)
        without re-paying the load.  Returns one report per shard --
        shards load in parallel, so the session's load phase is their
        max cycle count.
        """
        from repro.sim.blockengine import ENGINE_STATS

        self._resident_segments = [
            c.resident_segments() for c in self.model.chips
        ]
        self.chips = self._fresh_chips()
        load_reports: List[SimulationReport] = []
        for chip, (_, load) in zip(self.chips, self._resident_segments):
            chip.reset_run(load)
            load_reports.append(chip.run())
            ENGINE_STATS["resident_load_runs"] += 1
        return load_reports

    def execute_warm_stream(
        self, inputs: Sequence, tensor: Optional[str] = None
    ) -> Tuple[List[List[SimulationReport]], List[Dict[str, "np.ndarray"]]]:
        """Warm half of a resident session: activation-only replays.

        Requires a prior :meth:`load_resident` on this simulator.  Each
        input re-arms the chips with the warm (load-free) programs
        against the persisted weight state; no weight-load traffic
        recurs, and per-input isolation of the *activation* state keeps
        outputs bit-identical to isolated full runs.
        """
        from repro.sim.blockengine import ENGINE_STATS

        if getattr(self, "_resident_segments", None) is None:
            raise SimulationError(
                "execute_warm_stream needs load_resident() first"
            )
        output_names = list(self.model.graph.outputs)
        per_input_reports: List[List[SimulationReport]] = []
        per_input_outputs: List[Dict[str, "np.ndarray"]] = []
        for data in inputs:
            for chip, (warm, _) in zip(self.chips, self._resident_segments):
                chip.reset_run(warm)
                ENGINE_STATS["resident_warm_runs"] += 1
            self.write_input(tensor, data)
            per_input_reports.append(self._execute_pipeline())
            per_input_outputs.append(
                {name: self.read_output(name) for name in output_names}
            )
        return per_input_reports, per_input_outputs
