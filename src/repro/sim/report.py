"""Simulation reports: latency, energy breakdown, throughput, utilization.

This is the "detailed report covering energy consumption, latency, and
hardware utilization" the paper's workflow produces:
:class:`SimulationReport` from the cycle-level simulator and
:class:`FastReport` from the analytical model
(:mod:`repro.sim.fastmodel`).  Both are plain data -- this module
imports no simulator -- so the sweep cache and ``repro report`` can
read and write reports without loading the layers that produce them.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import ArchConfig


def group_energy_mj(energy_breakdown_pj: Dict[str, float]) -> Dict[str, float]:
    """The paper's Fig. 6 energy grouping, shared by every report type.

    Local memory / compute units / NoC, plus global memory, the
    inter-chip link (zero for single-chip runs), and everything else
    (instruction fetch, static).  The buckets partition the breakdown:
    their sum equals the total energy.
    """
    e = {k: v / 1e9 for k, v in energy_breakdown_pj.items()}
    return {
        "local_mem": e.get("local_mem", 0.0),
        "compute": (
            e.get("cim_compute", 0.0) + e.get("cim_write", 0.0)
            + e.get("vector", 0.0) + e.get("scalar", 0.0)
        ),
        "noc": e.get("noc", 0.0),
        "global_mem": e.get("global_mem", 0.0),
        "interchip": e.get("interchip", 0.0),
        "other": e.get("instruction", 0.0) + e.get("static", 0.0),
    }


class CycleReportMetrics:
    """The derived metrics of a cycle-tier report, written once.

    :class:`SimulationReport` (one chip) and
    :class:`~repro.sim.multichip.MultiChipReport` (a chip pipeline) both
    price time from ``arch.chip.cycle_ns`` over their ``cycles``,
    ``energy_breakdown_pj`` and ``macs`` fields.  (:class:`FastReport`
    prices from ``clock_mhz``, which rounds differently, and keeps its
    own.)
    """

    arch: ArchConfig
    cycles: int
    energy_breakdown_pj: Dict[str, float]
    macs: int

    @property
    def time_ms(self) -> float:
        return self.cycles * self.arch.chip.cycle_ns / 1e6

    @property
    def total_energy_pj(self) -> float:
        return sum(self.energy_breakdown_pj.values())

    @property
    def total_energy_mj(self) -> float:
        return self.total_energy_pj / 1e9

    @property
    def tops(self) -> float:
        """Achieved INT8 throughput in tera-operations/second (2 ops/MAC)."""
        seconds = self.cycles * self.arch.chip.cycle_ns / 1e9
        if seconds <= 0:
            return 0.0
        return 2.0 * self.macs / seconds / 1e12

    def grouped_energy_mj(self) -> Dict[str, float]:
        """Energy grouped as in the paper's Fig. 6: local memory / compute
        units / NoC, plus global memory, the inter-chip link and other
        (instruction, static)."""
        return group_energy_mj(self.energy_breakdown_pj)


@dataclass
class SimulationReport(CycleReportMetrics):
    """Performance metrics of one simulated workload execution."""

    arch: ArchConfig
    cycles: int
    energy_breakdown_pj: Dict[str, float]
    macs: int
    instructions: int
    utilization: Dict[str, float] = field(default_factory=dict)
    noc_bytes: int = 0
    noc_byte_hops: int = 0

    @property
    def energy_mj(self) -> Dict[str, float]:
        return {k: v / 1e9 for k, v in self.energy_breakdown_pj.items()}

    def to_dict(self) -> Dict:
        """JSON-safe form (used by ``python -m repro run --json``).

        The architecture is summarised by its content fingerprint rather
        than inlined; use :func:`repro.config.save_arch` to persist it.
        """
        from repro.config import arch_fingerprint

        return {
            "arch_fingerprint": arch_fingerprint(self.arch),
            "cycles": int(self.cycles),
            "time_ms": self.time_ms,
            "total_energy_mj": self.total_energy_mj,
            "tops": self.tops,
            "macs": int(self.macs),
            "instructions": int(self.instructions),
            "noc_bytes": int(self.noc_bytes),
            "noc_byte_hops": int(self.noc_byte_hops),
            "utilization": {k: float(v) for k, v in self.utilization.items()},
            "energy_breakdown_pj": {
                k: float(v) for k, v in self.energy_breakdown_pj.items()
            },
            "energy_groups_mj": self.grouped_energy_mj(),
        }

    def __str__(self) -> str:
        lines = [
            f"cycles            : {self.cycles:,}",
            f"latency           : {self.time_ms:.3f} ms",
            f"energy            : {self.total_energy_mj:.4f} mJ",
            f"throughput        : {self.tops:.3f} TOPS",
            f"MACs              : {self.macs:,}",
            f"instructions      : {self.instructions:,}",
            f"NoC traffic       : {self.noc_bytes / 1024:.1f} KiB "
            f"({self.noc_byte_hops / 1024:.1f} KiB-hops)",
            "energy breakdown  :",
        ]
        for key, value in sorted(self.grouped_energy_mj().items()):
            lines.append(f"  {key:12s}: {value:.4f} mJ")
        lines.append("utilization       :")
        for unit, value in sorted(self.utilization.items()):
            lines.append(f"  {unit:12s}: {100 * value:.2f} %")
        return "\n".join(lines)


@dataclass
class FastReport:
    """Performance estimate of one plan execution.

    ``batch > 1`` reports cover a whole input stream: ``cycles`` is the
    stream makespan, energies/MACs sum over every input, and
    ``steady_interval_cycles`` is the closed-form steady-state
    completion interval (``0`` means "no streaming analysis ran"; the
    throughput property then falls back to ``cycles``).
    ``stage_cycles`` always describes a single input.

    ``shard_cycles`` / ``shard_edges`` record the per-shard single-input
    occupancies and inter-chip transfer edges the streaming law needs,
    so a cached single-input report can be re-priced under any arrival
    process (:func:`repro.sim.fastmodel.serve_fleet`) without
    re-analysis.  A single-chip report records its one shard
    (``shard_cycles == [cycles]``, no edges); an empty ``shard_cycles``
    reads as one implicit shard of ``cycles``.
    Reports priced over a stream (:func:`repro.sim.fastmodel.
    serve_fleet`) additionally carry nearest-rank latency percentiles,
    and under an arrival process the offered rate.

    Reports priced under a fault plan
    (:func:`repro.sim.fastmodel.serve_fleet` with ``faults``)
    additionally record availability: ``dropped`` requests never
    completed (conservation: ``batch == completed + dropped``;
    energy/MACs charge actual work done -- one full inference per
    full-service attempt, including retries), ``retries`` counts
    re-dispatches, and latency percentiles cover completed requests
    only.
    """

    cycles: int
    energy_breakdown_pj: Dict[str, float]
    macs: int
    clock_mhz: int
    stage_cycles: Dict[int, int] = field(default_factory=dict)
    batch: int = 1
    steady_interval_cycles: int = 0
    shard_cycles: List[int] = field(default_factory=list)
    shard_edges: List[Tuple[int, int, int]] = field(default_factory=list)
    arrival_rate_inf_s: Optional[float] = None
    p50_latency_cycles: int = 0
    p95_latency_cycles: int = 0
    p99_latency_cycles: int = 0
    dropped: int = 0
    retries: int = 0
    load_cycles: int = 0

    @property
    def time_ms(self) -> float:
        return self.cycles * (1000.0 / self.clock_mhz) / 1e6

    @property
    def total_energy_pj(self) -> float:
        return sum(self.energy_breakdown_pj.values())

    @property
    def total_energy_mj(self) -> float:
        return self.total_energy_pj / 1e9

    @property
    def tops(self) -> float:
        seconds = self.cycles / (self.clock_mhz * 1e6)
        if seconds <= 0:
            return 0.0
        return 2.0 * self.macs / seconds / 1e12

    @property
    def throughput_inf_per_s(self) -> float:
        """Sustained inferences/second at the steady-state interval."""
        interval = self.steady_interval_cycles or self.cycles
        if interval <= 0:
            return 0.0
        return self.clock_mhz * 1e6 / interval

    @property
    def energy_per_inference_mj(self) -> float:
        return self.total_energy_mj / max(1, self.batch)

    @property
    def completed(self) -> int:
        return self.batch - self.dropped

    @property
    def goodput_inf_per_s(self) -> float:
        """Completed inferences per second over the stream makespan."""
        if self.completed <= 0 or self.cycles <= 0:
            return 0.0
        return self.completed * self.clock_mhz * 1e6 / self.cycles

    def to_dict(self) -> Dict:
        """JSON-safe form (inverse of :meth:`from_dict`).

        Used by the on-disk sweep cache and the CLI exporters, so it must
        round-trip exactly: ``FastReport.from_dict(r.to_dict()) == r``.
        """
        payload = {
            "cycles": int(self.cycles),
            "energy_breakdown_pj": {
                k: float(v) for k, v in self.energy_breakdown_pj.items()
            },
            "macs": int(self.macs),
            "clock_mhz": int(self.clock_mhz),
            "stage_cycles": {
                str(k): int(v) for k, v in self.stage_cycles.items()
            },
            "batch": int(self.batch),
            "steady_interval_cycles": int(self.steady_interval_cycles),
            "shard_cycles": [int(c) for c in self.shard_cycles],
            "shard_edges": [list(edge) for edge in self.shard_edges],
            "arrival_rate_inf_s": self.arrival_rate_inf_s,
            "p50_latency_cycles": int(self.p50_latency_cycles),
            "p95_latency_cycles": int(self.p95_latency_cycles),
            "p99_latency_cycles": int(self.p99_latency_cycles),
        }
        # Availability fields appear only on fault-injected reports:
        # fault-free reports must serialize exactly as they did before
        # repro.faults existed (artifact manifests embed this dict and
        # re-saving a v1 artifact must stay byte-identical).
        if self.dropped or self.retries:
            payload["dropped"] = int(self.dropped)
            payload["retries"] = int(self.retries)
        # Same conditional contract for the resident-weights field: a
        # non-resident report serializes byte-identically to pre-v7 form.
        if self.load_cycles:
            payload["load_cycles"] = int(self.load_cycles)
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "FastReport":
        """Rebuild a report from :meth:`to_dict` output (e.g. a cache file)."""
        rate = data.get("arrival_rate_inf_s")
        return cls(
            cycles=int(data["cycles"]),
            energy_breakdown_pj=dict(data["energy_breakdown_pj"]),
            macs=int(data["macs"]),
            clock_mhz=int(data["clock_mhz"]),
            stage_cycles={
                int(k): int(v) for k, v in data.get("stage_cycles", {}).items()
            },
            batch=int(data.get("batch", 1)),
            steady_interval_cycles=int(data.get("steady_interval_cycles", 0)),
            shard_cycles=[int(c) for c in data.get("shard_cycles", [])],
            shard_edges=[
                tuple(int(v) for v in edge)
                for edge in data.get("shard_edges", [])
            ],
            arrival_rate_inf_s=None if rate is None else float(rate),
            p50_latency_cycles=int(data.get("p50_latency_cycles", 0)),
            p95_latency_cycles=int(data.get("p95_latency_cycles", 0)),
            p99_latency_cycles=int(data.get("p99_latency_cycles", 0)),
            dropped=int(data.get("dropped", 0)),
            retries=int(data.get("retries", 0)),
            load_cycles=int(data.get("load_cycles", 0)),
        )

    def grouped_energy_mj(self) -> Dict[str, float]:
        """Fig. 6 grouping: local memory / compute / NoC (+ global, other).

        ``interchip`` is the chip-to-chip link energy of multi-chip
        sharded points (zero for single-chip points).
        """
        return group_energy_mj(self.energy_breakdown_pj)
