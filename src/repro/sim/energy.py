"""Energy accounting, broken down by component category.

Categories match the paper's Fig. 6 breakdown: local memory, compute
units (CIM + vector + scalar), NoC, plus global memory, instruction
delivery and static leakage tracked separately.

The accountant accumulates *integer event tallies* (instruction counts,
bytes moved, MAC counts) and only multiplies them by the per-event energy
coefficients when :meth:`EnergyAccountant.breakdown` is called.  Integer
accumulation is exact and associative, so an execution engine that batches
thousands of events into one tally update (the hot-block engine of
:mod:`repro.sim.blockengine`) produces *bit-identical* energy numbers to
the per-instruction interpreter -- the exactness contract the simulator's
engine equivalence tests rely on.  The only floating-point accumulators
are the NoC per-message energies and user-extension energies.  Extension
energies are never batched; NoC energies *are* batched by the
iteration-major NoC replay, but as the identical sequence of repeated
float additions the stepped path would perform (one
:meth:`EnergyAccountant.noc_transfer` per message per iteration), so
the accumulated value stays bit-identical despite float addition being
non-associative.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.config import EnergyConfig

@dataclass
class EnergyAccountant:
    """Accumulates exact event tallies; converts to picojoules on demand."""

    energy: EnergyConfig
    # -- integer event tallies (exact, batchable) --------------------------
    n_instructions: int = 0
    n_scalar_ops: int = 0
    macs: int = 0
    mvm_rows: int = 0
    mvm_result_bytes: int = 0
    cim_load_bytes: int = 0
    vec_elements: int = 0
    local_bytes_read: int = 0
    local_bytes_written: int = 0
    global_bytes: int = 0
    # -- float accumulators (addition order is engine-invariant: batched
    #    NoC replay re-issues the exact per-message addition sequence) --
    noc_pj_total: float = 0.0
    static_pj_total: float = 0.0
    extra_pj: Dict[str, float] = field(default_factory=dict)

    def add(self, category: str, amount_pj: float) -> None:
        """Direct energy contribution (runtime-extension instructions)."""
        self.extra_pj[category] = self.extra_pj.get(category, 0.0) + amount_pj

    def instruction(self, count: int = 1) -> None:
        self.n_instructions += count

    def local_copy(self, nbytes: int) -> None:
        self.local_bytes_read += nbytes
        self.local_bytes_written += nbytes

    def global_access(self, nbytes: int) -> None:
        self.global_bytes += nbytes

    def noc_transfer(self, pj: float) -> None:
        self.noc_pj_total += pj

    def static(self, cycles: int, clock_mhz: int) -> None:
        self.static_pj_total += cycles * self.energy.static_pj_per_cycle(
            clock_mhz
        )

    def breakdown(self) -> Dict[str, float]:
        """Per-category energy in picojoules (freshly computed)."""
        e = self.energy
        pj = {
            "cim_compute": (
                self.macs * e.cim_mac_pj
                + self.mvm_rows * e.cim_peripheral_pj_per_mvm_row
            ),
            "cim_write": self.cim_load_bytes * e.cim_write_pj_per_byte,
            "vector": self.vec_elements * e.vector_op_pj_per_element,
            "scalar": self.n_scalar_ops * e.scalar_op_pj,
            "local_mem": (
                self.local_bytes_read * e.local_mem_read_pj_per_byte
                + self.local_bytes_written * e.local_mem_write_pj_per_byte
            ),
            "global_mem": self.global_bytes * e.global_mem_pj_per_byte,
            "noc": self.noc_pj_total,
            "instruction": self.n_instructions * e.instruction_pj,
            "static": self.static_pj_total,
        }
        for category, amount in self.extra_pj.items():
            pj[category] = pj.get(category, 0.0) + amount
        return pj
