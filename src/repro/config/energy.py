"""Energy and power parameter library.

The paper obtains component costs from post-layout analysis of the ISSCC'22
macro it cites ([11], 27.38 TOPS/W signed-INT8), memory compilers, Design
Compiler + PrimeTime PX for peripheral logic, and Noxim for the NoC.  None
of those proprietary flows are available offline, so this module substitutes
published per-event energies of the same technology class (28 nm digital
CIM); only relative results depend on them, as the paragraph below
explains.

All figures are **picojoules per event**.  Only *relative* results are
reproduced from the paper (normalized speed/energy, breakdown shares,
scaling trends), and those depend on the ratio structure of these numbers,
not on absolute calibration.  Every parameter can be overridden by
constructing a custom :class:`EnergyConfig`.
"""

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event energy parameters in picojoules.

    Attributes
    ----------
    cim_mac_pj:
        Energy of one INT8 x INT8 multiply-accumulate inside a macro.  The
        ISSCC'22 macro reports 27.38 TOPS/W at INT8, i.e. ~0.037 pJ/op or
        ~0.073 pJ/MAC at the macro boundary.
    cim_peripheral_pj_per_mvm_row:
        Adder-tree / shift-accumulate peripheral energy charged per active
        row of an MVM (bit-serial accumulation overhead).
    local_mem_read_pj_per_byte / local_mem_write_pj_per_byte:
        Scratchpad SRAM access energy (28 nm compiled SRAM class numbers).
    global_mem_pj_per_byte:
        Large shared SRAM access energy, including the bank periphery.
    noc_pj_per_byte_per_hop:
        Link + router traversal energy for one byte over one mesh hop.
    vector_op_pj_per_element:
        Vector ALU energy per INT8 element processed.
    scalar_op_pj:
        Scalar ALU operation energy.
    instruction_pj:
        Fetch + decode energy per instruction.
    reg_access_pj:
        Register-file read/write port energy per access.
    cim_write_pj_per_byte:
        Energy to load weight bytes into the CIM arrays.
    static_mw:
        Chip static + idle-clocking power in milliwatts, charged per
        cycle.  A 64-core 28 nm chip with always-on peripheral clocks
        idles in the watt range; at batch-1 inference utilisation this
        term dominates total energy, which is what makes the paper's
        energy reduction track its speedup (Fig. 5: 2.8x speedup with
        61.7% energy reduction implies energy ~ static power x time).
    """

    cim_mac_pj: float = 0.073
    cim_peripheral_pj_per_mvm_row: float = 0.05
    local_mem_read_pj_per_byte: float = 0.6
    local_mem_write_pj_per_byte: float = 0.8
    global_mem_pj_per_byte: float = 8.0
    noc_pj_per_byte_per_hop: float = 1.1
    vector_op_pj_per_element: float = 0.25
    scalar_op_pj: float = 0.8
    instruction_pj: float = 1.2
    reg_access_pj: float = 0.1
    cim_write_pj_per_byte: float = 1.5
    static_mw: float = 1500.0

    def validate(self) -> None:
        for name, value in self.__dict__.items():
            if not math.isfinite(value) or value < 0:
                raise ConfigError(
                    f"energy parameter {name} must be finite and "
                    f"non-negative, got {value!r}"
                )

    def static_pj_per_cycle(self, clock_mhz: int) -> float:
        """Static energy charged per clock cycle at ``clock_mhz``."""
        if clock_mhz <= 0:
            raise ConfigError("clock frequency must be positive")
        cycle_ns = 1000.0 / clock_mhz
        return self.static_mw * cycle_ns  # mW x ns = pJ
