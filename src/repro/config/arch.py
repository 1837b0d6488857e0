"""Hierarchical hardware abstraction: chip-level, core-level and unit-level
architecture parameters (CIMFlow Sec. III-B, Fig. 3 and Table I).

The abstraction mirrors the paper's three levels:

- **Chip level**: number of cores, NoC interconnection, global memory.
- **Core level**: compute units, register file, segmented local memory and
  instruction memory.
- **Unit level**: the CIM compute unit's macro groups (MGs), the macros
  inside each group and the element arrays inside each macro.

Each level is a frozen dataclass so architecture points are hashable and can
be used as sweep keys.  Derived quantities (mesh dimensions, weight-tile
shapes, capacities) are exposed as properties so the compiler and simulator
never duplicate the arithmetic.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigError
from repro.utils import ceil_div

#: Base of the global-memory window in the unified address space shared by
#: the ISA, compiler, and simulator.  Addresses below it are core-local.
GLOBAL_BASE = 0x4000_0000

#: Modelling limit on cores per chip: a 128 x 128 mesh, 256x Table I's 64.
#: Every core is a live simulator object, and a run's memory grows faster
#: than the core count: on a 2-core, 7 GiB host ``repro run tiny_mlp``
#: takes 1.3 s and 150 MiB at 16 384 cores, peaks at 4.4 GiB at 32 768
#: and is killed for memory at 65 536.
MAX_CORES = 16_384

#: Modelling limit on macro groups per core: 64x Table I's 16.  Every core
#: keeps one weight slot per macro group, so a chip holds cores x groups
#: slots; at both limits tiny_resnet runs in 2.1 s and 277 MiB, while
#: 10**8 groups on Table I's 64 cores exhaust a 7 GiB host.
MAX_MACRO_GROUPS = 1_024


@dataclass(frozen=True)
class MacroConfig:
    """A single digital CIM macro: a modified SRAM array plus peripheral
    adder trees and shift-accumulate logic.

    ``rows`` x ``cols`` is the bitcell array (Table I: 512x64).  Weights are
    ``weight_bits`` wide and laid out along bitlines, so one macro stores a
    weight tile of ``rows`` input rows by ``cols // weight_bits`` output
    channels.  ``element_rows`` x ``element_bits`` describes the element
    sub-array feeding one adder tree (Table I: 32x8).
    """

    rows: int = 512
    cols: int = 64
    element_rows: int = 32
    element_bits: int = 8
    weight_bits: int = 8
    activation_bits: int = 8

    @property
    def out_channels(self) -> int:
        """Output channels (8-bit weight columns) provided by one macro."""
        return self.cols // self.weight_bits

    @property
    def capacity_bytes(self) -> int:
        """Macro storage in bytes."""
        return self.rows * self.cols // 8

    def validate(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigError("macro rows/cols must be positive")
        if self.weight_bits <= 0 or self.cols % self.weight_bits != 0:
            raise ConfigError(
                f"macro cols ({self.cols}) must be a positive multiple of "
                f"weight_bits ({self.weight_bits})"
            )
        if self.element_rows <= 0 or self.element_bits <= 0:
            raise ConfigError("element dimensions must be positive")
        if self.rows % self.element_rows != 0:
            raise ConfigError(
                f"macro rows ({self.rows}) must be a multiple of element rows "
                f"({self.element_rows})"
            )
        if self.activation_bits <= 0:
            raise ConfigError("activation_bits must be positive")


@dataclass(frozen=True)
class MacroGroupConfig:
    """A macro group (MG): ``num_macros`` macros sharing an input broadcast.

    Weights inside an MG are organised along the output channel, so the MG
    as a whole holds a weight tile of ``macro.rows`` input rows by
    ``num_macros * macro.out_channels`` output channels and performs one
    matrix-vector multiply per activation.
    """

    num_macros: int = 8
    macro: MacroConfig = field(default_factory=MacroConfig)

    @property
    def tile_rows(self) -> int:
        """Input-dimension rows of the MG weight tile."""
        return self.macro.rows

    @property
    def tile_cols(self) -> int:
        """Output channels of the MG weight tile."""
        return self.num_macros * self.macro.out_channels

    @property
    def capacity_bytes(self) -> int:
        return self.num_macros * self.macro.capacity_bytes

    def validate(self) -> None:
        if self.num_macros <= 0:
            raise ConfigError("macro group must contain at least one macro")
        self.macro.validate()


@dataclass(frozen=True)
class CIMUnitConfig:
    """The CIM compute unit of a core: ``num_macro_groups`` macro groups.

    ``mvm_setup_cycles`` models instruction issue plus input broadcast
    setup; an MVM then streams ``activation_bits`` bit-serial cycles through
    the array and drains through ``pipeline_depth`` adder-tree/accumulator
    stages.  MGs operate in parallel; the unit is pipelined with an issue
    interval of ``activation_bits`` cycles per MG.
    """

    num_macro_groups: int = 16
    macro_group: MacroGroupConfig = field(default_factory=MacroGroupConfig)
    mvm_setup_cycles: int = 2
    pipeline_depth: int = 4

    @property
    def capacity_bytes(self) -> int:
        """Total CIM weight storage of the unit in bytes."""
        return self.num_macro_groups * self.macro_group.capacity_bytes

    @property
    def mvm_issue_interval(self) -> int:
        """Cycles between back-to-back MVM issues on one macro group."""
        return self.macro_group.macro.activation_bits

    @property
    def mvm_latency(self) -> int:
        """Total latency in cycles of a single MVM on one macro group."""
        return (
            self.mvm_setup_cycles
            + self.macro_group.macro.activation_bits
            + self.pipeline_depth
        )

    def validate(self) -> None:
        if not 1 <= self.num_macro_groups <= MAX_MACRO_GROUPS:
            raise ConfigError(
                f"chip.core.cim_unit.num_macro_groups must be in [1, "
                f"{MAX_MACRO_GROUPS}] (the modelling limit), got "
                f"{self.num_macro_groups}"
            )
        if self.mvm_setup_cycles < 0 or self.pipeline_depth < 0:
            raise ConfigError("CIM unit pipeline parameters must be non-negative")
        self.macro_group.validate()


@dataclass(frozen=True)
class VectorUnitConfig:
    """SIMD vector compute unit handling activation / pooling / elementwise /
    quantisation operations (``lanes`` INT8 lanes per cycle)."""

    lanes: int = 32
    pipeline_depth: int = 2

    def validate(self) -> None:
        if self.lanes <= 0:
            raise ConfigError("vector unit needs at least one lane")
        if self.pipeline_depth < 0:
            raise ConfigError("vector pipeline depth must be non-negative")


@dataclass(frozen=True)
class ScalarUnitConfig:
    """Scalar compute unit for control flow and address arithmetic."""

    op_latency: int = 1

    def validate(self) -> None:
        if self.op_latency <= 0:
            raise ConfigError("scalar op latency must be positive")


@dataclass(frozen=True)
class LocalMemoryConfig:
    """Segmented core-local scratchpad memory (Table I: 512 KB).

    Segments hold DNN-layer inputs/outputs; the ISA exposes them through the
    unified address space.
    """

    size_bytes: int = 512 * 1024
    num_segments: int = 4
    bandwidth_bytes_per_cycle: int = 32
    access_latency: int = 1

    @property
    def segment_bytes(self) -> int:
        return self.size_bytes // self.num_segments

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError("local memory size must be positive")
        if self.size_bytes > GLOBAL_BASE:
            # local addresses are [0, size), global ones start at GLOBAL_BASE
            raise ConfigError(
                f"local memory size {self.size_bytes} overlaps the global "
                f"window, which starts at {GLOBAL_BASE} ({GLOBAL_BASE:#x})"
            )
        if self.num_segments <= 0 or self.size_bytes % self.num_segments != 0:
            raise ConfigError(
                "local memory size must divide evenly into its segments"
            )
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ConfigError("local memory bandwidth must be positive")
        if self.access_latency < 0:
            raise ConfigError("local memory latency must be non-negative")


@dataclass(frozen=True)
class RegisterFileConfig:
    """Register file: general-purpose (G_Reg) and special-purpose (S_Reg)
    registers.  Operand fields are 5 bits wide, so at most 32 general
    registers are addressable."""

    num_general: int = 32
    num_special: int = 16

    def validate(self) -> None:
        if not 1 <= self.num_general <= 32:
            raise ConfigError("general register count must be in [1, 32]")
        if self.num_special < 0:
            raise ConfigError("special register count must be non-negative")


@dataclass(frozen=True)
class CoreConfig:
    """Core-level resource organisation (Fig. 3, middle)."""

    cim_unit: CIMUnitConfig = field(default_factory=CIMUnitConfig)
    vector_unit: VectorUnitConfig = field(default_factory=VectorUnitConfig)
    scalar_unit: ScalarUnitConfig = field(default_factory=ScalarUnitConfig)
    local_memory: LocalMemoryConfig = field(default_factory=LocalMemoryConfig)
    register_file: RegisterFileConfig = field(default_factory=RegisterFileConfig)
    inst_memory_size: int = 64 * 1024

    @property
    def cim_capacity_bytes(self) -> int:
        """Weight bytes storable in this core's CIM arrays."""
        return self.cim_unit.capacity_bytes

    def validate(self) -> None:
        if self.inst_memory_size <= 0:
            raise ConfigError("instruction memory size must be positive")
        self.cim_unit.validate()
        self.vector_unit.validate()
        self.scalar_unit.validate()
        self.local_memory.validate()
        self.register_file.validate()


@dataclass(frozen=True)
class NoCConfig:
    """Mesh Network-on-Chip parameters.

    ``flit_bytes`` is the per-cycle link bandwidth explored in the paper's
    Fig. 6/7 (8 or 16 bytes).  Routing is dimension-ordered XY.
    """

    flit_bytes: int = 8
    hop_latency: int = 1
    router_latency: int = 1

    def validate(self) -> None:
        if self.flit_bytes <= 0:
            raise ConfigError("flit size must be positive")
        if self.hop_latency <= 0 or self.router_latency < 0:
            raise ConfigError("NoC latencies must be positive/non-negative")


@dataclass(frozen=True)
class GlobalMemoryConfig:
    """Chip-level shared memory (Table I: 16 MB) reached through the NoC."""

    size_bytes: int = 16 * 1024 * 1024
    access_latency: int = 20
    bandwidth_bytes_per_cycle: int = 64

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError("global memory size must be positive")
        if self.access_latency < 0:
            raise ConfigError("global memory latency must be non-negative")
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ConfigError("global memory bandwidth must be positive")


@dataclass(frozen=True)
class InterChipConfig:
    """Chip-to-chip link used by multi-chip sharding (die-to-die SerDes).

    When a model is pipeline-sharded across several chips
    (``docs/ARCHITECTURE.md``, "Multi-chip sharding"), boundary
    activation tensors cross this link.  Each ordered chip pair has a
    dedicated point-to-point link; transfers on the same link serialise.
    A transfer of ``n`` bytes occupies its link for
    ``ceil(n / bandwidth_bytes_per_cycle)`` cycles and arrives
    ``latency_cycles`` after its last flit leaves.
    """

    bandwidth_bytes_per_cycle: int = 16
    latency_cycles: int = 500
    energy_pj_per_byte: float = 12.0

    def transfer_cycles(self, nbytes: int) -> int:
        """Latency from departure to full arrival of an ``nbytes`` message."""
        return self.latency_cycles + ceil_div(
            max(1, nbytes), self.bandwidth_bytes_per_cycle
        )

    def serialization_cycles(self, nbytes: int) -> int:
        """Cycles the link is occupied by an ``nbytes`` message."""
        return ceil_div(max(1, nbytes), self.bandwidth_bytes_per_cycle)

    def validate(self) -> None:
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ConfigError("inter-chip bandwidth must be positive")
        if self.latency_cycles < 0:
            raise ConfigError("inter-chip latency must be non-negative")
        if not math.isfinite(self.energy_pj_per_byte) or (
            self.energy_pj_per_byte < 0
        ):
            raise ConfigError("inter-chip energy must be finite and non-negative")


@dataclass(frozen=True)
class ChipConfig:
    """Chip-level organisation: a mesh of cores plus global memory."""

    num_cores: int = 64
    core: CoreConfig = field(default_factory=CoreConfig)
    noc: NoCConfig = field(default_factory=NoCConfig)
    global_memory: GlobalMemoryConfig = field(default_factory=GlobalMemoryConfig)
    clock_mhz: int = 1000

    @property
    def mesh_dims(self) -> Tuple[int, int]:
        """(rows, cols) of the smallest near-square mesh holding all cores."""
        cols = int(math.ceil(math.sqrt(self.num_cores)))
        rows = ceil_div(self.num_cores, cols)
        return rows, cols

    @property
    def cycle_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1000.0 / self.clock_mhz

    @property
    def total_cim_capacity_bytes(self) -> int:
        return self.num_cores * self.core.cim_capacity_bytes

    def core_position(self, core_id: int) -> Tuple[int, int]:
        """Mesh (row, col) of a core id (row-major placement)."""
        if not 0 <= core_id < self.num_cores:
            raise ConfigError(f"core id {core_id} out of range")
        _, cols = self.mesh_dims
        return core_id // cols, core_id % cols

    def hop_distance(self, src_core: int, dst_core: int) -> int:
        """Manhattan hop count between two cores in the mesh."""
        r0, c0 = self.core_position(src_core)
        r1, c1 = self.core_position(dst_core)
        return abs(r0 - r1) + abs(c0 - c1)

    def validate(self) -> None:
        if not 1 <= self.num_cores <= MAX_CORES:
            raise ConfigError(
                f"chip.num_cores must be in [1, {MAX_CORES}] (the "
                f"modelling limit), got {self.num_cores}"
            )
        if self.clock_mhz <= 0:
            raise ConfigError("clock frequency must be positive")
        self.core.validate()
        self.noc.validate()
        self.global_memory.validate()


@dataclass(frozen=True)
class ArchConfig:
    """A complete architecture point: chip organisation + energy model.

    This is the object the compiler and simulator consume, and the unit of
    design-space exploration sweeps.
    """

    chip: ChipConfig = field(default_factory=ChipConfig)
    energy: "EnergyConfig" = None  # type: ignore[assignment]
    interchip: InterChipConfig = field(default_factory=InterChipConfig)

    def __post_init__(self):
        if self.energy is None:
            from repro.config.energy import EnergyConfig

            object.__setattr__(self, "energy", EnergyConfig())

    def validate(self) -> None:
        self.chip.validate()
        self.energy.validate()
        self.interchip.validate()

    # Convenience pass-throughs used throughout the compiler --------------
    @property
    def num_cores(self) -> int:
        return self.chip.num_cores

    @property
    def mg_tile_rows(self) -> int:
        return self.chip.core.cim_unit.macro_group.tile_rows

    @property
    def mg_tile_cols(self) -> int:
        return self.chip.core.cim_unit.macro_group.tile_cols

    @property
    def mgs_per_core(self) -> int:
        return self.chip.core.cim_unit.num_macro_groups

    @property
    def core_cim_capacity_bytes(self) -> int:
        return self.chip.core.cim_capacity_bytes


def replace(config, **changes):
    """``dataclasses.replace`` re-export so callers need not import it."""
    return dataclasses.replace(config, **changes)
