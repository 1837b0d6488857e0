"""The CIMFlow cycle-level simulator (Sec. III-D) and golden model.

Core execution runs on the hot-block engine
(:mod:`repro.sim.blockengine`) by default; set ``REPRO_SIM_ENGINE=interp``
to select the legacy per-instruction interpreter.  Both are bit-identical
(see ``docs/ARCHITECTURE.md``, "The hot-block execution engine").
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "repro.sim.chip": ("ChipSimulator", "default_engine"),
    "repro.sim.energy": ("EnergyAccountant",),
    "repro.sim.functional": ("execute_graph", "golden_outputs", "random_input"),
    "repro.sim.memory": ("MemorySystem",),
    "repro.sim.multichip": (
        "MultiChipReport", "MultiChipSimulator", "pipeline_schedule",
    ),
    "repro.sim.noc": ("NoC",),
    "repro.sim.report": ("SimulationReport",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:  # the table above, spelled out for static tools
    from repro.sim.chip import ChipSimulator, default_engine
    from repro.sim.energy import EnergyAccountant
    from repro.sim.functional import execute_graph, golden_outputs, random_input
    from repro.sim.memory import MemorySystem
    from repro.sim.multichip import (
        MultiChipReport,
        MultiChipSimulator,
        pipeline_schedule,
    )
    from repro.sim.noc import NoC
    from repro.sim.report import SimulationReport

__all__ = [
    "ChipSimulator",
    "MultiChipSimulator",
    "MultiChipReport",
    "pipeline_schedule",
    "SimulationReport",
    "MemorySystem",
    "NoC",
    "EnergyAccountant",
    "default_engine",
    "execute_graph",
    "golden_outputs",
    "random_input",
]
