"""Exception hierarchy for the CIMFlow reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch framework failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all framework errors."""


class ConfigError(ReproError):
    """An architecture or energy configuration is invalid."""


class ISAError(ReproError):
    """An instruction is malformed, unknown, or cannot be encoded/decoded."""


class GraphError(ReproError):
    """A computation graph is malformed (bad shapes, cycles, unknown ops)."""


class CompileError(ReproError):
    """The compiler could not lower the workload to the target."""


class CapacityError(CompileError):
    """A workload (or partition stage) does not fit the CIM capacity."""


class ArtifactError(ReproError):
    """A compiled artifact is corrupt, incompatible, or mismatched."""


class FaultError(ReproError):
    """A fault plan or retry policy is malformed or cannot be loaded."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class ValidationError(ReproError):
    """Functional validation failed (simulated output != golden output)."""
