"""The simulated memory system: core-local scratchpads + global memory.

Addresses follow the unified address space of the ISA: ``[0, local_size)``
is the issuing core's local memory; ``[GLOBAL_BASE, ...)`` is the shared
global memory.  All data is stored as int8 numpy arrays; multi-byte views
(int32 accumulators) are taken on demand.

Global memory is two segments.  The compiler's bump allocator places every
model input and spilled activation before every weight tile and bias
(:func:`repro.compiler.plan.layout_global_memory`), so offsets ``[0, A)``
are the run's *activation window* -- owned by this memory system and
writable -- and ``[A, end)`` is the compiled image's *parameter segment*,
borrowed as a read-only view: every chip simulating one compiled model
reads the image's bytes in place, never a copy of them.  A write into the
parameter segment raises :class:`SimulationError` (it would corrupt the
weights every later input reads).  A chip given no split -- a
hand-written program's image -- owns all of it: ``A = len(image)``.
"""

from typing import Optional, Tuple

import numpy as np

from repro.config import ArchConfig
from repro.config.arch import GLOBAL_BASE
from repro.errors import SimulationError


class MemorySystem:
    """Backing storage for every core's scratchpad and the global memory."""

    def __init__(
        self,
        arch: ArchConfig,
        image: Optional[np.ndarray] = None,
        activation_bytes: Optional[int] = None,
    ):
        self.arch = arch
        self.local_size = arch.chip.core.local_memory.size_bytes
        self.locals = [
            np.zeros(self.local_size, dtype=np.int8)
            for _ in range(arch.chip.num_cores)
        ]
        if image is None:
            # No compiled image: an empty window of the configured size.
            params = np.zeros(0, dtype=np.int8)
            self.activations = np.zeros(
                max(1, arch.chip.global_memory.size_bytes), dtype=np.int8
            )
        else:
            # The image may exceed the configured global capacity: the
            # surplus models the off-chip backing store behind the same
            # port.
            data = image.view(np.int8).reshape(-1)
            split = len(data) if activation_bytes is None else (
                min(activation_bytes, len(data))
            )
            self.activations = data[:split].copy()
            params = data[split:]
        #: ``A``: global offsets below it are the owned activation window.
        self.activation_bytes = len(self.activations)
        #: The borrowed, read-only parameter segment ``[A, global_size)``.
        self.parameters = params.view()
        self.parameters.flags.writeable = False
        self.global_size = self.activation_bytes + len(self.parameters)

    def segment(self, offset: int, end: int,
                write: bool = False) -> Optional[Tuple[np.ndarray, int]]:
        """``(array, first global offset)`` of the segment holding global
        ``[offset, end)``, or None when no one segment may serve it: the
        region leaves global memory, straddles ``A``, or is a write into
        the parameters."""
        a = self.activation_bytes
        if 0 <= offset and end <= a:
            return self.activations, 0
        if not write and a <= offset and end <= self.global_size:
            return self.parameters, a
        return None

    def _global(self, offset: int, nbytes: int, write: bool,
                core_id: Optional[int] = None) -> Tuple[np.ndarray, int]:
        """The backing array and index of global ``[offset, offset +
        nbytes)``; raises :class:`SimulationError` naming the window."""
        end = offset + nbytes
        found = self.segment(offset, end, write)
        if found is not None:
            return found[0], offset - found[1]
        who = "host" if core_id is None else f"core {core_id}: global"
        a, size = self.activation_bytes, self.global_size
        if not (0 <= offset and end <= size):
            problem = f"outside global memory [0, {size})"
        elif offset < a < end:
            problem = (
                f"straddles the activation window [0, {a}) and the "
                f"read-only parameter segment [{a}, {size})"
            )
        else:
            problem = f"writes the read-only parameter segment [{a}, {size})"
        raise SimulationError(f"{who} access [{offset}, {end}) {problem}")

    def resolve(self, core_id: int, addr: int, nbytes: int,
                write: bool = False) -> Tuple[np.ndarray, int]:
        """The backing array and index of ``[addr, addr + nbytes)`` as
        ``core_id`` addresses it; raises :class:`SimulationError` for a
        range no one array may serve."""
        if addr >= GLOBAL_BASE:
            return self._global(addr - GLOBAL_BASE, nbytes, write, core_id)
        if addr < 0 or addr + nbytes > self.local_size:
            raise SimulationError(
                f"core {core_id}: local access [{addr}, {addr + nbytes}) "
                f"outside scratchpad of {self.local_size} bytes"
            )
        return self.locals[core_id], addr

    def read(self, core_id: int, addr: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` as int8 (copy)."""
        backing, offset = self.resolve(core_id, addr, nbytes)
        return backing[offset:offset + nbytes].copy()

    def write(self, core_id: int, addr: int, data: np.ndarray) -> None:
        """Write int8 bytes."""
        data = np.ascontiguousarray(data, dtype=np.int8).reshape(-1)
        backing, offset = self.resolve(core_id, addr, len(data), True)
        backing[offset:offset + len(data)] = data

    def read_i32(self, core_id: int, addr: int, count: int) -> np.ndarray:
        raw = self.read(core_id, addr, 4 * count)
        return raw.view(np.int32).copy()

    def write_i32(self, core_id: int, addr: int, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.int32).reshape(-1)
        self.write(core_id, addr, data.view(np.int8))

    def read_word(self, core_id: int, addr: int) -> int:
        return int(self.read_i32(core_id, addr, 1)[0])

    def write_word(self, core_id: int, addr: int, value: int) -> None:
        self.write_i32(
            core_id, addr, np.array([value], dtype=np.int64).astype(np.int32)
        )

    def write_global(self, addr: int, data: np.ndarray) -> None:
        """Host-side write (e.g. the model input) into the activation window."""
        data = np.ascontiguousarray(data, dtype=np.int8).reshape(-1)
        backing, offset = self._global(addr - GLOBAL_BASE, len(data), True)
        backing[offset:offset + len(data)] = data

    def read_global(self, addr: int, nbytes: int) -> np.ndarray:
        """Host-side read (e.g. fetching outputs after simulation)."""
        backing, offset = self._global(addr - GLOBAL_BASE, nbytes, False)
        return backing[offset:offset + nbytes].copy()
