"""Arrival processes and nearest-rank latency percentiles.

When each submitted input becomes available (:class:`ArrivalProcess` and
its five forms) and how a latency series is ranked
(:func:`latency_percentiles`) are the serving law's two inputs that need
no compiler, simulator or array library.  They live here, apart from
:mod:`repro.serve`, so the sweep engine's one fleet step
(:func:`repro.sim.fastmodel.serve_fleet`, which
``explore._derive_report`` calls for every point) prices a sweep's
streams without importing the serving stack or NumPy.
:mod:`repro.serve` and the ``repro`` package re-export every public
name; only :meth:`PoissonArrivals.release_cycles` loads NumPy, when it
draws.
"""

import math
from typing import List, Sequence

from repro.errors import ConfigError


class ArrivalProcess:
    """When each submitted input becomes available to the system.

    Implementations return per-input *release cycles* (non-negative,
    served FIFO in submission order).  ``cycle_ns`` is the deployment's
    clock period, so rate-based processes can be specified in real-world
    inferences/second.
    """

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class BackToBack(ArrivalProcess):
    """Every input available at cycle 0 -- the batched special case."""

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        return [0] * n

    def describe(self) -> str:
        return "back-to-back"


class FixedInterval(ArrivalProcess):
    """Deterministic arrivals every ``interval_cycles`` cycles."""

    def __init__(self, interval_cycles: int):
        if interval_cycles < 0:
            raise ConfigError(
                f"arrival interval must be >= 0 cycles, got {interval_cycles}"
            )
        self.interval_cycles = int(interval_cycles)

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        return [i * self.interval_cycles for i in range(n)]

    def describe(self) -> str:
        return f"fixed-interval {self.interval_cycles} cycles"


def _checked_rate(inf_per_s: float) -> float:
    # NaN passes ``<= 0`` and inf prices as a zero gap: name both here.
    if not (math.isfinite(inf_per_s) and inf_per_s > 0):
        raise ConfigError(
            f"arrival rate must be a finite number > 0 inferences/s, "
            f"got {inf_per_s}"
        )
    return float(inf_per_s)


class FixedRate(ArrivalProcess):
    """Deterministic arrivals at ``inf_per_s`` inferences/second."""

    def __init__(self, inf_per_s: float):
        self.inf_per_s = _checked_rate(inf_per_s)

    def interval_cycles(self, cycle_ns: float) -> int:
        return max(1, int(round(1e9 / (self.inf_per_s * cycle_ns))))

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        step = self.interval_cycles(cycle_ns)
        return [i * step for i in range(n)]

    def describe(self) -> str:
        return f"fixed-rate {self.inf_per_s:g} inf/s"


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a mean ``inf_per_s`` rate.

    ``seed`` is caller-provided and mandatory: the draw is fully
    reproducible (NumPy ``default_rng``), so a serving experiment can be
    replayed bit-exactly.
    """

    def __init__(self, inf_per_s: float, seed: int):
        self.inf_per_s = _checked_rate(inf_per_s)
        if isinstance(seed, bool) or seed < 0:
            raise ConfigError(
                f"arrival seed must be an integer >= 0, got {seed!r}"
            )
        self.seed = int(seed)

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        import numpy as np  # the one draw in this module that needs it

        # ``cumsum`` accumulates float64 sequentially, exactly as a
        # running ``t += gap`` would, and ``rint`` rounds half to even
        # like ``round``: the same cycles as the scalar loop.  The
        # integral floats become Python ints, which cannot wrap.
        rng = np.random.default_rng(self.seed)
        mean_cycles = 1e9 / (self.inf_per_s * cycle_ns)
        gaps = rng.exponential(mean_cycles, size=n)
        return list(map(int, np.rint(np.cumsum(gaps)).tolist()))

    def describe(self) -> str:
        return f"poisson {self.inf_per_s:g} inf/s (seed {self.seed})"


class TraceArrivals(ArrivalProcess):
    """A recorded arrival trace: one release cycle per input.

    Release cycles must be non-decreasing: the queueing law admits
    inputs FIFO in submission order, so a trace whose entry ``i+1``
    releases *before* entry ``i`` describes a different arrival order
    than the one it would be served in.  Such a trace is rejected with
    :class:`~repro.errors.ConfigError` instead of silently serving the
    late release first-in-line; sort the recorded timestamps before
    constructing the trace.
    """

    def __init__(self, release_cycles: Sequence[int]):
        self.releases = [int(c) for c in release_cycles]
        if any(c < 0 for c in self.releases):
            raise ConfigError("trace release cycles must be >= 0")
        for i in range(1, len(self.releases)):
            if self.releases[i] < self.releases[i - 1]:
                raise ConfigError(
                    f"trace release cycles must be non-decreasing "
                    f"(inputs are served FIFO in submission order): "
                    f"entry {i} releases at {self.releases[i]}, after "
                    f"entry {i - 1} at {self.releases[i - 1]}; sort the "
                    f"trace first"
                )

    def __len__(self) -> int:
        return len(self.releases)

    def release_cycles(self, n: int, cycle_ns: float) -> List[int]:
        if n != len(self.releases):
            raise ConfigError(
                f"trace has {len(self.releases)} arrivals but {n} inputs "
                f"were submitted"
            )
        return list(self.releases)

    def describe(self) -> str:
        return f"trace[{len(self.releases)}]"


def check_batch(batch: int, minimum: int = 1) -> None:
    """The one input-count rule of a submission (an empty *trace* is
    the only way to submit less)."""
    if batch < minimum:
        raise ConfigError(f"batch must be >= {minimum}, got {batch}")


def _nearest_rank(ordered: Sequence[int], pct: float) -> int:
    """Nearest-rank percentile of an already-sorted, non-empty series."""
    if not 0.0 < pct <= 100.0:
        raise ConfigError(
            f"percentile must be in (0, 100], got {pct!r}"
        )
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return int(ordered[min(rank, len(ordered)) - 1])


def latency_percentiles(
    latencies: Sequence[int], pcts: Sequence[float]
) -> List[int]:
    """Nearest-rank percentiles (deterministic on integer cycle counts),
    all from one sort of ``latencies``.

    Each of ``pcts`` must lie in ``(0, 100]``: the 0th percentile is
    undefined under the nearest-rank definition (there is no rank 0) and
    anything above 100 would silently clamp to the maximum, so both are
    rejected with :class:`~repro.errors.ConfigError`.
    """
    ordered = sorted(latencies) or [0]
    return [_nearest_rank(ordered, pct) for pct in pcts]
