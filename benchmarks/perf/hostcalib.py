"""Host calibration: seconds a fixed pure-Python kernel takes right now.

This sandbox's effective CPU speed drifts by +-20 % for seconds to
minutes at a time (a neighbour on the core, not the scheduler: child
CPU time moves with wall time).  run.py samples this kernel between
every timed phase and reports host time *normalised* to a reference
kernel time, which is what makes a 12-second run repeatable to a few
percent.  Measured on 70 alternating ``repro run`` / ``repro sweep``
iterations: raw per-run medians spread 6-9 %, normalised ones 3 %; a
NumPy kernel tracked the sweep worse (4-5 %) and would put a 32 MB floor
under every child's ``ru_maxrss`` (a child starts from its parent's
resident set), so the kernel is pure Python and imports nothing.
"""

import time

#: Kernel time on the reference host's quiet state; normalised seconds
#: are raw seconds x REFERENCE_S / (kernel time around the phase).
REFERENCE_S = 0.05


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(600000):
        total += (i * i) ^ (i >> 3)
    if total != 71999820240507936:
        raise RuntimeError("calibration kernel is broken")
    return time.perf_counter() - start


def samples(count: int = 3):
    return [kernel_seconds() for _ in range(count)]


if __name__ == "__main__":
    print(min(samples()))
