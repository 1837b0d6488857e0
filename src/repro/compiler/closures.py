"""Dependency-closure enumeration with bitmask state compression (Alg. 1).

A *dependency closure* is "a self-contained set of operators whose
dependencies are fully enclosed within the set" -- an order ideal (downward
closed set) of the condensed-graph DAG.  Closures are encoded as Python
integers used as bitmasks (bit i set = node i in the closure), which is the
paper's state-compression optimisation: candidate partitions are derived by
set *difference* of two nested closures, and the subset test is a single
``&`` operation.
"""

from collections import deque
from typing import List, Sequence, Set

from repro.errors import CompileError
from repro.utils.bits import popcount

#: Default cap on enumerated closures before falling back to prefixes.
DEFAULT_CLOSURE_LIMIT = 2048


def closure_masks(
    deps: Sequence[Set[int]], limit: int = DEFAULT_CLOSURE_LIMIT
) -> List[int]:
    """Enumerate every dependency closure of a DAG, as bitmasks.

    ``deps[i]`` is the set of direct predecessors of node ``i`` (indices
    must be topologically ordered: every dependency has a smaller index).
    The result is sorted by population count then value, so dynamic
    programming can scan it in construction order.  If the DAG has more
    than ``limit`` closures, the enumeration falls back to the ``n + 1``
    prefix closures of the linearization (always valid, possibly
    suboptimal) -- wide graphs degrade gracefully instead of exploding.
    """
    n = len(deps)
    for i, d in enumerate(deps):
        if any(j >= i for j in d):
            raise CompileError("deps must follow a topological ordering")
    dep_masks = [0] * n
    for i, d in enumerate(deps):
        for j in d:
            dep_masks[i] |= 1 << j

    seen = {0}
    queue = deque([0])
    overflow = False
    while queue:
        mask = queue.popleft()
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            if dep_masks[i] & ~mask:
                continue  # some dependency of i is outside the closure
            extended = mask | bit
            if extended not in seen:
                seen.add(extended)
                queue.append(extended)
                if len(seen) > limit:
                    overflow = True
                    queue.clear()
                    break
        if overflow:
            break

    if overflow:
        return prefix_masks(n)
    return sorted(seen, key=lambda m: (popcount(m), m))


def prefix_masks(n: int) -> List[int]:
    """The prefix closures of a topological linearization."""
    return [(1 << k) - 1 for k in range(n + 1)]


def mask_nodes(mask: int) -> List[int]:
    """Node indices contained in a bitmask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
