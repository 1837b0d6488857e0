"""Mesh Network-on-Chip model with XY routing and link contention.

Messages are modelled at message granularity (Noxim-style costs, standing
in for the paper's flit-level Noxim runs): a transfer serialises onto each
directed link of its XY route for ``ceil(bytes / flit)`` cycles, links
remember when they free up, and later messages queue behind earlier ones.  Global-memory traffic is
routed to a memory port at mesh node (0, 0).

Link reservation is exposed in two layers:

- :meth:`NoC.reserve` is the *pure* reservation chain -- given the
  current per-link free times it returns where one message's head
  passes each hop and the new free times, without mutating anything.
- :meth:`NoC.transfer` commits one reservation (the interpreter path),
  and :meth:`NoC.replay_affine` commits a whole affine *window* of
  reservations iteration-major (the batched-loop path): a short pure
  probe establishes the steady per-iteration advance of every touched
  link, the remaining iterations are advanced arithmetically, and any
  window that cannot be *proven* steady (a cross-core contention
  transient still draining) is refused without side effects so the
  caller falls back to stepped execution.
"""

from typing import Dict, List, Optional, Tuple

from repro.config import ArchConfig
from repro.utils import ceil_div

#: Sentinel node id for the global-memory port (mesh corner 0,0).
GLOBAL_PORT = -1


class NoC:
    """XY-routed mesh with per-link reservation."""

    def __init__(self, arch: ArchConfig):
        self.arch = arch
        self.flit_bytes = arch.chip.noc.flit_bytes
        self.hop_latency = arch.chip.noc.hop_latency
        self.router_latency = arch.chip.noc.router_latency
        self.rows, self.cols = arch.chip.mesh_dims
        self._link_free: Dict[Tuple[int, int, int, int], int] = {}
        self.total_bytes = 0
        self.total_byte_hops = 0
        self.busy_cycles = 0
        #: When a list, every committed transfer appends
        #: ``(src, dst, nbytes, start)``; the block engine turns this on
        #: while warming up a candidate loop to learn the loop's affine
        #: transaction pattern.
        self.trace: Optional[List[Tuple[int, int, int, int]]] = None
        #: When a dict, every committed transfer appends one
        #: ``(head_cycle, free_until, nbytes, src, dst)`` record per link
        #: of its route (plus a route-less record under the ``()`` key
        #: for port-local messages).  Capturing a timeline disables
        #: batched NoC replay so the event list stays complete.
        self.timeline: Optional[Dict[Tuple, List[Tuple]]] = None
        self._pos_cache: Dict[int, Tuple[int, int]] = {GLOBAL_PORT: (0, 0)}
        self._route_cache: Dict[Tuple[int, int], List] = {}

    def _position(self, node: int) -> Tuple[int, int]:
        pos = self._pos_cache.get(node)
        if pos is None:
            pos = self.arch.chip.core_position(node)
            self._pos_cache[node] = pos
        return pos

    def route(self, src: int, dst: int) -> List[Tuple[int, int, int, int]]:
        """Directed links of the XY route (X first, then Y); memoised."""
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        r0, c0 = self._position(src)
        r1, c1 = self._position(dst)
        links = []
        r, c = r0, c0
        while c != c1:
            step = 1 if c1 > c else -1
            links.append((r, c, r, c + step))
            c += step
        while r != r1:
            step = 1 if r1 > r else -1
            links.append((r, c, r + step, c))
            r += step
        self._route_cache[(src, dst)] = links
        return links

    def hops(self, src: int, dst: int) -> int:
        r0, c0 = self._position(src)
        r1, c1 = self._position(dst)
        return abs(r0 - r1) + abs(c0 - c1)

    def serialization(self, nbytes: int) -> int:
        """Cycles one message holds each link of its route."""
        return ceil_div(max(1, nbytes), self.flit_bytes)

    # -- pure reservation arithmetic -----------------------------------------

    def reserve(self, free: List[int], start: int, serialization: int):
        """Chain one message over links with the given free times.  Pure.

        Returns ``(head_exit, new_free, dominated)``: the cycle the head
        leaves the last link (the arrival for a non-empty route), the
        per-link free times after this reservation, and whether *every*
        hop queued behind a busy link (``free >= incoming head``) -- the
        regime in which the route's timing is governed by its own prior
        reservations rather than by the message's start time.
        """
        time = start + self.router_latency
        h = self.hop_latency
        dominated = True
        new_free = []
        for f in free:
            if f < time:
                dominated = False
            time = (f if f > time else time) + h
            new_free.append(time + serialization - 1)
        return time, new_free, dominated

    # -- committing paths ----------------------------------------------------

    def transfer(self, src: int, dst: int, nbytes: int, start: int) -> int:
        """Schedule a message; returns its arrival cycle at ``dst``.

        The message head leaves at ``start`` after the router pipeline;
        each link is held for the serialisation time of the whole message
        (wormhole at message granularity).
        """
        serialization = self.serialization(nbytes)
        route = self.route(src, dst)
        free = [self._link_free.get(link, 0) for link in route]
        head_exit, new_free, _ = self.reserve(free, start, serialization)
        for link, f in zip(route, new_free):
            self._link_free[link] = f
        arrival = head_exit + serialization - 1
        hops = self.hops(src, dst)
        self.total_bytes += nbytes
        self.total_byte_hops += nbytes * hops
        self.busy_cycles += serialization * max(1, hops)
        if self.trace is not None:
            self.trace.append((src, dst, nbytes, start))
        if self.timeline is not None:
            if route:
                time = start + self.router_latency
                for link, f_old in zip(route, free):
                    time = max(time, f_old) + self.hop_latency
                    self.timeline.setdefault(link, []).append(
                        (time, time + serialization - 1, nbytes, src, dst)
                    )
            else:
                head = start + self.router_latency
                self.timeline.setdefault((), []).append(
                    (head, head + serialization - 1, nbytes, src, dst)
                )
        return max(arrival, start)

    def replay_affine(self, txns, step: int, count: int,
                      probe_limit: int = 8) -> bool:
        """Commit an affine window of transfers iteration-major.

        ``txns`` is the ordered transaction list of one loop iteration,
        ``[(src, dst, nbytes, start), ...]`` with the starts of the *last
        executed* iteration; the replay commits ``count`` further
        iterations whose starts advance by ``step`` per iteration.  The
        result is bit-identical to issuing every ``transfer`` in stepped
        order.  Returns ``False`` -- mutating nothing -- when steadiness
        cannot be proven within ``probe_limit`` probed iterations (e.g. a
        contention window against another core's reservations is still
        draining), or when two distinct routes of the window share a
        link; callers fall back to stepped execution.

        Soundness of the arithmetic advance (the link state is a max-plus
        system, so two equal deltas are *not* blindly extrapolated):

        - if one probed iteration advances every touched link's free time
          by exactly ``step``, the per-iteration reservation map ``F' =
          Psi(F, s)`` (monotone, shift-commuting) satisfies ``F_{i+1} =
          F_i + step`` forever by induction;
        - if one probed iteration is *dominated* (every hop of every
          message queued behind the link's own prior reservation) and
          advances every link uniformly by ``D >= step``, the system is
          autonomous: frees grow by exactly ``D`` per iteration while
          head arrivals grow by ``step``, so every margin is
          non-decreasing and the regime persists forever;
        - otherwise keep probing; a window fully probed within the limit
          is exact by construction, anything else is refused.
        """
        if self.timeline is not None or count <= 0 or not txns:
            return count <= 0
        # Group the iteration's messages by route; distinct routes must
        # not share a directed link, otherwise their interleaved
        # reservations couple and the per-route probe is unsound.
        groups: Dict[Tuple, List[Tuple[int, int, int]]] = {}
        seen_links: Dict[Tuple[int, int, int, int], Tuple] = {}
        for src, dst, nbytes, start in txns:
            route = tuple(self.route(src, dst))
            if route not in groups:
                for link in route:
                    owner = seen_links.get(link)
                    if owner is not None and owner != route:
                        return False
                    seen_links[link] = route
                groups[route] = []
            groups[route].append((self.serialization(nbytes), start))
        results = []
        for route, items in groups.items():
            if not route:
                continue  # port-local message: no links to reserve
            free = [self._link_free.get(link, 0) for link in route]
            it = 0
            while True:
                it += 1
                prev = free
                dominated_all = True
                for serialization, start0 in items:
                    _, free, dom = self.reserve(
                        free, start0 + it * step, serialization
                    )
                    dominated_all = dominated_all and dom
                if it == count:
                    break
                d0 = free[0] - prev[0]
                uniform = all(
                    a - b == d0 for a, b in zip(free, prev)
                )
                if uniform and (
                    d0 == step or (dominated_all and d0 >= step)
                ):
                    adv = (count - it) * d0
                    free = [f + adv for f in free]
                    break
                if it >= probe_limit:
                    return False
            results.append((route, free))
        # Commit: link state, then the closed-form counters.
        for route, free in results:
            for link, f in zip(route, free):
                self._link_free[link] = f
        for src, dst, nbytes, _ in txns:
            hops = self.hops(src, dst)
            self.total_bytes += count * nbytes
            self.total_byte_hops += count * nbytes * hops
            self.busy_cycles += count * self.serialization(nbytes) * max(
                1, hops
            )
        return True

    def energy_pj(self, nbytes: int, src: int, dst: int) -> float:
        """Link + router traversal energy of one message.

        Charged per *flit*: a wider link toggles its full width for every
        flit, so short messages on wide links pay padding energy -- the
        effect behind the paper's observation that doubling flit size can
        cost energy without commensurate benefit (Fig. 6b).
        """
        hops = max(1, self.hops(src, dst))
        flits = ceil_div(max(1, nbytes), self.flit_bytes)
        return (
            flits * self.flit_bytes * hops
            * self.arch.energy.noc_pj_per_byte_per_hop
        )
