"""`repro watch`: the live operator console over the serving runtime.

:class:`ConsoleState` + :func:`console_snapshot` fold the runtime's typed
event stream (:mod:`repro.runtime`) into the operator tables -- per-shard
utilisation, replica health, queue depth, rolling p50/p99 -- and dump
them as JSON: what ``repro watch`` prints (``--snapshot FILE`` writes it
to a file).  Pure Python, standard library only.

The shard table carries the model-vs-measured cross-check: next to the
utilisation measured from completed requests it prints the closed-form
:func:`repro.sim.fastmodel.steady_state_utilization` at the observed
arrival interval, so an operator can see at a glance whether the live
session tracks the analytical steady state.
"""

import json
from collections import deque
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.runtime import (
    ReplicaStateChanged,
    RequestAdmitted,
    RequestCompleted,
    RequestDropped,
    ServerHandle,
)

__all__ = [
    "ConsoleState",
    "console_snapshot",
    "drive_session",
    "headless_watch",
    "snapshot_json",
]

#: Versioned so CI assertions against the snapshot shape fail loudly.
SNAPSHOT_SCHEMA = 1


class ConsoleState:
    """Fold the runtime event stream into the operator tables.

    Pure aggregation -- no asyncio, no rendering.
    ``window`` bounds the rolling latency percentiles (a live console
    shows *recent* tail latency, not the all-time distribution).
    """

    def __init__(
        self,
        shard_row: List[int],
        num_replicas: int,
        *,
        window: int = 64,
        cycle_ns: Optional[float] = None,
    ):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.shard_row = list(shard_row)
        self.num_replicas = int(num_replicas)
        self.window = int(window)
        self.cycle_ns = cycle_ns
        #: The arrival frontier: latest release cycle seen.  Queue
        #: depths are measured here (how much admitted work is still
        #: ahead of the newest request).
        self.now_cycle = 0
        #: The work frontier: latest promised finish cycle.  Utilisation
        #: and throughput are measured over this horizon, because the
        #: runtime's RequestCompleted events are cycle-accurate
        #: *promises* that may land past the arrival frontier.
        self.horizon_cycle = 0
        self.admitted = 0
        self.completed = 0
        self.dropped = 0
        self.first_release: Optional[int] = None
        self.last_release: Optional[int] = None
        self.drop_reasons: Dict[str, int] = {}
        self.replica_state = ["up"] * self.num_replicas
        self.replica_served = [0] * self.num_replicas
        self.replica_in_flight = [0] * self.num_replicas
        self.replica_finishes: List[deque] = [
            deque(maxlen=4096) for _ in range(self.num_replicas)
        ]
        self._latencies: deque = deque(maxlen=self.window)

    # -- event folding -------------------------------------------------------
    def observe(self, event) -> None:
        """Account one runtime event (order = the emitted stream).

        One lookup on the event's type picks its fold; events of any
        other type are ignored.
        """
        fold = self._FOLDS.get(type(event))
        if fold is not None:
            fold(self, event)

    def observe_all(self, events) -> None:
        for event in events:
            self.observe(event)

    def _admitted(self, event: RequestAdmitted) -> None:
        self.admitted += 1
        self.replica_in_flight[event.replica] += 1
        if self.first_release is None:
            self.first_release = event.release_cycle
        self.last_release = event.release_cycle
        self.now_cycle = max(self.now_cycle, event.release_cycle)

    def _completed(self, event: RequestCompleted) -> None:
        self.completed += 1
        self.replica_served[event.replica] += 1
        self.replica_in_flight[event.replica] = max(
            0, self.replica_in_flight[event.replica] - 1
        )
        self.replica_finishes[event.replica].append(event.finish_cycle)
        self._latencies.append(event.latency_cycles)
        self.now_cycle = max(self.now_cycle, event.release_cycle)
        self.horizon_cycle = max(self.horizon_cycle, event.finish_cycle)

    def _dropped(self, event: RequestDropped) -> None:
        self.dropped += 1
        self.drop_reasons[event.reason] = (
            self.drop_reasons.get(event.reason, 0) + 1
        )
        self.now_cycle = max(self.now_cycle, event.release_cycle)

    def _replica_changed(self, event: ReplicaStateChanged) -> None:
        self.replica_state[event.replica] = event.state
        if event.state == "crashed":
            # In-flight work on a crashed replica is re-enqueued onto
            # the survivors; it is no longer this queue's.
            self.replica_in_flight[event.replica] = 0

    _FOLDS = {
        RequestAdmitted: _admitted,
        RequestCompleted: _completed,
        RequestDropped: _dropped,
        ReplicaStateChanged: _replica_changed,
    }

    # -- tables --------------------------------------------------------------
    def queue_depth(self, replica: int) -> int:
        """Requests on ``replica`` still in service at ``now_cycle``."""
        backlog = sum(
            1 for f in self.replica_finishes[replica] if f > self.now_cycle
        )
        return backlog + self.replica_in_flight[replica]

    def arrival_interval_cycles(self) -> Optional[float]:
        """Mean observed inter-arrival interval (None before 2 arrivals)."""
        if (
            self.first_release is None
            or self.last_release is None
            or self.admitted < 2
        ):
            return None
        span = self.last_release - self.first_release
        return span / (self.admitted - 1)

    def shard_table(self) -> List[Dict]:
        """Measured utilisation per shard position, fleet-aggregated.

        Every completed request occupies shard ``k`` of its replica for
        ``shard_row[k]`` cycles; the denominator is the work horizon
        (latest promised finish) times the replica count, so a
        fully-loaded homogeneous fleet reads 1.0 on its bottleneck
        shard.
        """
        horizon = self.horizon_cycle * self.num_replicas
        rows = []
        for k, service in enumerate(self.shard_row):
            busy = self.completed * service
            rows.append({
                "shard": k,
                "service_cycles": service,
                "busy_cycles": busy,
                "utilization": round(busy / horizon, 4) if horizon else 0.0,
            })
        return rows

    def replica_table(self) -> List[Dict]:
        return [
            {
                "replica": r,
                "state": self.replica_state[r],
                "served": self.replica_served[r],
                "queue_depth": self.queue_depth(r),
            }
            for r in range(self.num_replicas)
        ]

    def latency_table(self) -> Dict:
        from repro.arrivals import latency_percentiles

        recent = list(self._latencies)
        p50, p99 = (
            latency_percentiles(recent, (50, 99)) if recent else (None, None)
        )
        throughput = None
        if self.cycle_ns and self.horizon_cycle and self.completed:
            throughput = self.completed / (
                self.horizon_cycle * self.cycle_ns / 1e9
            )
        return {
            "window": self.window,
            "samples": len(recent),
            "rolling_p50_cycles": p50,
            "rolling_p99_cycles": p99,
            "throughput_inf_per_s": throughput,
        }

    def counts(self) -> Dict:
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "in_flight": sum(self.replica_in_flight),
            "drop_reasons": dict(sorted(self.drop_reasons.items())),
        }


def console_snapshot(
    handle: ServerHandle, *, window: int = 64
) -> Dict:
    """The operator tables of a session as one JSON-able dict.

    Folds the handle's replayed event stream through a fresh
    :class:`ConsoleState`; deterministic for :class:`~repro.runtime.
    VirtualClock` sessions (same script, byte-identical snapshot).
    After :meth:`~repro.runtime.ServerHandle.drain` the snapshot also
    carries the final report's headline numbers under
    ``"final_report"`` -- the live view and the offline replay, side
    by side.
    """
    cycle_ns = handle.server.arch.chip.cycle_ns
    state = ConsoleState(
        handle.shard_row, handle.num_replicas, window=window,
        cycle_ns=cycle_ns,
    )
    state.observe_all(handle.iter_events())

    interval = state.arrival_interval_cycles()
    from repro.sim.fastmodel import steady_state_utilization
    from repro.sim.multichip import steady_state_interval

    bottleneck = steady_state_interval(
        handle.shard_row, handle.shard_edges, handle.link
    )
    model = {
        "steady_interval_cycles": bottleneck,
        "arrival_interval_cycles": interval,
        "utilization": (
            [
                round(u, 4)
                for u in steady_state_utilization(
                    handle.shard_row, handle.shard_edges, handle.link,
                    interval,
                )
            ]
            if interval is not None else None
        ),
    }

    final = None
    if handle.report is not None:
        report = handle.report
        p50, p99 = report._percentiles((50, 99))
        final = {
            "batch": report.batch,
            "makespan_cycles": report.makespan_cycles,
            "p50_latency_cycles": p50,
            "p99_latency_cycles": p99,
            "completed": report.completed,
            "dropped": report.dropped,
        }

    return {
        "schema": SNAPSHOT_SCHEMA,
        "policy": handle.policy,
        "replicas": handle.num_replicas,
        "now_cycle": state.now_cycle,
        "horizon_cycle": state.horizon_cycle,
        "counts": state.counts(),
        "shards": state.shard_table(),
        "replicas_table": state.replica_table(),
        "latency": state.latency_table(),
        "model": model,
        "final_report": final,
    }


async def drive_session(
    server,
    releases: List[int],
    *,
    seed: int = 0,
    validate: bool = True,
    faults=None,
    retry=None,
) -> ServerHandle:
    """Script ``releases`` through a virtual-clock session and drain it.

    The reference driver the headless snapshot and CI smoke share:
    advance a :class:`~repro.runtime.VirtualClock` to each release,
    submit, drain.  Returns the drained handle (its ``report`` is the
    offline path's result for the same trace).
    """
    from repro.runtime import VirtualClock, serve_forever

    clock = VirtualClock()
    handle = await serve_forever(
        server, clock=clock, seed=seed, validate=validate, faults=faults,
        retry=retry,
    )
    for release in releases:
        clock.advance_to(release)
        await handle.submit()
    await handle.drain()
    return handle


def headless_watch(
    server,
    releases: List[int],
    *,
    seed: int = 0,
    validate: bool = True,
    faults=None,
    retry=None,
    window: int = 64,
) -> Dict:
    """``repro watch``: serve the script, return the tables.

    Runs :func:`drive_session` on a private event loop and folds the
    session into :func:`console_snapshot`.
    """
    import asyncio

    handle = asyncio.run(drive_session(
        server, releases, seed=seed, validate=validate, faults=faults,
        retry=retry,
    ))
    return console_snapshot(handle, window=window)


def snapshot_json(snapshot: Dict) -> str:
    """Canonical serialisation of a snapshot (stable key order)."""
    return json.dumps(snapshot, indent=2, sort_keys=True)
