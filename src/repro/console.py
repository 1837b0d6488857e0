"""`repro watch`: the live operator console over the serving runtime.

Two halves, deliberately separable:

- :class:`ConsoleState` + :func:`console_snapshot` are **pure Python**:
  they fold the runtime's typed event stream
  (:mod:`repro.runtime`) into the operator tables -- per-shard
  utilisation, replica health, queue depth, rolling p50/p99 -- and dump
  them as JSON.  This is the ``repro watch --snapshot`` headless mode
  CI exercises, and the substrate the live app renders.
- :func:`run_watch_app` wraps the same state in a Textual
  ``DataTable`` dashboard (the gridworks-scada operator-console
  pattern).  Textual is an *optional* dependency: importing this
  module never requires it, and a missing install raises a
  :class:`~repro.errors.ConfigError` that points at ``--snapshot``.

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
    "run_watch_app",
    "snapshot_json",
]

#: Versioned so CI assertions against the snapshot shape fail loudly.
SNAPSHOT_SCHEMA = 1


class ConsoleState:
    """Fold the runtime event stream into the operator tables.

    Pure aggregation -- no asyncio, no rendering -- so the live app
    and the headless snapshot share one implementation byte for byte.
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
        """Account one runtime event (order = the emitted stream)."""
        if isinstance(event, RequestAdmitted):
            self.admitted += 1
            self.replica_in_flight[event.replica] += 1
            if self.first_release is None:
                self.first_release = event.release_cycle
            self.last_release = event.release_cycle
            self.now_cycle = max(self.now_cycle, event.release_cycle)
        elif isinstance(event, RequestCompleted):
            self.completed += 1
            self.replica_served[event.replica] += 1
            self.replica_in_flight[event.replica] = max(
                0, self.replica_in_flight[event.replica] - 1
            )
            self.replica_finishes[event.replica].append(event.finish_cycle)
            self._latencies.append(event.latency_cycles)
            self.now_cycle = max(self.now_cycle, event.release_cycle)
            self.horizon_cycle = max(self.horizon_cycle, event.finish_cycle)
        elif isinstance(event, RequestDropped):
            self.dropped += 1
            self.drop_reasons[event.reason] = (
                self.drop_reasons.get(event.reason, 0) + 1
            )
            self.now_cycle = max(self.now_cycle, event.release_cycle)
        elif isinstance(event, ReplicaStateChanged):
            self.replica_state[event.replica] = event.state
            if event.state == "crashed":
                # In-flight work on a crashed replica is re-enqueued by
                # the failover engine; it is no longer this queue's.
                self.replica_in_flight[event.replica] = 0

    def observe_all(self, events) -> None:
        for event in events:
            self.observe(event)

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
        from repro.serve import latency_percentile

        recent = list(self._latencies)
        throughput = None
        if self.cycle_ns and self.horizon_cycle and self.completed:
            throughput = self.completed / (
                self.horizon_cycle * self.cycle_ns / 1e9
            )
        return {
            "window": self.window,
            "samples": len(recent),
            "rolling_p50_cycles": (
                latency_percentile(recent, 50) if recent else None
            ),
            "rolling_p99_cycles": (
                latency_percentile(recent, 99) if recent else None
            ),
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

    Folds the handle's recorded event stream through a fresh
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
    state.observe_all(handle.events)

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
        final = {
            "batch": report.batch,
            "makespan_cycles": report.makespan_cycles,
            "p50_latency_cycles": report.p50_latency_cycles,
            "p99_latency_cycles": report.p99_latency_cycles,
        }
        if hasattr(report, "dropped_indices"):
            final["completed"] = report.completed
            final["dropped"] = report.dropped

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
    offline-replayed, cross-checked result).
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
    """``repro watch --snapshot``: serve the script, return the tables.

    Pure Python (no Textual): runs :func:`drive_session` on a private
    event loop and folds the session into :func:`console_snapshot`.
    """
    import asyncio

    handle = asyncio.run(drive_session(
        server, releases, seed=seed, validate=validate, faults=faults,
        retry=retry,
    ))
    return console_snapshot(handle, window=window)


# ---------------------------------------------------------------------------
# The live Textual app (optional dependency)
# ---------------------------------------------------------------------------

def run_watch_app(
    server,
    releases: List[int],
    *,
    seed: int = 0,
    validate: bool = True,
    faults=None,
    retry=None,
    window: int = 64,
    pace_s: float = 0.2,
) -> Dict:
    """Serve ``releases`` live and render the console; returns a snapshot.

    Opens a :class:`~repro.runtime.VirtualClock` session on ``server``,
    paces one submission per ``pace_s`` wall seconds (advancing the
    virtual clock to each scripted release), and re-renders the
    ``DataTable`` dashboard on every runtime event.  Requires the
    optional ``textual`` package; without it a
    :class:`~repro.errors.ConfigError` points at the headless
    ``repro watch --snapshot`` mode, which needs nothing beyond the
    standard library.
    """
    try:
        from textual.app import App
        from textual.widgets import DataTable, Footer, Header, Static
    except ImportError as exc:
        raise ConfigError(
            "the live console needs the optional 'textual' package "
            "(pip install textual); for a dependency-free view use "
            "'repro watch --snapshot'"
        ) from exc

    import asyncio

    from repro.runtime import VirtualClock, serve_forever

    outcome: Dict = {}

    class WatchApp(App):
        TITLE = "repro watch"
        BINDINGS = [("q", "quit", "Quit")]

        def compose(self):
            yield Header(show_clock=True)
            yield Static("", id="counts")
            yield DataTable(id="shards", zebra_stripes=True)
            yield DataTable(id="replicas", zebra_stripes=True)
            yield DataTable(id="latency", zebra_stripes=True)
            yield Footer()

        async def on_mount(self) -> None:
            self.query_one("#shards", DataTable).add_columns(
                "shard", "service cycles", "busy cycles", "utilization",
                "model utilization",
            )
            self.query_one("#replicas", DataTable).add_columns(
                "replica", "state", "served", "queue depth",
            )
            self.query_one("#latency", DataTable).add_columns(
                "window", "rolling p50", "rolling p99", "throughput inf/s",
            )
            self._session = asyncio.ensure_future(self._serve())

        async def _serve(self) -> None:
            clock = VirtualClock()
            handle = await serve_forever(
                server, clock=clock, seed=seed, validate=validate,
                faults=faults, retry=retry,
            )
            state = ConsoleState(
                handle.shard_row, handle.num_replicas, window=window,
                cycle_ns=handle.server.arch.chip.cycle_ns,
            )
            stream = handle.subscribe()
            state.observe_all(handle.events)
            for release in releases:
                clock.advance_to(release)
                await handle.submit()
                while not stream.empty():
                    state.observe(stream.get_nowait())
                self._render(state)
                await asyncio.sleep(pace_s)
            # Drain resolves every still-pending future (a faulted
            # session may hold retries back until the stream closes).
            await handle.drain()
            while not stream.empty():
                event = stream.get_nowait()
                if event is not None:
                    state.observe(event)
            self._render(state)
            outcome.update(console_snapshot(handle, window=window))
            self.exit()

        def _render(self, state: ConsoleState) -> None:
            counts = state.counts()
            self.query_one("#counts", Static).update(
                f"cycle {state.now_cycle} · admitted {counts['admitted']} "
                f"· completed {counts['completed']} "
                f"· dropped {counts['dropped']} "
                f"· in flight {counts['in_flight']}"
            )
            from repro.sim.fastmodel import steady_state_utilization

            interval = state.arrival_interval_cycles()
            model = (
                steady_state_utilization(
                    state.shard_row, server._service_profile()[1],
                    server.arch.interchip, interval,
                )
                if interval is not None
                else [None] * len(state.shard_row)
            )
            shards = self.query_one("#shards", DataTable)
            shards.clear()
            for row, m in zip(state.shard_table(), model):
                shards.add_row(
                    str(row["shard"]), str(row["service_cycles"]),
                    str(row["busy_cycles"]), f"{row['utilization']:.4f}",
                    "-" if m is None else f"{m:.4f}",
                )
            replicas = self.query_one("#replicas", DataTable)
            replicas.clear()
            for row in state.replica_table():
                replicas.add_row(
                    str(row["replica"]), row["state"], str(row["served"]),
                    str(row["queue_depth"]),
                )
            latency = self.query_one("#latency", DataTable)
            latency.clear()
            lat = state.latency_table()
            latency.add_row(
                f"{lat['samples']}/{lat['window']}",
                str(lat["rolling_p50_cycles"]),
                str(lat["rolling_p99_cycles"]),
                (
                    f"{lat['throughput_inf_per_s']:.1f}"
                    if lat["throughput_inf_per_s"] else "-"
                ),
            )

    WatchApp().run()
    if not outcome:
        raise ConfigError("the watch session ended before draining")
    return outcome


def snapshot_json(snapshot: Dict) -> str:
    """Canonical serialisation of a snapshot (stable key order)."""
    return json.dumps(snapshot, indent=2, sort_keys=True)
