"""Async real-time serving runtime.

Every serving path below this module consumes a *precomputed* list of
release cycles (:class:`repro.serve.ArrivalProcess`); this one takes
requests as they happen on a wall clock.  ``await
deployment.serve_forever()`` opens a session and returns a
:class:`ServerHandle` whose :meth:`ServerHandle.submit` coroutine stamps
each request with a release cycle from a pluggable clock
(:class:`VirtualClock` for deterministic tests, :class:`WallClock` in
production), routes it through an event-driven admission scheduler --
a single asyncio task owning all shard occupancy -- and resolves a
future per request with its completion cycle and latency.

**The admission law is the offline one.**  The scheduler owns one
admission kernel (:class:`repro.sim.multichip.PipelineState`) per
replica and dispatches with the one routing law
(:func:`repro.sim.multichip.route`) -- the same objects
:class:`~repro.serve.Fleet` dispatches with offline, so there is no
second copy of either law to keep in step.  Fault-free sessions route
and admit each request directly as it arrives; sessions under a
:class:`~repro.faults.FaultPlan` feed the
:class:`repro.faults.FailoverEngine`, whose retry heap sits on top of
the same kernels.  A drained session replayed offline through
:class:`~repro.serve.TraceArrivals` is therefore bit-identical to what
the live session promised.  :meth:`ServerHandle.drain` performs exactly
that replay (it is where the simulators actually execute),
cross-checks every live prediction against the offline report, and
raises :class:`~repro.errors.SimulationError` on any divergence.

The session publishes a typed event stream -- :class:`RequestAdmitted`,
:class:`RequestCompleted`, :class:`RequestDropped`,
:class:`ReplicaStateChanged` -- consumed by the ``repro watch`` live
console (:mod:`repro.console`) and recorded on the handle for
deterministic byte-for-byte comparison in tests.
"""

import asyncio
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Union

from repro.errors import ConfigError, SimulationError
from repro.faults import (
    DROP_DEADLINE,
    DROP_MAX_ATTEMPTS,
    DROP_NO_REPLICA,
    FailoverEngine,
    FaultPlan,
    RetryPolicy,
    engine_needed,
)
from repro.sim.multichip import check_release, route

__all__ = [
    "VirtualClock",
    "WallClock",
    "RequestAdmitted",
    "RequestCompleted",
    "RequestDropped",
    "ReplicaStateChanged",
    "RequestCompletion",
    "ServerHandle",
    "serve_forever",
]


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------

class VirtualClock:
    """A deterministic, manually-advanced clock for scripted sessions.

    ``now_cycles()`` returns the current cycle; tests (and the headless
    console) script arrival times by calling :meth:`advance` /
    :meth:`advance_to` between submissions.  Never moves on its own,
    which is what makes a scripted request sequence reproducible byte
    for byte.
    """

    def __init__(self, start_cycle: int = 0):
        if start_cycle < 0:
            raise ConfigError(
                f"clock cannot start before cycle 0, got {start_cycle}"
            )
        self._now = int(start_cycle)

    def now_cycles(self) -> int:
        return self._now

    def advance(self, cycles: int) -> int:
        """Move forward by ``cycles`` (>= 0); returns the new cycle."""
        if cycles < 0:
            raise ConfigError(
                f"a clock only moves forward; cannot advance by {cycles}"
            )
        self._now += int(cycles)
        return self._now

    def advance_to(self, cycle: int) -> int:
        """Jump forward to absolute ``cycle`` (>= the current cycle)."""
        if cycle < self._now:
            raise ConfigError(
                f"a clock only moves forward; now at cycle {self._now}, "
                f"cannot rewind to {cycle}"
            )
        self._now = int(cycle)
        return self._now


class WallClock:
    """The production clock: monotonic wall time on the cycle grid.

    Maps ``time.monotonic_ns()`` since the session epoch (pinned when
    :func:`serve_forever` opens the session) onto the deployment's
    cycle grid via the architecture's ``cycle_ns``.  Monotonic by
    construction, so live submissions always satisfy the runtime's
    non-decreasing release-cycle requirement.
    """

    def __init__(self, cycle_ns: float):
        if cycle_ns <= 0:
            raise ConfigError(f"cycle_ns must be positive, got {cycle_ns}")
        self.cycle_ns = float(cycle_ns)
        self._epoch_ns: Optional[int] = None

    def start(self) -> None:
        """Pin the session epoch (idempotent)."""
        if self._epoch_ns is None:
            self._epoch_ns = time.monotonic_ns()

    def now_cycles(self) -> int:
        if self._epoch_ns is None:
            self.start()
        return int((time.monotonic_ns() - self._epoch_ns) / self.cycle_ns)


# ---------------------------------------------------------------------------
# Event stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RequestAdmitted:
    """The scheduler dispatched a request onto a replica."""

    request: int
    release_cycle: int
    replica: int
    dispatch_cycle: int

    def to_dict(self) -> Dict:
        return {"event": type(self).__name__, **asdict(self)}


@dataclass(frozen=True)
class RequestCompleted:
    """A request's last shard finished; its future has resolved."""

    request: int
    release_cycle: int
    replica: int
    finish_cycle: int
    latency_cycles: int
    attempts: int

    def to_dict(self) -> Dict:
        return {"event": type(self).__name__, **asdict(self)}


@dataclass(frozen=True)
class RequestDropped:
    """A request was dropped (graceful degradation, never lost)."""

    request: int
    release_cycle: int
    reason: str
    attempts: int

    def to_dict(self) -> Dict:
        return {"event": type(self).__name__, **asdict(self)}


@dataclass(frozen=True)
class ReplicaStateChanged:
    """A replica's health/warmth changed (``up``/``cold``/``warm``/
    ``crashed``)."""

    replica: int
    state: str
    at_cycle: int

    def to_dict(self) -> Dict:
        return {"event": type(self).__name__, **asdict(self)}


RuntimeEvent = Union[
    RequestAdmitted, RequestCompleted, RequestDropped, ReplicaStateChanged
]


@dataclass(frozen=True)
class RequestCompletion:
    """What a submitted request's future resolves with.

    ``status`` is ``"completed"`` or a drop reason
    (:data:`~repro.faults.DROP_DEADLINE` /
    :data:`~repro.faults.DROP_MAX_ATTEMPTS` /
    :data:`~repro.faults.DROP_NO_REPLICA`); dropped requests carry
    ``replica == -1``, ``finish_cycle == 0`` and ``latency_cycles is
    None``, mirroring :class:`~repro.serve.FleetReport`.
    """

    request: int
    release_cycle: int
    replica: int
    finish_cycle: int
    latency_cycles: Optional[int]
    attempts: int = 1
    status: str = "completed"

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def dropped(self) -> bool:
        return not self.completed

    def to_dict(self) -> Dict:
        return asdict(self)


_DROP_REASONS = (DROP_DEADLINE, DROP_MAX_ATTEMPTS, DROP_NO_REPLICA)


# ---------------------------------------------------------------------------
# The serving session
# ---------------------------------------------------------------------------

class ServerHandle:
    """A live serving session over a Deployment or Fleet.

    Created by :func:`serve_forever`; owns the admission scheduler task,
    the recorded event stream (:attr:`events`), and one pending future
    per in-flight request.  Single-use: :meth:`drain` closes the session,
    executes the recorded trace offline, cross-checks it against every
    live prediction, and returns the resulting
    :class:`~repro.serve.ServeReport` /
    :class:`~repro.serve.FleetReport`.
    """

    def __init__(
        self,
        server,
        clock,
        *,
        seed: int,
        validate: bool,
        faults: Optional[FaultPlan],
        retry: Optional[RetryPolicy],
    ):
        from repro.serve import Deployment, Fleet

        self.server = server
        self.clock = clock
        self.seed = int(seed)
        self.validate = bool(validate)
        self.faults = faults
        self.retry = retry

        self._is_fleet = isinstance(server, Fleet)
        if self._is_fleet:
            self.num_replicas = server.num_replicas
            self.policy = server.policy
        elif isinstance(server, Deployment):
            if engine_needed(faults, retry):
                raise ConfigError(
                    "fault injection needs a Fleet; wrap the deployment "
                    "in Fleet(model, replicas=1) to serve under a FaultPlan"
                )
            self.num_replicas = 1
            self.policy = "rr"
        else:
            raise ConfigError(
                f"serve_forever needs a Deployment or Fleet, got "
                f"{type(server).__name__}"
            )

        # Resident sessions: warmth is frozen at session open (nothing
        # executes before drain), so each cold replica's kernel carries
        # the load clamp its sub-stream will see offline.
        self._states = server._pipeline_states()
        row, edges = server._service_profile()
        self.shard_row: List[int] = list(row)
        self.shard_edges = list(edges)
        self.link = server.arch.interchip

        # The retry heap exists for faulted sessions only; fault-free
        # ones route + admit directly on the kernels.
        self._engine: Optional[FailoverEngine] = None
        if engine_needed(faults, retry):
            self._engine = FailoverEngine(
                self.shard_row, self.shard_edges, self.link,
                self.num_replicas, policy=self.policy, plan=faults,
                retry=retry,
                load_offsets=[s.load_offset for s in self._states],
            )
            self._states = self._engine.states
            self._attempt_cursor = 0

        # Live predictions, cross-checked against the offline replay.
        self._releases: List[int] = []
        self._assignments: List[int] = []
        self._starts: List[int] = []
        self._finishes: List[int] = []
        self._statuses: List[str] = []

        self.events: List[RuntimeEvent] = []
        self._subscribers: List[asyncio.Queue] = []
        self._pending: Dict[int, asyncio.Future] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        self._warm_emitted = [False] * self.num_replicas
        self._crash_emitted = [False] * self.num_replicas
        self.report = None

    # -- session lifecycle ---------------------------------------------------
    def _start(self) -> None:
        if hasattr(self.clock, "start"):
            self.clock.start()
        for r in range(self.num_replicas):
            state = "cold" if self._states[r].load_offset else "up"
            self._emit(ReplicaStateChanged(r, state, at_cycle=0))
        self._task = asyncio.get_running_loop().create_task(
            self._scheduler(), name="repro-admission-scheduler"
        )

    async def __aenter__(self) -> "ServerHandle":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.report is None:
            await self.drain()
        else:
            await self.close()

    # -- event stream --------------------------------------------------------
    def _emit(self, event: RuntimeEvent) -> None:
        self.events.append(event)
        for queue in self._subscribers:
            queue.put_nowait(event)

    def subscribe(self) -> asyncio.Queue:
        """A queue receiving every event from this point on.

        The session's end is signalled by a ``None`` sentinel (pushed
        by :meth:`drain` / :meth:`close`).
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    # -- submission ----------------------------------------------------------
    @property
    def submitted(self) -> int:
        return len(self._releases)

    async def submit(self, *, at: Optional[int] = None) -> asyncio.Future:
        """Submit one request; returns the future resolving its fate.

        The request's release cycle is ``at`` when given, else the
        clock's current cycle.  Release cycles must be non-decreasing
        (wall clocks are monotonic; the offline FIFO admission law this
        session must replay to depends on it).  The returned
        :class:`asyncio.Future` resolves with a
        :class:`RequestCompletion` as soon as the scheduler settles the
        request -- immediately for fault-free sessions, after retries
        resolve for faulted ones.
        """
        if self._closed:
            raise ConfigError(
                "this serving session is drained; serve_forever() again "
                "to open a new one"
            )
        release = int(at) if at is not None else int(self.clock.now_cycles())
        try:
            check_release(
                release, self._releases[-1] if self._releases else 0
            )
        except SimulationError as exc:
            # The kernel's rule, surfaced as the caller's mistake.
            raise ConfigError(str(exc)) from exc
        request = len(self._releases)
        self._releases.append(release)
        self._assignments.append(-1)
        self._starts.append(0)
        self._finishes.append(0)
        self._statuses.append("")
        future = asyncio.get_running_loop().create_future()
        self._pending[request] = future
        await self._queue.put((request, release))
        return future

    # -- the admission scheduler --------------------------------------------
    async def _scheduler(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                if self._engine is not None:
                    self._absorb_engine(self._engine.drain())
                break
            request, release = item
            if self._engine is not None:
                pushed = self._engine.push(release)
                assert pushed == request, (pushed, request)
                self._absorb_engine(self._engine.settle_through(release))
            else:
                self._admit_unfaulted(request, release)

    def _admit_unfaulted(self, request: int, release: int) -> None:
        replica = route(self.policy, self._states, release, request)
        state = self._states[replica]
        dispatch = max(release, state.load_offset)
        start, finish = state.admit(dispatch)
        self._starts[request] = start
        self._note_warm(replica)
        self._emit(RequestAdmitted(request, release, replica, dispatch))
        self._settle(request, replica, finish)

    def _absorb_engine(self, outcomes) -> None:
        engine = self._engine
        for record in engine.attempts[self._attempt_cursor:]:
            if record.attempt == 1:
                self._note_warm(record.replica)
                self._emit(RequestAdmitted(
                    record.request,
                    engine.releases[record.request],
                    record.replica,
                    record.dispatch_cycle,
                ))
            if (
                record.status == "crashed"
                and not self._crash_emitted[record.replica]
            ):
                self._crash_emitted[record.replica] = True
                self._emit(ReplicaStateChanged(
                    record.replica, "crashed", at_cycle=record.finish_cycle,
                ))
        self._attempt_cursor = len(engine.attempts)
        for outcome in outcomes:
            self._settle(
                outcome.request, outcome.replica, outcome.finish_cycle,
                outcome.attempts, outcome.status,
            )

    def _note_warm(self, replica: int) -> None:
        load_done = self._states[replica].load_offset
        if load_done and not self._warm_emitted[replica]:
            self._warm_emitted[replica] = True
            self._emit(ReplicaStateChanged(
                replica, "warm", at_cycle=load_done,
            ))

    def _settle(
        self, request: int, replica: int, finish: int, attempts: int = 1,
        status: str = "completed",
    ) -> None:
        """Record a request's fate, publish it and resolve its future.

        Dropped requests arrive as the engine reports them: ``replica ==
        -1`` and ``finish == 0``.
        """
        release = self._releases[request]
        self._assignments[request] = replica
        self._finishes[request] = finish
        self._statuses[request] = status
        latency = None
        if status == "completed":
            latency = finish - release
            self._emit(RequestCompleted(
                request, release, replica, finish, latency, attempts,
            ))
        else:
            self._emit(RequestDropped(request, release, status, attempts))
        future = self._pending.pop(request)
        if not future.cancelled():
            future.set_result(RequestCompletion(
                request, release, replica, finish, latency, attempts, status,
            ))

    # -- drain: execute offline, cross-check the live predictions -----------
    async def drain(self):
        """Close the session, execute its trace, return the report.

        The recorded releases replay through the ordinary offline path
        (:meth:`~repro.serve.Deployment.run_trace` /
        :meth:`~repro.serve.Fleet.run_trace` -- this is where the
        simulators actually execute and, in the cyclesim tier, validate
        bit-exactly against the golden model).  Every live prediction
        -- assignment, start, finish, drop -- is then cross-checked
        against the offline report; any divergence raises
        :class:`~repro.errors.SimulationError`, because it would mean
        the live session promised latencies the hardware model does not
        deliver.
        """
        if self.report is not None:
            return self.report
        await self._shutdown()
        if self._is_fleet:
            report = self.server.run_trace(
                list(self._releases), seed=self.seed, validate=self.validate,
                faults=self.faults, retry=self.retry,
            )
        else:
            report = self.server.run_trace(
                list(self._releases), seed=self.seed, validate=self.validate,
            )
        self._cross_check(report)
        self.report = report
        return report

    async def close(self) -> None:
        """Abandon the session without executing (pending futures cancel)."""
        await self._shutdown()
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()

    async def _shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            await self._queue.put(None)
        if self._task is not None:
            await self._task
            self._task = None
        for queue in self._subscribers:
            queue.put_nowait(None)

    def _cross_check(self, report) -> None:
        def mismatch(what, live, offline):
            raise SimulationError(
                f"live serving session diverged from the offline replay: "
                f"{what} predicted {live!r}, offline computed {offline!r}"
            )

        if list(report.releases) != self._releases:
            mismatch("releases", self._releases, list(report.releases))
        if self._is_fleet:
            if list(report.assignments) != self._assignments:
                mismatch(
                    "assignments", self._assignments,
                    list(report.assignments),
                )
            dropped = {
                i for i, s in enumerate(self._statuses) if s in _DROP_REASONS
            }
            if set(report.dropped_indices) != dropped:
                mismatch(
                    "dropped requests", sorted(dropped),
                    sorted(report.dropped_indices),
                )
        else:
            if list(report.service_starts) != self._starts:
                mismatch(
                    "service starts", self._starts,
                    list(report.service_starts),
                )
        if list(report.input_finishes) != self._finishes:
            mismatch(
                "finish cycles", self._finishes, list(report.input_finishes)
            )


async def serve_forever(
    server,
    *,
    clock=None,
    seed: int = 0,
    validate: bool = True,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> ServerHandle:
    """Open an async real-time serving session; returns its handle.

    ``server`` is a :class:`~repro.serve.Deployment` or
    :class:`~repro.serve.Fleet` (fault plans need a fleet).  ``clock``
    maps submission times onto release cycles -- default a
    :class:`WallClock` on the architecture's cycle grid; pass a
    :class:`VirtualClock` for deterministic scripted sessions.  ``seed``
    and ``validate`` are handed to the drain-time offline replay
    exactly as :meth:`~repro.serve.Deployment.submit` takes them.

    Must be awaited inside a running event loop (the handle's scheduler
    task binds to it)::

        handle = await deployment.serve_forever(clock=VirtualClock())
        fut = await handle.submit()
        completion = await fut          # cycle-accurate promise
        report = await handle.drain()   # executes + cross-checks
    """
    if clock is None:
        clock = WallClock(server.arch.chip.cycle_ns)
    handle = ServerHandle(
        server, clock, seed=seed, validate=validate, faults=faults,
        retry=retry,
    )
    handle._start()
    return handle
