"""Async real-time serving runtime.

Every serving path below this module consumes a *precomputed* list of
release cycles (:class:`repro.serve.ArrivalProcess`); this one takes
requests as they happen on a wall clock.  ``await
deployment.serve_forever()`` opens a session and returns a
:class:`ServerHandle` whose :meth:`ServerHandle.submit` coroutine stamps
each request with a release cycle from a pluggable clock
(:class:`VirtualClock` for deterministic tests, :class:`WallClock` in
production), admits it before returning -- asyncio is single-threaded,
so stamping and admitting one request cannot interleave with another
submission, and there is no scheduler task or queue between them --
and resolves a future per request with its completion cycle and
latency.

**The admission law is the offline one, applied once.**
:meth:`ServerHandle.submit` feeds each arrival to the very object the
server's offline submission folds over a whole stream, built by the
same method: the one fleet step (:class:`repro.sim.multichip.
Dispatcher`, from ``server._new_dispatcher(faults, retry)``; a
deployment is a fleet of one), under a
:class:`~repro.faults.FaultPlan` or retry policy or not.  There is no
second copy of the route-and-admit loop to keep in step, so a drained
session is bit-identical to the same releases run through
:class:`~repro.serve.TraceArrivals` offline, and one emitter
(:meth:`ServerHandle._absorb`) publishes what the step decided.
:meth:`ServerHandle.drain` hands the step to the offline path's report
half and never re-runs the trace: the report is assembled from the
admissions the session already made, in both tiers.  The cyclesim tier
executes each request once there, and a measured per-input row that
differs from the profile the live admission priced raises
:class:`~repro.errors.SimulationError`.

The session publishes a typed event stream -- :class:`RequestAdmitted`,
:class:`RequestCompleted`, :class:`RequestDropped`,
:class:`ReplicaStateChanged` -- consumed by the ``repro watch`` live
console (:mod:`repro.console`).  The handle stores no events: the
stream is a pure function of the step's records and one mark per
:meth:`ServerHandle._absorb` call, built by one window generator, live
for :meth:`ServerHandle.subscribe` queues and replayed by
:meth:`ServerHandle.iter_events`.  Events and :class:`RequestCompletion`
are immutable ``typing.NamedTuple`` records (a third of a frozen
dataclass's construction cost).
"""

import asyncio
import time
from array import array
from collections import deque
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Union

from repro.errors import ConfigError, SimulationError
from repro.faults import FaultPlan, RetryPolicy
from repro.sim.multichip import check_release

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

class RequestAdmitted(NamedTuple):
    """The session dispatched a request onto a replica."""

    request: int
    release_cycle: int
    replica: int
    dispatch_cycle: int

    def to_dict(self) -> Dict:
        return {"event": type(self).__name__, **self._asdict()}


class RequestCompleted(NamedTuple):
    """A request's last shard finished; its future has resolved."""

    request: int
    release_cycle: int
    replica: int
    finish_cycle: int
    latency_cycles: int
    attempts: int

    def to_dict(self) -> Dict:
        return {"event": type(self).__name__, **self._asdict()}


class RequestDropped(NamedTuple):
    """A request was dropped (graceful degradation, never lost)."""

    request: int
    release_cycle: int
    reason: str
    attempts: int

    def to_dict(self) -> Dict:
        return {"event": type(self).__name__, **self._asdict()}


class ReplicaStateChanged(NamedTuple):
    """A replica's health/warmth changed (``up``/``cold``/``warm``/
    ``crashed``)."""

    replica: int
    state: str
    at_cycle: int

    def to_dict(self) -> Dict:
        return {"event": type(self).__name__, **self._asdict()}


_new = tuple.__new__  # a named tuple without its Python-level __new__

RuntimeEvent = Union[
    RequestAdmitted, RequestCompleted, RequestDropped, ReplicaStateChanged
]


class RequestCompletion(NamedTuple):
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
        return self._asdict()


# ---------------------------------------------------------------------------
# The serving session
# ---------------------------------------------------------------------------

class ServerHandle:
    """A live serving session over a Deployment (any replica count).

    Created by :func:`serve_forever`; owns the session's admitting
    object (the fleet step's dispatcher), one mark per :meth:`_absorb`
    and one pending future per unsettled request.  :attr:`events` is
    derived, a fresh list per access: stream with :meth:`iter_events`.
    :meth:`submit` admits each request before it returns -- there is no
    scheduler task.  Single-use: :meth:`drain` closes the session and
    returns the :class:`~repro.serve.FleetReport` the offline path gives
    for the recorded trace, assembled from the session's own admissions
    (the cyclesim tier executes and checks each served request there).
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
        from repro.serve import Deployment

        self.server = server
        self.clock = clock
        self.seed = int(seed)
        self.validate = bool(validate)
        self.faults = faults
        self.retry = retry

        if not isinstance(server, Deployment):
            raise ConfigError(
                "serve_forever needs a Deployment, got "
                f"{type(server).__name__}"
            )
        self.num_replicas = server.num_replicas
        self.policy = server.policy

        row, edges = server._service_profile()
        self.shard_row: List[int] = list(row)
        self.shard_edges = list(edges)
        self.link = server.arch.interchip

        # The one admitting object, built by the server exactly as its
        # offline submission builds it.  Resident sessions: warmth is
        # frozen at session open (nothing executes before drain), so
        # each cold replica's kernel carries the load clamp its
        # sub-stream is reported with.
        self._dispatcher = server._new_dispatcher(faults, retry)
        #: ``(attempts, settled)`` published by each :meth:`_absorb` call.
        self._marks = array("q", (0, 0))

        self._subscribers: List[asyncio.Queue] = []
        self._sent: Set = set()  # warm/crash pairs the subscribers got
        self._pending: Dict[int, asyncio.Future] = {}
        self._closed = False
        self.report = None

    # -- session lifecycle ---------------------------------------------------
    async def __aenter__(self) -> "ServerHandle":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.report is None:
            await self.drain()
        else:
            await self.close()

    # -- event stream --------------------------------------------------------
    def _events(self, marks, sent: Set) -> Iterator[RuntimeEvent]:
        """The events of the :meth:`_absorb` calls between consecutive
        flattened ``(attempts, settled)`` ``marks``; the only builder of
        request and warm/crash events.  ``sent`` holds the ``(replica,
        state)`` pairs already published."""
        d = self._dispatcher
        attempts, settled, releases = d.attempts, d.settled, d.releases
        statuses, counts, finishes = d.statuses, d.attempt_counts, d.finishes
        loads = [state.load_offset for state in d.states]
        marks = iter(marks)
        a0, s0 = next(marks), next(marks)
        for a1, s1 in zip(marks, marks):
            for i, attempt, r, dispatch, end, status, _, ready in (
                attempts[a0:a1]
            ):
                if attempt == 1:
                    if loads[r] and (r, "warm") not in sent:
                        sent.add((r, "warm"))
                        yield ReplicaStateChanged(r, "warm", loads[r])
                    yield _new(RequestAdmitted, (i, ready, r, dispatch))
                if status == "crashed" and (r, "crashed") not in sent:
                    sent.add((r, "crashed"))
                    yield ReplicaStateChanged(r, "crashed", end)
            for i in settled[s0:s1]:
                release, status = releases[i], statuses[i]
                if status != "completed":
                    yield RequestDropped(i, release, status, counts[i])
                    continue
                finish = finishes[i]
                yield _new(RequestCompleted, (
                    i, release, d.assignments[i], finish, finish - release,
                    counts[i],
                ))
            a0, s0 = a1, s1

    def iter_events(self) -> Iterator[RuntimeEvent]:
        """Replay the event stream from the step's records."""
        for r, st in enumerate(self._dispatcher.states):
            yield ReplicaStateChanged(r, "cold" if st.load_offset else "up", 0)
        yield from self._events(self._marks, set())

    @property
    def events(self) -> List[RuntimeEvent]:
        """The event stream so far, as a fresh list."""
        return list(self.iter_events())

    def subscribe(self) -> asyncio.Queue:
        """A queue receiving every event from this point on.

        The session's end is signalled by a ``None`` sentinel (pushed
        by :meth:`drain` / :meth:`close`); a queue subscribed after the
        session ended already holds it, so its consumer never blocks.
        """
        queue: asyncio.Queue = asyncio.Queue()
        if self._closed:
            # _shutdown() has already signalled the queues it knew of.
            queue.put_nowait(None)
            return queue
        if not self._subscribers:
            # Catch up on the warm/crash events published so far.
            deque(self._events(self._marks, self._sent), 0)
        self._subscribers.append(queue)
        return queue

    # -- submission ----------------------------------------------------------
    @property
    def submitted(self) -> int:
        return len(self._dispatcher.releases)

    async def submit(self, *, at: Optional[int] = None) -> asyncio.Future:
        """Submit one request; returns the future resolving its fate.

        The request's release cycle is ``at`` when given, else the
        clock's current cycle.  Release cycles must be non-decreasing
        (wall clocks are monotonic; the offline FIFO admission law this
        session must replay to depends on it).  The returned
        :class:`asyncio.Future` resolves with a
        :class:`RequestCompletion` as soon as the request is settled --
        within this call for fault-free sessions, once retries resolve
        for faulted ones.

        The request is admitted before this coroutine returns.  asyncio
        is single-threaded and nothing here awaits, so no other
        submission can run between stamping a release and admitting it:
        admission order is submission order, which the FIFO law needs.
        """
        if self._closed:
            raise ConfigError(
                "this serving session is drained; serve_forever() again "
                "to open a new one"
            )
        release = int(at) if at is not None else int(self.clock.now_cycles())
        releases = self._dispatcher.releases
        try:
            check_release(release, releases[-1] if releases else 0)
        except SimulationError as exc:
            # The kernel's rule, surfaced as the caller's mistake.
            raise ConfigError(str(exc)) from exc
        future = asyncio.get_running_loop().create_future()
        self._pending[len(releases)] = future
        self._dispatcher.dispatch(release)
        self._absorb()
        return future

    def _absorb(self) -> None:
        """Publish what the dispatcher decided since the last call: mark
        the window, stream it to subscribers, resolve settled futures."""
        dispatcher = self._dispatcher
        s0 = self._marks[-1]
        self._marks.extend((len(dispatcher.attempts), len(dispatcher.settled)))
        if self._subscribers:
            for event in self._events(self._marks[-4:], self._sent):
                for queue in self._subscribers:
                    queue.put_nowait(event)
        for request in dispatcher.settled[s0:]:
            self._settle(request)

    def _settle(self, request: int) -> None:
        """Resolve a settled request's future.  A dropped request
        carries the dispatcher's ``replica == -1`` and ``finish == 0``."""
        future = self._pending.pop(request)
        if future.cancelled():
            return
        d = self._dispatcher
        release, finish = d.releases[request], d.finishes[request]
        status = d.statuses[request]
        future.set_result(RequestCompletion(
            request, release, d.assignments[request], finish,
            finish - release if status == "completed" else None,
            d.attempt_counts[request], status,
        ))

    # -- drain: report the session's own admissions --------------------------
    async def drain(self):
        """Close the session and return its report: what ``run_trace``
        of the recorded releases gives on this server, warmth included.

        Every request was admitted once, live, on the object the
        offline path would use, so the report is assembled from those
        admissions -- nothing is scheduled again: the session's own
        dispatcher is handed to the one serving path
        (:meth:`repro.serve.Deployment._serve`), faulted or not.  In the
        cyclesim tier that path executes and golden-validates each
        request once, and every measured per-input row must equal the
        profile its live admission was priced from
        (:class:`~repro.errors.SimulationError` names the input and
        shard otherwise).
        """
        if self.report is not None:
            return self.report
        self._shutdown()
        self.report = self.server._serve(
            None, 1, list(self._dispatcher.releases), self.seed,
            self.validate, dispatcher=self._dispatcher, faults=self.faults,
            retry=self.retry,
        )
        return self.report

    async def close(self) -> None:
        """Abandon the session without executing (pending futures cancel)."""
        self._shutdown()
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()

    def _shutdown(self) -> None:
        """Close admission: settle the retries still queued past the
        last release and end every subscriber's stream."""
        if self._closed:
            return
        self._closed = True
        self._dispatcher.drain()
        self._absorb()
        for queue in self._subscribers:
            queue.put_nowait(None)


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

    ``server`` is a :class:`~repro.serve.Deployment`, served under
    ``faults`` / ``retry`` (``None``: the empty plan).  ``clock``
    maps submission times onto release cycles -- default a
    :class:`WallClock` on the architecture's cycle grid; pass a
    :class:`VirtualClock` for deterministic scripted sessions.  ``seed``
    and ``validate`` are handed to the drain-time execution (cyclesim
    tier) exactly as :meth:`~repro.serve.Deployment.submit` takes them.

    Must be awaited inside a running event loop (the handle's completion
    futures bind to it)::

        handle = await deployment.serve_forever(clock=VirtualClock())
        fut = await handle.submit()
        completion = await fut          # cycle-accurate promise
        report = await handle.drain()   # == run_trace of the releases
    """
    if clock is None:
        clock = WallClock(server.arch.chip.cycle_ns)
    handle = ServerHandle(
        server, clock, seed=seed, validate=validate, faults=faults,
        retry=retry,
    )
    if hasattr(clock, "start"):
        clock.start()
    return handle
