"""Deterministic fault injection for replicated serving.

A :class:`FaultPlan` is a seeded, typed description of everything that
goes wrong during a serving run: replicas crash
(:class:`ReplicaCrash`), run slow for a window
(:class:`ReplicaSlowdown`), lose link bandwidth
(:class:`LinkDegrade`), or fail individual requests at completion time
(:class:`TransientRequestFailure`).  Every event is a pure function of
cycle counts and seeds -- no wall clock, no global RNG -- so the same
plan replayed against the same arrival stream reproduces the same
report byte for byte, in the same process or across processes.

:class:`FailoverEngine` (batch driver: :func:`run_fault_schedule`) is
the failover engine both fidelity tiers and the async runtime drive
(``docs/ARCHITECTURE.md``, "Fault model & failover contract"):
health-aware dispatch (dead replicas stop receiving work), a
:class:`RetryPolicy` that re-enqueues failed or crash-killed attempts
onto surviving replicas, and graceful degradation -- a request that
exhausts its attempts, outlives its deadline, or finds no live replica
is recorded as *dropped*, never silently lost.  Conservation is an
invariant the engine itself asserts::

    submitted == completed + dropped

The engine owns the retry heap and nothing else.  Timing is the one
admission kernel (:class:`repro.sim.multichip.PipelineState`, one per
replica): the plan's :meth:`FaultPlan.schedule_hooks`, crash cycle and
resident load offset are that kernel's constructor data, and dispatch
is the one routing law (:func:`repro.sim.multichip.route`) over the
replicas still alive.  An empty plan with no retry policy
(:func:`engine_needed`) is the identity: :class:`repro.serve.Fleet`
then admits directly on the same kernels, and the engine run on an
empty plan computes the same assignments and finishes.
"""

import hashlib
import json
import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.config import InterChipConfig
from repro.errors import FaultError, SimulationError
from repro.sim.multichip import (
    PipelineState,
    TransferEdge,
    check_fleet,
    check_release,
    route,
)

#: Why a request was dropped (the graceful-degradation taxonomy).
DROP_DEADLINE = "deadline"
DROP_MAX_ATTEMPTS = "max_attempts"
DROP_NO_REPLICA = "no_replica"


# ---------------------------------------------------------------------------
# Fault events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicaCrash:
    """Replica ``replica`` dies permanently at ``at_cycle``.

    From ``at_cycle`` on the replica accepts no new dispatches; any
    attempt still in flight whose finish would land after the crash is
    killed *at* the crash cycle (its partial service is lost and it
    consumes no energy) and becomes eligible for retry on a survivor.
    """

    replica: int
    at_cycle: int

    def __post_init__(self):
        if self.replica < 0:
            raise FaultError(
                f"crash replica must be >= 0, got {self.replica}"
            )
        if self.at_cycle < 0:
            raise FaultError(
                f"crash cycle must be >= 0, got {self.at_cycle}"
            )

    def to_dict(self) -> Dict:
        return {
            "type": "replica_crash",
            "replica": int(self.replica),
            "at_cycle": int(self.at_cycle),
        }

    def describe(self) -> str:
        return f"crash(r{self.replica}@{self.at_cycle})"


@dataclass(frozen=True)
class ReplicaSlowdown:
    """Replica ``replica`` runs ``factor``x slower inside a cycle window.

    A shard pass *starting* inside ``[start_cycle, end_cycle)`` takes
    ``ceil(base * factor)`` cycles instead of ``base``.  Overlapping
    slowdowns multiply.  ``end_cycle=None`` means the window never
    closes.
    """

    replica: int
    factor: float
    start_cycle: int = 0
    end_cycle: Optional[int] = None

    def __post_init__(self):
        if self.replica < 0:
            raise FaultError(
                f"slowdown replica must be >= 0, got {self.replica}"
            )
        if not self.factor >= 1.0:
            raise FaultError(
                f"slowdown factor must be >= 1.0, got {self.factor}"
            )
        if self.start_cycle < 0:
            raise FaultError("slowdown window must start at cycle >= 0")
        if self.end_cycle is not None and self.end_cycle <= self.start_cycle:
            raise FaultError(
                f"slowdown window [{self.start_cycle}, {self.end_cycle}) "
                f"is empty"
            )

    def active_at(self, cycle: int) -> bool:
        if cycle < self.start_cycle:
            return False
        return self.end_cycle is None or cycle < self.end_cycle

    def to_dict(self) -> Dict:
        return {
            "type": "replica_slowdown",
            "replica": int(self.replica),
            "factor": float(self.factor),
            "start_cycle": int(self.start_cycle),
            "end_cycle": (
                None if self.end_cycle is None else int(self.end_cycle)
            ),
        }

    def describe(self) -> str:
        return f"slow(r{self.replica} x{self.factor:g})"


@dataclass(frozen=True)
class LinkDegrade:
    """Inter-chip links lose bandwidth inside a cycle window.

    A transfer *departing* inside ``[start_cycle, end_cycle)`` sees its
    serialization stretched by ``1 / bw_factor`` (propagation latency is
    unaffected -- bandwidth loss, not distance).  ``replica=None``
    degrades every replica's links; otherwise only the named replica's.
    Overlapping degrades multiply.
    """

    bw_factor: float
    start_cycle: int = 0
    end_cycle: Optional[int] = None
    replica: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.bw_factor <= 1.0:
            raise FaultError(
                f"link bw_factor must be in (0, 1], got {self.bw_factor}"
            )
        if self.start_cycle < 0:
            raise FaultError("link-degrade window must start at cycle >= 0")
        if self.end_cycle is not None and self.end_cycle <= self.start_cycle:
            raise FaultError(
                f"link-degrade window [{self.start_cycle}, "
                f"{self.end_cycle}) is empty"
            )
        if self.replica is not None and self.replica < 0:
            raise FaultError(
                f"link-degrade replica must be >= 0, got {self.replica}"
            )

    def active_at(self, cycle: int) -> bool:
        if cycle < self.start_cycle:
            return False
        return self.end_cycle is None or cycle < self.end_cycle

    def applies_to(self, replica: int) -> bool:
        return self.replica is None or self.replica == replica

    def to_dict(self) -> Dict:
        return {
            "type": "link_degrade",
            "bw_factor": float(self.bw_factor),
            "start_cycle": int(self.start_cycle),
            "end_cycle": (
                None if self.end_cycle is None else int(self.end_cycle)
            ),
            "replica": (
                None if self.replica is None else int(self.replica)
            ),
        }

    def describe(self) -> str:
        scope = "all" if self.replica is None else f"r{self.replica}"
        return f"link({scope} x{self.bw_factor:g})"


@dataclass(frozen=True)
class TransientRequestFailure:
    """Each attempt independently fails with probability ``prob``.

    The draw is a pure hash of ``(seed, request, attempt)`` -- stable
    across processes, platforms and Python hash randomisation -- so the
    same plan always fails the same attempts.  A failed attempt consumed
    full service (the work ran, the result was lost) and is retried
    under the :class:`RetryPolicy`.
    """

    prob: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise FaultError(
                f"transient failure prob must be in [0, 1], got {self.prob}"
            )

    def fails(self, request: int, attempt: int) -> bool:
        token = f"{int(self.seed)}:{int(request)}:{int(attempt)}"
        digest = hashlib.sha256(token.encode("ascii")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return draw < self.prob

    def to_dict(self) -> Dict:
        return {
            "type": "transient_request_failure",
            "prob": float(self.prob),
            "seed": int(self.seed),
        }

    def describe(self) -> str:
        return f"flaky(p={self.prob:g}, seed {self.seed})"


FaultEvent = Union[
    ReplicaCrash, ReplicaSlowdown, LinkDegrade, TransientRequestFailure
]

_EVENT_TYPES = {
    "replica_crash": ReplicaCrash,
    "replica_slowdown": ReplicaSlowdown,
    "link_degrade": LinkDegrade,
    "transient_request_failure": TransientRequestFailure,
}


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """What the fleet does when an attempt fails.

    A failed attempt (transient failure or crash kill) is re-enqueued
    ``backoff_cycles`` after the failure, up to ``max_attempts`` total
    attempts per request.  ``per_request_deadline_cycles`` bounds the
    client-visible latency: a request whose completion (or whose next
    retry opportunity) lands past ``release + deadline`` is dropped with
    reason ``"deadline"`` rather than retried forever.
    """

    max_attempts: int = 3
    backoff_cycles: int = 0
    per_request_deadline_cycles: Optional[int] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise FaultError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_cycles < 0:
            raise FaultError(
                f"backoff_cycles must be >= 0, got {self.backoff_cycles}"
            )
        if (
            self.per_request_deadline_cycles is not None
            and self.per_request_deadline_cycles <= 0
        ):
            raise FaultError(
                f"per_request_deadline_cycles must be > 0, got "
                f"{self.per_request_deadline_cycles}"
            )

    def to_dict(self) -> Dict:
        return {
            "max_attempts": int(self.max_attempts),
            "backoff_cycles": int(self.backoff_cycles),
            "per_request_deadline_cycles": (
                None if self.per_request_deadline_cycles is None
                else int(self.per_request_deadline_cycles)
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RetryPolicy":
        try:
            return cls(
                max_attempts=int(payload.get("max_attempts", 3)),
                backoff_cycles=int(payload.get("backoff_cycles", 0)),
                per_request_deadline_cycles=(
                    None
                    if payload.get("per_request_deadline_cycles") is None
                    else int(payload["per_request_deadline_cycles"])
                ),
            )
        except (TypeError, ValueError) as exc:
            raise FaultError(f"malformed retry policy: {exc}") from exc

    def describe(self) -> str:
        parts = [f"attempts<={self.max_attempts}"]
        if self.backoff_cycles:
            parts.append(f"backoff {self.backoff_cycles}")
        if self.per_request_deadline_cycles is not None:
            parts.append(f"deadline {self.per_request_deadline_cycles}")
        return "retry(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Fault plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of fault events plus an optional
    embedded :class:`RetryPolicy`.

    Hashable and picklable, so plans ride through sweep cache keys and
    process pools unchanged.  The empty plan is the identity:
    ``FaultPlan()`` injected nothing and (absent an explicit retry
    policy) leaves :class:`repro.serve.Fleet` on the exact unfaulted
    code path.
    """

    events: Tuple[FaultEvent, ...] = ()
    retry: Optional[RetryPolicy] = None

    def __post_init__(self):
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, tuple(_EVENT_TYPES.values())):
                raise FaultError(
                    f"unknown fault event {type(event).__name__}"
                )
        object.__setattr__(self, "events", events)

    # -- queries -------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.events

    def crash_cycle(self, replica: int) -> Optional[int]:
        """Cycle at which ``replica`` dies (earliest crash wins)."""
        cycles = [
            e.at_cycle for e in self.events
            if isinstance(e, ReplicaCrash) and e.replica == replica
        ]
        return min(cycles) if cycles else None

    def schedule_hooks(self, replica: int, link: InterChipConfig):
        """``(service_time, link_time)`` hooks for one replica's replay.

        The exact callables :class:`repro.sim.multichip.PipelineState`
        accepts; ``(None, None)`` when no timing event touches the
        replica, so the unfaulted arithmetic stays untouched.
        """
        slowdowns = tuple(
            e for e in self.events
            if isinstance(e, ReplicaSlowdown) and e.replica == replica
        )
        degrades = tuple(
            e for e in self.events
            if isinstance(e, LinkDegrade) and e.applies_to(replica)
        )
        service_time = None
        if slowdowns:
            def service_time(k, start, base):
                factor = 1.0
                for event in slowdowns:
                    if event.active_at(start):
                        factor *= event.factor
                if factor == 1.0:
                    return base
                return int(math.ceil(base * factor))
        link_time = None
        if degrades:
            def link_time(src, dst, depart, nbytes):
                ser = link.serialization_cycles(nbytes)
                bw = 1.0
                for event in degrades:
                    if event.active_at(depart):
                        bw *= event.bw_factor
                if bw < 1.0:
                    ser = int(math.ceil(ser / bw))
                return ser, link.latency_cycles + ser
        return service_time, link_time

    def replica_timeline(self, replicas: int) -> List[List[Dict]]:
        """Per-replica downtime/degradation windows, for reports."""
        timeline: List[List[Dict]] = [[] for _ in range(replicas)]
        for event in self.events:
            if isinstance(event, ReplicaCrash):
                if event.replica < replicas:
                    timeline[event.replica].append({
                        "kind": "crash",
                        "start_cycle": int(event.at_cycle),
                        "end_cycle": None,
                    })
            elif isinstance(event, ReplicaSlowdown):
                if event.replica < replicas:
                    timeline[event.replica].append({
                        "kind": "slowdown",
                        "factor": float(event.factor),
                        "start_cycle": int(event.start_cycle),
                        "end_cycle": event.end_cycle,
                    })
            elif isinstance(event, LinkDegrade):
                targets = (
                    range(replicas) if event.replica is None
                    else [event.replica]
                )
                for r in targets:
                    if r < replicas:
                        timeline[r].append({
                            "kind": "link_degrade",
                            "bw_factor": float(event.bw_factor),
                            "start_cycle": int(event.start_cycle),
                            "end_cycle": event.end_cycle,
                        })
        for windows in timeline:
            windows.sort(
                key=lambda w: (w["start_cycle"], w["kind"])
            )
        return timeline

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "events": [e.to_dict() for e in self.events],
            "retry": None if self.retry is None else self.retry.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultError(
                f"fault plan must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        events: List[FaultEvent] = []
        for entry in payload.get("events", []):
            if not isinstance(entry, dict) or "type" not in entry:
                raise FaultError(
                    "each fault event needs a 'type' tag; got "
                    f"{entry!r}"
                )
            kind = entry["type"]
            klass = _EVENT_TYPES.get(kind)
            if klass is None:
                raise FaultError(
                    f"unknown fault event type {kind!r}; expected one of "
                    f"{sorted(_EVENT_TYPES)}"
                )
            kwargs = {k: v for k, v in entry.items() if k != "type"}
            try:
                events.append(klass(**kwargs))
            except TypeError as exc:
                raise FaultError(
                    f"malformed {kind} event {entry!r}: {exc}"
                ) from exc
        retry = payload.get("retry")
        return cls(
            events=tuple(events),
            retry=None if retry is None else RetryPolicy.from_dict(retry),
        )

    def fingerprint(self) -> str:
        """Stable content hash; the sweep-cache key material for plans."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]

    def describe(self) -> str:
        if self.is_empty and self.retry is None:
            return "no-fault"
        parts = [e.describe() for e in self.events]
        if self.retry is not None:
            parts.append(self.retry.describe())
        return "+".join(parts) if parts else "no-fault"

    def with_retry(self, retry: RetryPolicy) -> "FaultPlan":
        return replace(self, retry=retry)


def engine_needed(
    faults: Optional[FaultPlan], retry: Optional[RetryPolicy]
) -> bool:
    """Whether a submission must run through the :class:`FailoverEngine`.

    ``faults=None`` -- or an empty plan with no retry policy anywhere --
    is the identity, and callers keep the direct admission path.
    """
    return retry is not None or (
        faults is not None
        and not (faults.is_empty and faults.retry is None)
    )


def save_fault_plan(plan: FaultPlan, path) -> None:
    """Write a plan (and its embedded retry policy) as a JSON file."""
    Path(path).write_text(json.dumps(plan.to_dict(), indent=2) + "\n")


def load_fault_plan(path) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file.

    Raises :class:`~repro.errors.FaultError` (a
    :class:`~repro.errors.ReproError`) for a missing, unreadable or
    malformed file, so CLI verbs can fail with a one-line message.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FaultError(f"cannot read fault plan {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise FaultError(
            f"fault plan {path} is not valid JSON: {exc}"
        ) from exc
    return FaultPlan.from_dict(payload)


# ---------------------------------------------------------------------------
# Failover engine
# ---------------------------------------------------------------------------

class AttemptRecord(NamedTuple):
    """One dispatch of one request onto one replica (an immutable named
    tuple: one is built per attempt)."""

    request: int
    attempt: int
    replica: int
    dispatch_cycle: int
    finish_cycle: int  #: completion cycle, or the crash cycle if killed
    status: str  #: "completed" | "transient" | "crashed" | "late"
    start_cycle: int = 0  #: shard-0 service-entry cycle of this attempt

    @property
    def full_service(self) -> bool:
        """Whether the replica ran the whole inference (energy charged).

        Crash-killed attempts lose their partial work and consume no
        modeled energy; completed, transiently-failed and past-deadline
        attempts all did the full compute.
        """
        return self.status != "crashed"


@dataclass
class FaultSchedule:
    """The failover engine's complete, deterministic account of one run.

    Per global request ``i``: ``assignments[i]`` is the replica that
    *completed* it (``-1`` if dropped), ``finishes[i]`` its completion
    cycle (``0`` if dropped), ``statuses[i]`` either ``"completed"`` or
    a drop reason, and ``attempt_counts[i]`` how many dispatches it
    took.  ``attempts`` is every dispatch in engine order;
    ``replica_attempts[r]`` replica ``r``'s admissions in admission
    order (the replay order).  Conservation
    (``submitted == completed + dropped``) is asserted at construction.
    """

    batch: int
    replicas: int
    assignments: List[int]
    finishes: List[int]
    statuses: List[str]
    attempt_counts: List[int]
    retries: int
    attempts: List[AttemptRecord]
    replica_attempts: List[List[AttemptRecord]]
    makespan: int

    @property
    def completed(self) -> List[int]:
        return [
            i for i, s in enumerate(self.statuses) if s == "completed"
        ]

    @property
    def dropped(self) -> List[int]:
        return [
            i for i, s in enumerate(self.statuses) if s != "completed"
        ]

    @property
    def drop_reasons(self) -> Dict[int, str]:
        return {
            i: s for i, s in enumerate(self.statuses) if s != "completed"
        }

    def check_conservation(self) -> None:
        if len(self.completed) + len(self.dropped) != self.batch:
            raise SimulationError(
                f"request conservation violated: {self.batch} submitted "
                f"!= {len(self.completed)} completed + "
                f"{len(self.dropped)} dropped"
            )


class EngineOutcome(NamedTuple):
    """One request's final verdict as the engine settles it.

    ``status`` is ``"completed"`` or a drop reason
    (:data:`DROP_DEADLINE` / :data:`DROP_MAX_ATTEMPTS` /
    :data:`DROP_NO_REPLICA`); dropped requests carry ``replica == -1``
    and ``finish_cycle == 0``, mirroring :class:`FaultSchedule`.
    """

    request: int
    status: str
    finish_cycle: int
    replica: int
    attempts: int

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class FailoverEngine:
    """The failover engine, exposed one event at a time.

    This is the exact event loop of :func:`run_fault_schedule` (which
    is now a thin batch driver over it), restructured so the async
    serving runtime (:mod:`repro.runtime`) can feed wall-clock arrivals
    in as they happen and learn each request's fate as soon as it is
    determined.  Events are processed in ``(ready_cycle, request,
    attempt)`` order; because :meth:`push` requires non-decreasing
    release cycles (and request ids grow monotonically), every event
    whose key is at or below the latest pushed release can never be
    preceded by a future submission -- :meth:`settle_through` processes
    exactly those, so incremental driving is a pure reordering of the
    batch loop and reproduces it bit for bit.
    """

    def __init__(
        self,
        row: Sequence[int],
        edges: Sequence[TransferEdge],
        link: InterChipConfig,
        replicas: int,
        policy: str = "rr",
        plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        load_offsets: Optional[Sequence[int]] = None,
    ):
        self.plan = plan if plan is not None else FaultPlan()
        policy_retry = retry if retry is not None else self.plan.retry
        self.retry_policy = (
            policy_retry if policy_retry is not None else RetryPolicy()
        )
        #: The plan's per-attempt failure draws, gathered once.
        self._transients = tuple(
            e for e in self.plan.events
            if isinstance(e, TransientRequestFailure)
        )
        check_fleet(policy, replicas)
        self.policy = policy
        self.replicas = int(replicas)
        self._deadline = self.retry_policy.per_request_deadline_cycles
        if load_offsets is None:
            load_offsets = [0] * self.replicas
        elif len(load_offsets) != self.replicas:
            raise SimulationError(
                f"load_offsets has {len(load_offsets)} entries for "
                f"{self.replicas} replicas"
            )
        #: One admission kernel per replica, carrying the plan's timing
        #: hooks, crash cycle and resident load offset as plain data.
        self.states = []
        for r in range(self.replicas):
            service_time, link_time = self.plan.schedule_hooks(r, link)
            self.states.append(PipelineState(
                row, edges, link, service_time=service_time,
                link_time=link_time, crash=self.plan.crash_cycle(r),
                load_offset=load_offsets[r],
            ))
        self.releases: List[int] = []
        self.assignments: List[int] = []
        self.finishes: List[int] = []
        self.statuses: List[str] = []
        self.attempt_counts: List[int] = []
        self.attempts: List[AttemptRecord] = []
        self.replica_attempts: List[List[AttemptRecord]] = [
            [] for _ in range(self.replicas)
        ]
        self.retries = 0
        self.makespan = 0
        self._cursor = 0  #: dispatches so far (the rr rotation index)
        self._heap: List[Tuple[int, int, int]] = []

    def push(self, release: int) -> int:
        """Submit one request released at ``release``; returns its id.

        Releases must be non-decreasing (wall clocks are monotonic);
        a regression raises :class:`~repro.errors.SimulationError`
        because it would break the settled-outcome-is-final guarantee.
        """
        release = int(release)
        check_release(release, self.releases[-1] if self.releases else 0)
        request = len(self.releases)
        self.releases.append(release)
        self.assignments.append(-1)
        self.finishes.append(0)
        self.statuses.append("")
        self.attempt_counts.append(0)
        heappush(self._heap, (release, request, 1))
        return request

    def settle_through(self, cycle: int) -> List[EngineOutcome]:
        """Process every queued event with ``ready_cycle <= cycle``.

        Safe (final) whenever ``cycle`` is at most the latest pushed
        release: any future submission keys strictly after every event
        processed here.  Returns the requests whose fate was decided,
        in decision order.
        """
        outcomes: List[EngineOutcome] = []
        while self._heap and self._heap[0][0] <= cycle:
            outcome = self._step()
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    def drain(self) -> List[EngineOutcome]:
        """Process everything still queued (no more pushes may follow)."""
        return self.settle_through(math.inf)

    def _terminal(self, request: int, status: str) -> EngineOutcome:
        self.statuses[request] = status
        return EngineOutcome(
            request, status, self.finishes[request],
            self.assignments[request], self.attempt_counts[request],
        )

    def _step(self) -> Optional[EngineOutcome]:
        """Process one ``(ready, request, attempt)`` event.

        Returns the request's :class:`EngineOutcome` when this event
        decided its fate, ``None`` when a retry was scheduled instead.
        """
        rp = self.retry_policy
        ready, request, attempt = heappop(self._heap)
        release = self.releases[request]
        if self._deadline is not None and ready > release + self._deadline:
            return self._terminal(request, DROP_DEADLINE)
        alive = [
            r for r in range(self.replicas)
            if self.states[r].alive_at(ready)
        ]
        if not alive:
            return self._terminal(request, DROP_NO_REPLICA)
        choice = route(self.policy, self.states, ready, self._cursor, alive)
        self._cursor += 1
        state = self.states[choice]
        self.attempt_counts[request] = attempt
        dispatch = max(ready, state.load_offset)
        start, finish = state.admit(dispatch)

        end = finish
        if state.crash is not None and finish > state.crash:
            status, end = "crashed", state.crash
        elif any(e.fails(request, attempt) for e in self._transients):
            status = "transient"
        elif self._deadline is not None and finish > release + self._deadline:
            status = "late"
        else:
            status = "completed"
        record = AttemptRecord(
            request, attempt, choice, dispatch, end, status, start
        )
        self.attempts.append(record)
        self.replica_attempts[choice].append(record)
        self.makespan = max(self.makespan, end)

        if status == "completed":
            self.assignments[request] = choice
            self.finishes[request] = finish
            return self._terminal(request, "completed")
        if status == "late":
            return self._terminal(request, DROP_DEADLINE)
        if attempt < rp.max_attempts:
            self.retries += 1
            heappush(
                self._heap, (end + rp.backoff_cycles, request, attempt + 1)
            )
            return None
        return self._terminal(request, DROP_MAX_ATTEMPTS)

    def finish(self) -> FaultSchedule:
        """Drain the queue and return the complete account of the run."""
        self.drain()
        schedule = FaultSchedule(
            batch=len(self.releases),
            replicas=self.replicas,
            assignments=list(self.assignments),
            finishes=list(self.finishes),
            statuses=list(self.statuses),
            attempt_counts=list(self.attempt_counts),
            retries=self.retries,
            attempts=list(self.attempts),
            replica_attempts=[list(rs) for rs in self.replica_attempts],
            makespan=self.makespan,
        )
        schedule.check_conservation()
        return schedule


def run_fault_schedule(
    releases: Sequence[int],
    row: Sequence[int],
    edges: Sequence[TransferEdge],
    link: InterChipConfig,
    replicas: int,
    policy: str = "rr",
    plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    load_offsets: Optional[Sequence[int]] = None,
) -> FaultSchedule:
    """Run the health-aware dispatch + retry engine over one stream.

    ``row`` is the per-shard service profile of one input (timing is
    data-independent under per-input isolation), ``edges`` the per-input
    transfer schedule; both fidelity tiers feed the same values, which
    is what makes the availability law tier-equivalent.  Dispatch:
    ``"rr"`` rotates over the replicas *alive at dispatch time*
    (degenerating to ``i % R`` while all survive), ``"jsq"`` joins the
    live replica with the fewest predicted in-flight attempts.  Events
    are processed in ``(ready_cycle, request, attempt)`` order, so the
    outcome is a pure function of the inputs.

    ``load_offsets[r]`` (resident-weights sessions) delays replica
    ``r``'s first service entry to its weight-load completion cycle:
    dispatches onto it are clamped to the offset, and the clamped cycle
    is what :class:`AttemptRecord.dispatch_cycle` records -- so
    replaying the records through the plain streaming recurrence still
    reproduces the engine's finishes exactly.  ``None`` (or all zeros)
    is the identity and keeps the schedule bit-identical to the
    non-resident engine.

    This is the batch driver over :class:`FailoverEngine`; the async
    runtime drives the same engine incrementally, which is why a
    drained-then-replayed live session reproduces this function's
    schedule exactly.
    """
    engine = FailoverEngine(
        row, edges, link, replicas, policy=policy, plan=plan, retry=retry,
        load_offsets=load_offsets,
    )
    for release in releases:
        engine.push(release)
    return engine.finish()
