"""Deterministic fault injection for replicated serving.

A :class:`FaultPlan` is a seeded, typed description of everything that
goes wrong during a serving run: replicas crash
(:class:`ReplicaCrash`), run slow for a window
(:class:`ReplicaSlowdown`), lose link bandwidth
(:class:`LinkDegrade`), or fail individual requests at completion time
(:class:`TransientRequestFailure`).  Every event is a pure function of
cycle counts and seeds -- no wall clock, no global RNG -- so the same
plan replayed against the same arrival stream reproduces the same
report byte for byte, in the same process or across processes.  Every
number a plan holds is checked where it enters: cycles, replicas, seeds
and attempt counts are integers (``bool`` is not one), factors finite,
and a bad value raises :class:`~repro.errors.FaultError` naming its
field.

A plan is data for the one fleet step,
:class:`repro.sim.multichip.Dispatcher` (``docs/ARCHITECTURE.md``,
"Fault model & failover contract"), which every server folds, faulted
or not: :func:`fleet_dispatcher` turns the plan into that step's
constructor data -- per replica, an admission kernel
(:class:`~repro.sim.multichip.PipelineState`) carrying the plan's
:meth:`FaultPlan.schedule_hooks`, crash cycle and resident load offset;
the transient failures as its ``fails`` predicate; the
:class:`RetryPolicy` as its retry numbers.  The step then gives
health-aware dispatch (dead replicas stop receiving work), retries of
failed or crash-killed attempts on surviving replicas, and graceful
degradation -- a request that exhausts its attempts, outlives its
deadline, or finds no live replica is recorded as *dropped*, never
silently lost.  Conservation is asserted when the step drains::

    submitted == completed + dropped

:func:`run_fault_schedule` is the batch fold over the step.  The empty
plan is the identity -- no attempt can fail, so the step admits every
request once, directly -- and :func:`engine_needed` only says whether a
report carries the availability block.
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import InterChipConfig
from repro.errors import FaultError, SimulationError
from repro.sim.multichip import (  # the drop taxonomy and records too
    DROP_DEADLINE,
    DROP_MAX_ATTEMPTS,
    DROP_NO_REPLICA,
    AttemptRecord,
    Dispatcher,
    PipelineState,
    TransferEdge,
    check_fleet,
)


# ---------------------------------------------------------------------------
# Fault events
# ---------------------------------------------------------------------------

def _integer(field: str, value, minimum: int = 0) -> None:
    """Cycles, replicas, seeds and attempt counts are integers (``bool``
    is not one) of at least ``minimum``: a float would truncate, or
    fingerprint apart from the cycle it prices at."""
    if (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise FaultError(
            f"{field} must be an integer >= {minimum}, got {value!r}"
        )


def _finite(field: str, value) -> None:
    """Factors and probabilities are finite real numbers."""
    if (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise FaultError(f"{field} must be a finite number, got {value!r}")


def _window(kind: str, start_cycle, end_cycle) -> None:
    """``[start_cycle, end_cycle)``: integer cycles, open-ended at None."""
    _integer(f"{kind} start_cycle", start_cycle)
    if end_cycle is not None:
        _integer(f"{kind} end_cycle", end_cycle)
        if end_cycle <= start_cycle:
            raise FaultError(
                f"{kind} window [{start_cycle}, {end_cycle}) is empty"
            )


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
        _integer("replica_crash replica", self.replica)
        _integer("replica_crash at_cycle", self.at_cycle)

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
        _integer("replica_slowdown replica", self.replica)
        _finite("replica_slowdown factor", self.factor)
        if not self.factor >= 1.0:
            raise FaultError(
                f"replica_slowdown factor must be >= 1.0, got {self.factor}"
            )
        _window("replica_slowdown", self.start_cycle, self.end_cycle)

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
        _finite("link_degrade bw_factor", self.bw_factor)
        if not 0.0 < self.bw_factor <= 1.0:
            raise FaultError(
                f"link_degrade bw_factor must be in (0, 1], got "
                f"{self.bw_factor}"
            )
        _window("link_degrade", self.start_cycle, self.end_cycle)
        if self.replica is not None:
            _integer("link_degrade replica", self.replica)

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
        _finite("transient_request_failure prob", self.prob)
        if not 0.0 <= self.prob <= 1.0:
            raise FaultError(
                f"transient_request_failure prob must be in [0, 1], got "
                f"{self.prob}"
            )
        _integer("transient_request_failure seed", self.seed)

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
        _integer("retry max_attempts", self.max_attempts, 1)
        _integer("retry backoff_cycles", self.backoff_cycles)
        if self.per_request_deadline_cycles is not None:
            _integer(
                "retry per_request_deadline_cycles",
                self.per_request_deadline_cycles, 1,
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
        if not isinstance(payload, dict):
            raise FaultError(
                f"retry policy must be a JSON object, got {payload!r}"
            )
        return cls(
            max_attempts=payload.get("max_attempts", 3),
            backoff_cycles=payload.get("backoff_cycles", 0),
            per_request_deadline_cycles=payload.get(
                "per_request_deadline_cycles"
            ),
        )

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
    ``FaultPlan()`` injects nothing, so the fleet step admits every
    request once, and (absent an explicit retry policy) the report is
    the fault-free one.
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


def engine_needed(
    faults: Optional[FaultPlan], retry: Optional[RetryPolicy]
) -> bool:
    """Whether a submission is under a fault plan or retry policy, and
    its report carries the availability block.

    ``faults=None`` -- or an empty plan with no retry policy anywhere --
    is the identity: the same step admits the same way either way.
    """
    return retry is not None or (
        faults is not None
        and not (faults.is_empty and faults.retry is None)
    )


def effective_retry(
    plan: Optional[FaultPlan], retry: Optional[RetryPolicy]
) -> RetryPolicy:
    """The policy a submission runs under: ``retry``, else the plan's
    embedded one, else :class:`RetryPolicy`'s defaults."""
    if retry is not None:
        return retry
    if plan is not None and plan.retry is not None:
        return plan.retry
    return RetryPolicy()


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
# The plan as constructor data of the one fleet step
# ---------------------------------------------------------------------------

def fleet_dispatcher(
    policy: str,
    row: Sequence[int],
    edges: Sequence[TransferEdge],
    link: InterChipConfig,
    load_offsets: Sequence[int],
    plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> Dispatcher:
    """The fleet step over ``len(load_offsets)`` replicas under ``plan``.

    Each replica gets one admission kernel carrying the plan's
    :meth:`FaultPlan.schedule_hooks`, crash cycle and its resident load
    offset; the plan's transient failures become the step's ``fails``
    predicate, and ``retry`` (else the plan's embedded policy, else
    :class:`RetryPolicy`'s defaults) its retry numbers.  ``plan=None``
    is the empty plan: the fault-free step.
    """
    rp = effective_retry(plan, retry)
    plan = plan if plan is not None else FaultPlan()
    transients = tuple(
        e for e in plan.events if isinstance(e, TransientRequestFailure)
    )
    fails = None
    if transients:
        def fails(request, attempt):
            return any(e.fails(request, attempt) for e in transients)
    states = []
    for r, offset in enumerate(load_offsets):
        service_time, link_time = plan.schedule_hooks(r, link)
        states.append(PipelineState(
            row, edges, link, service_time=service_time,
            link_time=link_time, crash=plan.crash_cycle(r),
            load_offset=offset,
        ))
    return Dispatcher(
        policy, states, fails, rp.max_attempts, rp.backoff_cycles,
        rp.per_request_deadline_cycles,
    )


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
) -> Dispatcher:
    """Run the health-aware dispatch + retry step over one stream.

    ``row`` is the per-shard service profile of one input (timing is
    data-independent under per-input isolation), ``edges`` the per-input
    transfer schedule; both fidelity tiers feed the same values, which
    is what makes the availability law tier-equivalent.  Dispatch:
    ``"rr"`` rotates over the replicas *alive at dispatch time*
    (degenerating to ``i % R`` while all survive), ``"jsq"`` joins the
    live replica with the fewest predicted in-flight attempts.  Attempts
    are processed in ``(ready_cycle, request, attempt)`` order, so the
    outcome is a pure function of the inputs.

    ``load_offsets[r]`` (resident-weights sessions) delays replica
    ``r``'s first service entry to its weight-load completion cycle:
    dispatches onto it are clamped to the offset, and the clamped cycle
    is what :class:`AttemptRecord.dispatch_cycle` records -- so
    replaying the records through the plain streaming recurrence still
    reproduces the finishes exactly.  ``None`` (or all zeros) is the
    identity.

    This is the batch fold of :func:`fleet_dispatcher`'s step; it
    returns the drained :class:`~repro.sim.multichip.Dispatcher`, whose
    records are the complete account of the run.
    """
    check_fleet(policy, replicas)
    if load_offsets is None:
        load_offsets = [0] * replicas
    elif len(load_offsets) != replicas:
        raise SimulationError(
            f"load_offsets has {len(load_offsets)} entries for "
            f"{replicas} replicas"
        )
    dispatcher = fleet_dispatcher(
        policy, row, edges, link, load_offsets, plan, retry
    )
    for release in releases:
        dispatcher.dispatch(release)
    return dispatcher.drain()
