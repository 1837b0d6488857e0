"""The async serving runtime: live sessions replay to the offline law.

The contract under test (``docs/ARCHITECTURE.md``, "The async serving
runtime"):

- **clock mapping**: a submission's release cycle comes from the
  pluggable clock (``at=`` overrides it); release cycles must be
  non-decreasing, because the offline FIFO admission law the session
  replays to depends on submission order;
- **online == offline**: a drained session's report is bit-identical
  to the same releases run through ``run_trace`` /
  :class:`~repro.serve.TraceArrivals` -- in both fidelity tiers, with
  ``replicas > 1``, under fault plans, and in resident-weights
  sessions -- and every live-resolved future agreed with that report
  *before* the simulators executed (a measured row that differs from
  the profile the session priced raises);
- **determinism**: the same scripted session twice produces
  byte-identical event streams and final reports, including under a
  mid-stream crash.
"""

import asyncio
import json

import pytest

from repro import (
    Deployment,
    FaultPlan,
    Fleet,
    ReplicaCrash,
    RetryPolicy,
    TransientRequestFailure,
    VirtualClock,
    WallClock,
    serve_forever,
)
from repro.errors import ConfigError, FaultError, SimulationError
from repro.faults import DROP_MAX_ATTEMPTS


def _deployment(arch, tier="cyclesim", **kw):
    return Deployment(
        "tiny_mlp", arch, tier=tier, input_size=8, num_classes=10, **kw
    )


def _fleet(arch, tier="cyclesim", **kw):
    return Fleet(
        "tiny_mlp", arch, tier=tier, input_size=8, num_classes=10, **kw
    )


def _run(coro):
    return asyncio.run(coro)


async def _script(server, releases, **serve_kw):
    """Drive ``releases`` through a virtual-clock session; return
    (handle, completions, drained report)."""
    clock = VirtualClock()
    handle = await serve_forever(server, clock=clock, **serve_kw)
    futures = []
    for release in releases:
        clock.advance_to(release)
        futures.append(await handle.submit())
    report = await handle.drain()
    completions = [await f for f in futures]
    return handle, completions, report


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------

class TestClocks:
    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        assert clock.now_cycles() == 0
        assert clock.advance(100) == 100
        assert clock.advance_to(250) == 250
        assert clock.now_cycles() == 250

    def test_virtual_clock_never_rewinds(self):
        clock = VirtualClock(start_cycle=50)
        with pytest.raises(ConfigError, match="forward"):
            clock.advance(-1)
        with pytest.raises(ConfigError, match="forward"):
            clock.advance_to(49)
        with pytest.raises(ConfigError, match="cycle 0"):
            VirtualClock(start_cycle=-1)

    def test_wall_clock_is_monotonic_on_the_cycle_grid(self):
        clock = WallClock(cycle_ns=2.0)
        clock.start()
        a = clock.now_cycles()
        b = clock.now_cycles()
        assert 0 <= a <= b

    def test_wall_clock_rejects_bad_cycle_time(self):
        with pytest.raises(ConfigError, match="cycle_ns"):
            WallClock(cycle_ns=0)


# ---------------------------------------------------------------------------
# Submission semantics
# ---------------------------------------------------------------------------

class TestSubmission:
    def test_releases_must_be_non_decreasing(self, arch):
        async def scenario():
            handle = await _deployment(arch).serve_forever(
                clock=VirtualClock()
            )
            await handle.submit(at=100)
            with pytest.raises(ConfigError, match="non-decreasing"):
                await handle.submit(at=99)
            await handle.submit(at=100)  # ties are fine
            await handle.drain()

        _run(scenario())

    def test_negative_release_rejected(self, arch):
        async def scenario():
            handle = await _deployment(arch).serve_forever(
                clock=VirtualClock()
            )
            with pytest.raises(ConfigError, match=">= 0"):
                await handle.submit(at=-5)
            await handle.drain()

        _run(scenario())

    def test_session_is_single_use(self, arch):
        async def scenario():
            handle = await _deployment(arch).serve_forever(
                clock=VirtualClock()
            )
            await handle.submit()
            report = await handle.drain()
            assert report is await handle.drain()  # idempotent
            with pytest.raises(ConfigError, match="drained"):
                await handle.submit()

        _run(scenario())

    def test_close_cancels_pending_without_executing(self, arch):
        async def scenario():
            handle = await _deployment(arch).serve_forever(
                clock=VirtualClock()
            )
            future = await handle.submit()
            await handle.close()
            # Unfaulted sessions resolve at admission, so the future
            # already carries its completion; the session just never
            # executed (no report).
            assert handle.report is None
            assert future.done()

        _run(scenario())

    def test_a_deployment_serves_a_fault_plan(self, arch):
        """A deployment is a fleet of one: a plan needs no wrapper."""
        plan = FaultPlan(events=(ReplicaCrash(replica=0, at_cycle=1000),))
        handle, completions, live = _run(
            _script(_deployment(arch, tier="fast"), RELEASES, faults=plan)
        )
        offline = _deployment(arch, tier="fast").run_trace(
            RELEASES, faults=plan
        )
        assert live.to_dict() == offline.to_dict()
        assert live.dropped > 0
        with pytest.raises(FaultError, match="names replica 1"):
            _deployment(arch, tier="fast").run_trace(
                RELEASES,
                faults=FaultPlan(events=(ReplicaCrash(replica=1, at_cycle=0),)),
            )

    def test_server_must_be_deployment_or_fleet(self):
        with pytest.raises(ConfigError, match="needs a Deployment"):
            _run(serve_forever(object(), clock=VirtualClock()))


# ---------------------------------------------------------------------------
# Online == offline (the acceptance criterion)
# ---------------------------------------------------------------------------

RELEASES = [0, 200, 200, 900, 1500, 1500, 1500, 4000]


class TestOfflineEquivalence:
    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_single_deployment_matches_trace(self, arch, tier):
        handle, completions, live = _run(
            _script(_deployment(arch, tier=tier), RELEASES)
        )
        offline = _deployment(arch, tier=tier).run_trace(RELEASES)
        assert live.to_dict() == offline.to_dict()
        assert [c.finish_cycle for c in completions] == live.input_finishes
        assert [c.latency_cycles for c in completions] == [
            f - r for f, r in zip(live.input_finishes, RELEASES)
        ]

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    @pytest.mark.parametrize("policy", ["rr", "jsq"])
    def test_fleet_matches_trace(self, arch, tier, policy):
        fleet_kw = dict(replicas=2, policy=policy)
        handle, completions, live = _run(
            _script(_fleet(arch, tier=tier, **fleet_kw), RELEASES)
        )
        offline = _fleet(arch, tier=tier, **fleet_kw).run_trace(RELEASES)
        assert live.to_dict() == offline.to_dict()
        assert [c.replica for c in completions] == live.assignments

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_faulted_fleet_matches_trace(self, arch, tier):
        plan = FaultPlan(
            events=(ReplicaCrash(replica=1, at_cycle=1000),),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=50),
        )
        handle, completions, live = _run(_script(
            _fleet(arch, tier=tier, replicas=2), RELEASES, faults=plan,
        ))
        offline = _fleet(arch, tier=tier, replicas=2).run_trace(
            RELEASES, faults=plan
        )
        assert live.to_dict() == offline.to_dict()
        assert live.submitted == live.completed + live.dropped

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_resident_session_matches_trace(self, arch, tier):
        dep_kw = dict(resident_weights=True)
        handle, completions, live = _run(
            _script(_deployment(arch, tier=tier, **dep_kw), RELEASES)
        )
        offline = _deployment(arch, tier=tier, **dep_kw).run_trace(RELEASES)
        assert live.to_dict() == offline.to_dict()
        [load] = live.replica_load_cycles
        assert load > 0
        warm = [
            e for e in handle.events
            if type(e).__name__ == "ReplicaStateChanged"
            and e.state == "warm"
        ]
        assert len(warm) == 1
        assert warm[0].at_cycle == load

    def test_resident_fleet_matches_trace(self, arch):
        kw = dict(replicas=2, resident_weights=True)
        handle, completions, live = _run(_script(_fleet(arch, **kw), RELEASES))
        offline = _fleet(arch, **kw).run_trace(RELEASES)
        assert live.to_dict() == offline.to_dict()

    def test_empty_session_drains_to_empty_report(self, arch):
        handle, completions, live = _run(_script(_deployment(arch), []))
        assert live.batch == 0
        assert completions == []


class TestCrossCheckFires:
    """Every cyclesim submission executes its served inputs once and holds
    each measured row to the profile its admissions were priced from.
    Skewing that profile (the execution does not read it) must raise,
    offline, under a fault plan and at a live session's drain."""

    @staticmethod
    def _skew_profile(dep):
        """Price shard 0 one cycle high; returns the match for the error."""
        row, edges = dep._service_profile()
        dep._profile = ([row[0] + 1, *row[1:]], edges)
        return (
            rf"served input 0 ran {row[0]} cycles on shard 0, but its "
            rf"admission was priced at the service profile's {row[0] + 1}"
        )

    def test_deployment_service_starts_diverge(self, arch):
        dep = _deployment(arch)
        with pytest.raises(SimulationError, match=self._skew_profile(dep)):
            _run(_script(dep, [0, 0]))

    def test_fleet_finish_cycles_diverge(self, arch):
        fleet = _fleet(arch, replicas=2)
        match = self._skew_profile(fleet)
        with pytest.raises(SimulationError, match=match):
            _run(_script(fleet, [0, 0]))

    def test_offline_deployment(self, arch):
        dep = _deployment(arch)
        with pytest.raises(SimulationError, match=self._skew_profile(dep)):
            dep.submit(batch=2)

    def test_offline_fleet(self, arch):
        fleet = _fleet(arch, replicas=2)
        match = self._skew_profile(fleet)
        with pytest.raises(SimulationError, match=match):
            fleet.submit(batch=2)

    def test_faulted_fleet(self, arch):
        fleet = _fleet(arch, replicas=2)
        match = self._skew_profile(fleet)
        plan = FaultPlan(events=(ReplicaCrash(replica=1, at_cycle=10**9),))
        with pytest.raises(SimulationError, match=match):
            fleet.submit(batch=2, faults=plan)


# ---------------------------------------------------------------------------
# Futures resolve with the promised cycles
# ---------------------------------------------------------------------------

class TestCompletionFutures:
    def test_unfaulted_future_resolves_at_admission(self, arch):
        async def scenario():
            clock = VirtualClock()
            handle = await _deployment(arch).serve_forever(clock=clock)
            future = await handle.submit(at=0)
            completion = await future  # resolves before drain
            assert handle.report is None
            assert completion.completed
            assert completion.replica == 0
            assert completion.latency_cycles == completion.finish_cycle
            report = await handle.drain()
            assert completion.finish_cycle == report.input_finishes[0]

        _run(scenario())

    def test_dropped_request_resolves_with_reason(self, arch):
        # Every attempt fails transiently -> max_attempts exhausts.
        plan = FaultPlan(
            events=(TransientRequestFailure(prob=1.0, seed=7),),
            retry=RetryPolicy(max_attempts=2, backoff_cycles=10),
        )
        async def scenario():
            fleet = _fleet(arch, tier="fast", replicas=2)
            handle = await fleet.serve_forever(
                clock=VirtualClock(), faults=plan
            )
            futures = [await handle.submit(at=i * 100) for i in range(4)]
            report = await handle.drain()
            completions = [await f for f in futures]
            assert all(c.dropped for c in completions)
            assert all(c.status == DROP_MAX_ATTEMPTS for c in completions)
            assert all(c.replica == -1 for c in completions)
            assert all(c.latency_cycles is None for c in completions)
            assert all(c.attempts == 2 for c in completions)
            assert report.dropped == 4

        _run(scenario())


# ---------------------------------------------------------------------------
# Determinism: byte-identical event streams
# ---------------------------------------------------------------------------

def _event_bytes(handle):
    return json.dumps([e.to_dict() for e in handle.events]).encode()


class TestDeterminism:
    def test_scripted_session_is_byte_identical(self, arch):
        runs = []
        for _ in range(2):
            handle, _, report = _run(
                _script(_fleet(arch, tier="fast", replicas=3,
                               policy="jsq"), RELEASES)
            )
            runs.append((
                _event_bytes(handle),
                json.dumps(report.to_dict(), sort_keys=True).encode(),
            ))
        assert runs[0] == runs[1]

    def test_mid_stream_crash_is_byte_identical(self, arch):
        plan = FaultPlan(
            events=(
                ReplicaCrash(replica=0, at_cycle=800),
                TransientRequestFailure(prob=0.5, seed=3),
            ),
            retry=RetryPolicy(
                max_attempts=3, backoff_cycles=25,
                per_request_deadline_cycles=100_000,
            ),
        )
        runs = []
        for _ in range(2):
            handle, _, report = _run(_script(
                _fleet(arch, tier="fast", replicas=2), RELEASES,
                faults=plan,
            ))
            runs.append((
                _event_bytes(handle),
                json.dumps(report.to_dict(), sort_keys=True).encode(),
            ))
        assert runs[0] == runs[1]
        crashed = [
            e for e in handle.events
            if type(e).__name__ == "ReplicaStateChanged"
            and e.state == "crashed"
        ]
        assert [e.replica for e in crashed] == [0]

    def test_event_stream_covers_every_request(self, arch):
        handle, completions, report = _run(
            _script(_fleet(arch, tier="fast", replicas=2), RELEASES)
        )
        admitted = [
            e.request for e in handle.events
            if type(e).__name__ == "RequestAdmitted"
        ]
        completed = [
            e.request for e in handle.events
            if type(e).__name__ == "RequestCompleted"
        ]
        assert admitted == list(range(len(RELEASES)))
        assert completed == list(range(len(RELEASES)))

    @staticmethod
    def _faulted():
        """A 2-replica fleet losing replica 0 mid-stream while half the
        attempts fail transiently."""
        return dict(faults=FaultPlan(
            events=(
                ReplicaCrash(replica=0, at_cycle=800),
                TransientRequestFailure(prob=0.5, seed=3),
            ),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=25),
        ))

    @pytest.mark.parametrize("case", ["clean", "faulted", "resident"])
    @pytest.mark.parametrize("subscribe_after", [0, 3])
    def test_subscriber_sees_the_recorded_stream(
        self, arch, case, subscribe_after
    ):
        """A queue subscribed after ``subscribe_after`` submissions
        receives exactly the recorded stream from that point: the warm
        and crashed replica events included, none sent twice."""
        server, serve_kw, changes = {
            "clean": (_deployment(arch), {}, set()),
            "faulted": (
                _fleet(arch, tier="fast", replicas=2), self._faulted(),
                {"crashed"},
            ),
            "resident": (
                _fleet(arch, tier="fast", replicas=2, resident_weights=True),
                {}, {"warm"},
            ),
        }[case]

        async def scenario():
            clock = VirtualClock()
            handle = await serve_forever(server, clock=clock, **serve_kw)
            for i, release in enumerate(RELEASES):
                if i == subscribe_after:
                    queue, seen = handle.subscribe(), len(handle.events)
                clock.advance_to(release)
                await handle.submit()
            await handle.drain()
            streamed = []
            while (event := await queue.get()) is not None:
                streamed.append(event)
            events = handle.events
            assert streamed == events[seen:]
            if subscribe_after == 0:
                # The opening replica-state events fired before subscribe().
                assert seen == handle.num_replicas
            assert {
                e.state for e in events
                if type(e).__name__ == "ReplicaStateChanged"
                and e.at_cycle > 0
            } == changes

        _run(scenario())

    async def _faulted_session(self, arch, end="drain", cancel=False):
        """Script ``RELEASES`` through the :meth:`_faulted` fleet and
        end it; ``cancel`` cancels the first future left pending by its
        ``submit()`` -- a request whose retry is queued."""
        clock = VirtualClock()
        handle = await serve_forever(
            _fleet(arch, tier="fast", replicas=2), clock=clock,
            **self._faulted(),
        )
        cancelled = []
        for release in RELEASES:
            clock.advance_to(release)
            future = await handle.submit()
            if cancel and not cancelled and not future.done():
                future.cancel()
                cancelled.append(future)
        assert len(cancelled) == cancel
        await getattr(handle, end)()
        return handle

    def test_cancelled_future_of_a_queued_retry(self, arch):
        """Cancelling a request whose retry is still queued changes
        nothing the session publishes: the retry settles at drain
        without ``InvalidStateError``, the event bytes equal the
        uncancelled run's and every request is accounted for."""
        handle = _run(self._faulted_session(arch, cancel=True))
        plain = _run(self._faulted_session(arch))
        assert _event_bytes(handle) == _event_bytes(plain)
        report = handle.report
        assert report.retries > 0
        assert report.submitted == report.completed + report.dropped

    def test_closed_session_still_replays_its_stream(self, arch):
        """``close()`` settles the queued retries without executing; the
        recorded stream is the drained session's, and it replays."""
        closed = _run(self._faulted_session(arch, end="close"))
        assert closed.report is None
        assert list(closed.iter_events()) == closed.events
        drained = _run(self._faulted_session(arch))
        assert _event_bytes(closed) == _event_bytes(drained)

    @pytest.mark.parametrize("end", ["drain", "close"])
    def test_subscribing_to_a_finished_session_does_not_hang(self, arch, end):
        """The end-of-session sentinel reaches a late subscriber too."""
        async def scenario():
            handle = await _deployment(arch, tier="fast").serve_forever(
                clock=VirtualClock()
            )
            await handle.submit()
            await getattr(handle, end)()
            queue = handle.subscribe()
            assert await asyncio.wait_for(queue.get(), 0.5) is None

        _run(scenario())
