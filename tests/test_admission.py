"""The one admission kernel (:class:`repro.sim.multichip.PipelineState`).

Every serving path -- the one fleet step, ``Dispatcher``, that
``Deployment``, ``Fleet``, the async runtime and the fast model's
``serve_fleet`` share, faulted or not -- consumes this kernel and the
one ``route`` law (``streaming_schedule`` folds it for the one-input
pipeline schedule), so its properties are pinned here once, as
shrinking property tests:

- the closed-form streaming law holds on random chain pipelines;
- the law is time-shift invariant and monotone in release times;
- ``in_flight`` (bisect) equals the brute-force count, hooks and crash
  cap included;
- the step on an empty plan is direct ``route`` + ``admit``;
- ``serve_fleet`` honours ``policy`` without a fault plan;
- every attempt passes through the one step, and is admitted, exactly
  once, offline and live, faulted and fault-free, in both tiers (the
  cycle tier also executes each input once), and a live session's
  report is the offline report of its releases;
- the kernel is held, state and errors included, to the recurrence as
  first written (``_reference_admit``), and the serving outputs that
  ride on it are pinned byte for byte;
- hostile inputs raise their typed error, fast.
"""

import asyncio
import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arrivals import latency_percentiles
from repro.config import InterChipConfig, small_test_arch
from repro.errors import ConfigError, SimulationError
from repro.faults import (
    AttemptRecord,
    FaultPlan,
    LinkDegrade,
    ReplicaCrash,
    ReplicaSlowdown,
    RetryPolicy,
    TransientRequestFailure,
    run_fault_schedule,
    save_fault_plan,
)
from repro.runtime import (
    ReplicaStateChanged,
    RequestAdmitted,
    RequestCompleted,
    RequestCompletion,
    RequestDropped,
    VirtualClock,
    serve_forever,
)
from repro.serve import Deployment, Fleet, PoissonArrivals
from repro.sim.fastmodel import FastReport, serve_fleet
from repro.sim.multichip import (
    Dispatcher,
    PipelineState,
    check_release,
    route,
    steady_state_interval,
    streaming_schedule,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

links = st.builds(
    InterChipConfig,
    bandwidth_bytes_per_cycle=st.integers(1, 64),
    latency_cycles=st.integers(0, 300),
)


@st.composite
def pipelines(draw, max_shards=5, skips=True):
    """``(row, edges)``: a connected pipeline -- the chain ``k-1 -> k``
    (every shard hears from its predecessor) plus random extra forward
    edges: duplicates of chain links, and skip links if ``skips``."""
    n = draw(st.integers(1, max_shards))
    row = draw(st.lists(st.integers(1, 400), min_size=n, max_size=n))
    edges = [(k - 1, k, draw(st.integers(1, 4096))) for k in range(1, n)]
    if n > 1:
        extra = draw(st.lists(
            st.tuples(
                st.integers(0, n - 2), st.integers(1, n - 1),
                st.integers(1, 4096),
            ).filter(lambda e: e[0] < e[1] if skips else e[0] + 1 == e[1]),
            max_size=4,
        ))
        edges = sorted(edges + extra)
    return row, edges


#: Non-decreasing release cycles.
releases = st.lists(st.integers(0, 600), min_size=1, max_size=24).map(
    lambda gaps: [sum(gaps[: i + 1]) - gaps[0] for i in range(len(gaps))]
)

windows = st.tuples(st.integers(0, 3000), st.integers(1, 3000)).map(
    lambda w: (w[0], w[0] + w[1])
)


def _admit_all(state, rel):
    return [state.admit(r) for r in rel]


# ---------------------------------------------------------------------------
# The law
# ---------------------------------------------------------------------------

class TestStreamingLaw:
    @settings(max_examples=150, deadline=None)
    @given(pipelines(skips=False), links, st.integers(1, 16))
    def test_closed_form_makespan(self, pipeline, link, batch):
        # Exact on chains, where the bottleneck is always on the critical
        # path; a skip link can hide a slower resource in a faster
        # path's slack for the first few inputs.
        row, edges = pipeline
        one = streaming_schedule([row], edges, link)[3]
        many = streaming_schedule([row] * batch, edges, link)[3]
        interval = steady_state_interval(row, edges, link)
        assert many == one + (batch - 1) * interval

    @settings(max_examples=100, deadline=None)
    @given(pipelines(), links, releases, st.integers(0, 10_000))
    def test_time_shift_invariance(self, pipeline, link, rel, shift):
        row, edges = pipeline
        base = _admit_all(PipelineState(row, edges, link), rel)
        moved = _admit_all(
            PipelineState(row, edges, link), [r + shift for r in rel]
        )
        assert moved == [(s + shift, f + shift) for s, f in base]

    @settings(max_examples=100, deadline=None)
    @given(pipelines(), links, releases, st.data())
    def test_delaying_a_release_never_speeds_anything_up(
        self, pipeline, link, rel, data
    ):
        row, edges = pipeline
        delays = data.draw(st.lists(
            st.integers(0, 500), min_size=len(rel), max_size=len(rel)
        ))
        late, floor = [], 0
        for r, d in zip(rel, delays):
            floor = max(floor, r + d)  # keep FIFO order
            late.append(floor)
        base = _admit_all(PipelineState(row, edges, link), rel)
        delayed = _admit_all(PipelineState(row, edges, link), late)
        assert all(d[1] >= b[1] for d, b in zip(delayed, base))

    @settings(max_examples=100, deadline=None)
    @given(pipelines(), links, releases)
    def test_schedule_is_the_fold_of_admit(self, pipeline, link, rel):
        row, edges = pipeline
        starts, _, finishes, makespan = streaming_schedule(
            [row] * len(rel), edges, link, rel
        )
        admitted = _admit_all(PipelineState(row, edges, link), rel)
        assert admitted == [(s[0], f) for s, f in zip(starts, finishes)]
        assert makespan == max(finishes)

    def test_zero_shard_pipeline_serves_instantly(self):
        link = InterChipConfig()
        assert PipelineState([], [], link).admit(7) == (7, 7)
        assert streaming_schedule([[], []], [], link, [3, 9])[2] == [3, 9]


class TestInFlight:
    @settings(max_examples=150, deadline=None)
    @given(
        pipelines(), links, releases,
        st.lists(st.tuples(st.floats(1.0, 4.0), windows), max_size=3),
        st.lists(st.tuples(st.floats(0.1, 1.0), windows), max_size=2),
        st.one_of(st.none(), st.integers(0, 6000)),
        st.lists(st.integers(0, 20_000), min_size=1, max_size=8),
    )
    def test_matches_brute_force_under_hooks_and_crash(
        self, pipeline, link, rel, slowdowns, degrades, crash, probes
    ):
        row, edges = pipeline
        plan = FaultPlan(events=tuple(
            ReplicaSlowdown(0, factor, start, end)
            for factor, (start, end) in slowdowns
        ) + tuple(
            LinkDegrade(bw, start, end) for bw, (start, end) in degrades
        ))
        service_time, link_time = plan.schedule_hooks(0, link)
        state = PipelineState(
            row, edges, link, service_time=service_time,
            link_time=link_time, crash=crash,
        )
        effective = []
        for r in rel:
            _, finish = state.admit(r)
            effective.append(finish if crash is None else min(finish, crash))
            for now in probes:
                assert state.in_flight(now) == sum(
                    1 for f in effective if f > now
                )
        assert state.finishes == sorted(state.finishes)


# ---------------------------------------------------------------------------
# The kernel against the recurrence as first written
# ---------------------------------------------------------------------------

def _reference_admit(self, release, row=None):
    """``PipelineState.admit`` as first written -- scratch ``arrival`` /
    ``starts`` / ``finishes`` lists and ``max()`` per resource -- kept
    verbatim as the oracle the kernel is held to."""
    check_release(release, self._release)
    self._release = release
    release = max(release, self.load_offset)
    n = len(self.prev_finish)
    if row is None:
        row = self.row
    elif len(row) != n:
        raise SimulationError(
            f"ragged service rows: got {len(row)} shard cycles for a "
            f"{n}-shard pipeline"
        )
    arrival = [0] * n
    if n:
        arrival[0] = release
    starts = [0] * n
    finishes = [0] * n
    prev_finish = self.prev_finish
    link_free = self._link_free
    service_time = self.service_time
    for k in range(n):
        start = max(arrival[k], prev_finish[k])
        occupancy = row[k]
        if service_time is not None:
            occupancy = service_time(k, start, occupancy)
        if occupancy < 0:
            raise SimulationError(
                f"shard {k} occupancy must be >= 0 cycles, got "
                f"{occupancy}"
            )
        starts[k] = start
        finishes[k] = finish = start + occupancy
        for key, nbytes, ser, lat in self._outbound[k]:
            depart = max(finish, link_free.get(key, 0))
            if ser is None:
                ser, lat = self.link_time(key[0], key[1], depart, nbytes)
            link_free[key] = depart + ser
            dst = key[1]
            arrival[dst] = max(arrival[dst], depart + lat)
    self.starts = starts
    self.prev_finish = finishes
    finish = max(finishes) if n else release
    self.finishes.append(
        finish if self.crash is None else min(finish, self.crash)
    )
    return (starts[0] if n else release), finish


def _kernel_state(state):
    return (
        state.starts, state.prev_finish, state.finishes, state._link_free,
        state._release,
    )


def _outcome(admit, state, release, row):
    """What one admission returns, or the error it raises."""
    try:
        return admit(state, release, row)
    except SimulationError as exc:
        return type(exc), str(exc)


#: A pipeline with no shards next to the connected ones.
any_pipeline = st.one_of(pipelines(), st.just(([], [])))


class TestKernelOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        any_pipeline, links, releases,
        st.lists(st.tuples(st.floats(1.0, 4.0), windows), max_size=3),
        st.lists(st.tuples(st.floats(0.1, 1.0), windows), max_size=2),
        st.one_of(st.none(), st.integers(0, 6000)),
        st.integers(0, 800), st.booleans(), st.data(),
    )
    def test_kernel_is_the_reference(
        self, pipeline, link, rel, slowdowns, degrades, crash, offset,
        explicit, data,
    ):
        """Same ``(start, finish)`` and the same state after every input,
        under slowdown / link-degrade windows, crashes, a load offset and
        explicit per-input rows."""
        row, edges = pipeline
        plan = FaultPlan(events=tuple(
            ReplicaSlowdown(0, factor, start, end)
            for factor, (start, end) in slowdowns
        ) + tuple(
            LinkDegrade(bw, start, end) for bw, (start, end) in degrades
        ))
        service_time, link_time = plan.schedule_hooks(0, link)
        kernel, oracle = (
            PipelineState(
                row, edges, link, service_time=service_time,
                link_time=link_time, crash=crash, load_offset=offset,
            )
            for _ in range(2)
        )
        for release in rel:
            per_input = data.draw(st.lists(
                st.integers(0, 400), min_size=len(row), max_size=len(row)
            )) if explicit else None
            assert kernel.admit(release, per_input) == _reference_admit(
                oracle, release, per_input
            )
            assert _kernel_state(kernel) == _kernel_state(oracle)

    @settings(max_examples=150, deadline=None)
    @given(
        any_pipeline, links, releases,
        st.sampled_from(["ragged", "negative", "regress"]), st.data(),
    )
    def test_hostile_input_raises_the_reference_error(
        self, pipeline, link, rel, hostile, data
    ):
        row, edges = pipeline
        kernel = PipelineState(row, edges, link)
        oracle = PipelineState(row, edges, link)
        for release in rel:
            kernel.admit(release)
            _reference_admit(oracle, release)
        release, bad_row = rel[-1], None
        if hostile == "ragged":
            bad_row = data.draw(st.lists(
                st.integers(0, 400), max_size=6
            ).filter(lambda r: len(r) != len(row)))
        elif hostile == "negative":
            assume(row)
            bad_row = list(row)
            bad_row[data.draw(st.integers(0, len(row) - 1))] = -data.draw(
                st.integers(1, 400)
            )
        else:
            release -= data.draw(st.integers(1, 50))
        expected = _outcome(_reference_admit, oracle, release, bad_row)
        assert expected[0] is SimulationError
        assert _outcome(
            PipelineState.admit, kernel, release, bad_row
        ) == expected


# ---------------------------------------------------------------------------
# Byte pins: the serving outputs the kernel and the records feed
# ---------------------------------------------------------------------------

def _loop_poisson(rate, seed, n, cycle_ns):
    """``PoissonArrivals.release_cycles`` as a Python loop: the reference
    the vectorised draw must equal exactly."""
    rng = np.random.default_rng(seed)
    t, out = 0.0, []
    for gap in rng.exponential(1e9 / (rate * cycle_ns), size=n):
        t += gap
        out.append(int(round(t)))
    return out


#: The event stream of ``test_runtime.TestDeterminism``'s faulted script.
EVENTS_SHA256 = (
    "f37359ba7119e747dca58a5a94909ed58c18e376c8776f0e7f41108cf1bbdd9b"
)

#: ``repro watch --snapshot`` files of the ``live_session`` benchmark
#: commands at smoke scale, seed 0.
SNAPSHOT_SHA256 = {
    "clean": (
        "8846a854c09e6a8bdd184f7b82ff75b46d58c5facd68658a6308283f54f392fe"
    ),
    "faulted": (
        "d13319bdb4c6a5ffe4702a5c3359c55e8e1ddd9cd892fc3442de966bb266740b"
    ),
}


#: ``repro serve --json`` files: the three ``serve_fleet`` benchmark
#: commands at smoke scale (seed 0), CI's cyclesim faulted fleet, and a
#: fast resident 2-replica fleet under a crash plan.  Re-pinned (with
#: the ``serve_*`` pins below) when every submission became one
#: ``FleetReport``: each value the old files carried is unchanged, the
#: fault-free availability fields are now filled.
SERVE_SHA256 = {
    "rr": (
        "7c5a64dc0e8daac20db1b120f4e608c8ecd90e5e8fe290cac7543d784acbf2f8"
    ),
    "jsq": (
        "33c79e326aed01d8b72a7bbb64be05b5e7ec1bad9aab73dd9b76f27551c3f5f9"
    ),
    "faulted": (
        "ef6a79f77cadc2ddc5ab5afe015ddc350d0bcfb94d4a2e7dc792540e1c3b7e02"
    ),
    "cyclesim_faulted": (
        "ffaee4ef59d133d14535ec7f24c43b74280cfafbdd210445b98422f3446c3c28"
    ),
    "resident_crash": (
        "3df387acc7812b0d846a67f9fe4ff8856e46b7d2be95c2ff705a07d22fa679e0"
    ),
}

#: ``repro run`` / ``repro serve --json`` files of plain deployments
#: (one replica, no fault plan) and of an artifact-backed fleet: a run
#: of the 2-chip artifact, a streamed run, CI's rate smoke, the
#: weight-streaming workload cold, resident and as a resident 2-replica
#: fleet, and the artifact served through a 2-replica jsq fleet.
DEPLOYMENT_SHA256 = {
    "run_artifact": (
        "21d78340b357d4b0aa1d89d56c424a8970600ece74077b4cf3cc9694c0fb5bce"
    ),
    "run_batch": (
        "6b9cfbe4b3f47253c19720b62709f99a8a838ec1f3a193a6e3b6928ff74fab7f"
    ),
    "serve_rate": (
        "095bb87ffd693c7bb5563d274ea5f87b1565c79596399afa62acc122b887ad2e"
    ),
    "serve_plain": (
        "a54094ed48adff4917f3504448065a2a7f0c02736863d97a7fbde8364fd302f5"
    ),
    "serve_resident": (
        "2b22146b8117815bd890a6c92d364e390dc444e9f57b0256cda4f7809d26a6de"
    ),
    "serve_resident_fleet": (
        "c1362910e93f14c77ed5971c255ead44e5d36be354719ef0025d5a46bd4d4f9a"
    ),
    "serve_artifact_fleet": (
        "67892f7c85e543c3f7be608b67735abfb7afc52db8aa7ca18b2a55e116be4553"
    ),
}

#: The fleet model of the ``serve_fleet`` / ``live_session`` benchmarks.
FLEET_MODEL = [
    "tiny_resnet", "--preset", "small", "--chips", "2", "--input-size",
    "8", "--num-classes", "10", "--tier", "fast",
]


def _serve_commands():
    """``{name: serve argv}`` of every :data:`SERVE_SHA256` pin, with
    its files in the working directory (a report names its artifact by
    the path it was given)."""
    save_fault_plan(FaultPlan(
        events=(
            ReplicaCrash(replica=1, at_cycle=100 * 400),
            TransientRequestFailure(prob=0.05, seed=0),
        ),
        retry=RetryPolicy(max_attempts=3, backoff_cycles=0),
    ), "plan.json")
    save_fault_plan(FaultPlan(
        events=(ReplicaCrash(replica=1, at_cycle=10_000),),
        retry=RetryPolicy(max_attempts=3, backoff_cycles=1_000),
    ), "crash.json")
    save_fault_plan(FaultPlan(
        events=(ReplicaCrash(replica=1, at_cycle=2_000),),
        retry=RetryPolicy(max_attempts=3, backoff_cycles=100),
    ), "early_crash.json")
    fleet = ["serve", *FLEET_MODEL, "--arrival-seed", "0"]
    return {
        "rr": fleet + ["--replicas", "4", "--policy", "rr", "--poisson",
                       "1600000", "--batch", "500"],
        "jsq": fleet + ["--replicas", "4", "--policy", "jsq", "--poisson",
                        "1600000", "--batch", "300"],
        "faulted": fleet + ["--replicas", "3", "--policy", "rr",
                            "--poisson", "1200000", "--batch", "400",
                            "--faults", "plan.json"],
        "cyclesim_faulted": [
            "serve", "tiny_resnet.artifact", "--preset",
            "small", "--replicas", "3", "--batch", "9", "--rate", "200000",
            "--faults", "crash.json",
        ],
        "resident_crash": [
            "serve", *FLEET_MODEL, "--resident", "--replicas", "2",
            "--batch", "12", "--faults", "early_crash.json",
        ],
    }


def _deployment_commands():
    """``{name: run/serve argv}`` of every :data:`DEPLOYMENT_SHA256` pin."""
    small = ["tiny_resnet", "--preset", "small", "--input-size", "8",
             "--chips", "2"]
    stream = ["serve", "weight_stream", "--batch", "4", "--no-validate"]
    return {
        "run_artifact": ["run", "tiny_resnet.artifact", "--preset", "small"],
        "run_batch": ["run", *small, "--batch", "4"],
        "serve_rate": ["serve", *small, "--batch", "6", "--rate", "200000"],
        "serve_plain": stream,
        "serve_resident": stream + ["--resident"],
        "serve_resident_fleet": stream + ["--resident", "--replicas", "2"],
        "serve_artifact_fleet": [
            "serve", "tiny_resnet.artifact", "--preset", "small",
            "--replicas", "2", "--policy", "jsq", "--batch", "6",
            "--rate", "200000",
        ],
    }


class TestPinnedBytes:
    @staticmethod
    def _check_json(tmp_path, monkeypatch, commands, pins):
        """Run each of ``commands()`` with ``--json`` next to the 2-chip
        ``tiny_resnet.artifact`` and compare the file's SHA-256."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main([
            "compile", "tiny_resnet", "--preset", "small", "--input-size",
            "8", "--chips", "2", "-o", "tiny_resnet.artifact",
        ]) == 0
        for name, argv in commands().items():
            assert main(argv + ["--json", f"{name}.json"]) == 0
            digest = hashlib.sha256(
                (tmp_path / f"{name}.json").read_bytes()
            ).hexdigest()
            assert digest == pins[name], name

    def test_serve_json(self, tmp_path, monkeypatch, capsys):
        self._check_json(
            tmp_path, monkeypatch, _serve_commands, SERVE_SHA256
        )

    def test_deployment_json(self, tmp_path, monkeypatch, capsys):
        self._check_json(
            tmp_path, monkeypatch, _deployment_commands, DEPLOYMENT_SHA256
        )

    @pytest.mark.parametrize("rate", [250_000.0, 1_200_000.0, 1_600_000.0])
    def test_poisson_draw_is_the_loop(self, rate):
        cycle_ns = small_test_arch().chip.cycle_ns
        for seed in range(10):
            for n in (0, 1, 40_000):
                assert PoissonArrivals(rate, seed).release_cycles(
                    n, cycle_ns
                ) == _loop_poisson(rate, seed, n, cycle_ns)

    def test_faulted_event_stream(self):
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
        fleet = Fleet(
            "tiny_mlp", small_test_arch(), tier="fast", replicas=2,
            input_size=8, num_classes=10,
        )

        async def scenario():
            clock = VirtualClock()
            handle = await serve_forever(fleet, clock=clock, faults=plan)
            for release in [0, 200, 200, 900, 1500, 1500, 1500, 4000]:
                clock.advance_to(release)
                await handle.submit()
            await handle.drain()
            return handle

        handle = asyncio.run(scenario())
        stream = json.dumps([e.to_dict() for e in handle.events]).encode()
        assert hashlib.sha256(stream).hexdigest() == EVENTS_SHA256

    def test_watch_snapshots(self, tmp_path, capsys):
        from repro.cli import main

        save_fault_plan(FaultPlan(
            events=(
                ReplicaCrash(replica=1, at_cycle=100 * 400),
                TransientRequestFailure(prob=0.05, seed=0),
            ),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=0),
        ), tmp_path / "plan.json")
        base = [
            "watch", "tiny_resnet", "--preset", "small", "--chips", "2",
            "--input-size", "8", "--num-classes", "10", "--tier", "fast",
            "--replicas", "3", "--policy", "rr", "--poisson", "1200000",
            "--arrival-seed", "0",
        ]
        runs = {
            "clean": ["--batch", "500"],
            "faulted": ["--batch", "400", "--faults",
                        str(tmp_path / "plan.json")],
        }
        for name, flags in runs.items():
            path = tmp_path / f"{name}.json"
            assert main(base + flags + ["--snapshot", str(path)]) == 0
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == SNAPSHOT_SHA256[name], name


@pytest.mark.parametrize("record", [
    RequestAdmitted(0, 10, 1, 12),
    RequestCompleted(0, 10, 1, 90, 80, 1),
    RequestDropped(0, 10, "deadline", 2),
    ReplicaStateChanged(1, "crashed", 400),
    RequestCompletion(0, 10, 1, 90, 80),
    AttemptRecord(0, 1, 1, 12, 90, "completed", 12, 10),
], ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    first = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, first, 7)
    assert getattr(record, first) != 7


# ---------------------------------------------------------------------------
# One routing law, every consumer
# ---------------------------------------------------------------------------

class TestRouting:
    @settings(max_examples=100, deadline=None)
    @given(
        pipelines(), links, releases, st.integers(1, 4),
        st.sampled_from(["rr", "jsq"]), st.data(),
    )
    def test_empty_plan_engine_is_direct_route_and_admit(
        self, pipeline, link, rel, replicas, policy, data
    ):
        row, edges = pipeline
        offsets = data.draw(st.lists(
            st.integers(0, 800), min_size=replicas, max_size=replicas
        ))
        schedule = run_fault_schedule(
            rel, row, edges, link, replicas, policy, load_offsets=offsets
        )
        states = [
            PipelineState(row, edges, link, load_offset=o) for o in offsets
        ]
        assignments, finishes = [], []
        for index, release in enumerate(rel):
            choice = route(policy, states, release, index)
            assignments.append(choice)
            finishes.append(states[choice].admit(release)[1])
        assert schedule.assignments == assignments
        assert schedule.finishes == finishes
        assert schedule.dropped == []

    def test_serve_fleet_honours_policy_without_a_plan(self):
        from repro.explore import evaluate_fast
        from repro.serve import PoissonArrivals

        arch = small_test_arch()
        base = evaluate_fast("tiny_mlp", arch, "generic", 8, 10).report
        rel = PoissonArrivals(
            0.8 * 3 * base.throughput_inf_per_s, seed=7
        ).release_cycles(200, arch.chip.cycle_ns)
        fleet = Fleet(
            "tiny_mlp", arch, strategy="generic", tier="fast", replicas=3,
            policy="jsq", input_size=8, num_classes=10,
        ).run_trace(rel)
        priced = {
            policy: serve_fleet(base, rel, arch.interchip, 3, policy=policy)
            for policy in ("rr", "jsq")
        }
        jsq = priced["jsq"]
        assert jsq.cycles == fleet.makespan_cycles
        assert (
            jsq.p50_latency_cycles, jsq.p95_latency_cycles,
            jsq.p99_latency_cycles,
        ) == (
            fleet.p50_latency_cycles, fleet.p95_latency_cycles,
            fleet.p99_latency_cycles,
        )
        # ... and the trace is one where the policies actually differ.
        assert priced["rr"].to_dict() != jsq.to_dict()
        forced = serve_fleet(
            base, rel, arch.interchip, 3, policy="jsq", faults=FaultPlan(),
        )
        assert forced.to_dict() == jsq.to_dict()

    @pytest.mark.parametrize("retry", [None, RetryPolicy()])
    def test_serve_fleet_sorts_its_latencies_once(self, retry, monkeypatch):
        """p50 / p95 / p99 of a fleet report come from one sort of the
        stream, fault-free and under a retry policy."""
        import repro.arrivals

        real = repro.arrivals.latency_percentiles
        calls = []

        def counting(latencies, pcts):
            calls.append(tuple(pcts))
            return real(latencies, pcts)

        monkeypatch.setattr(repro.arrivals, "latency_percentiles", counting)
        base = FastReport(
            cycles=100, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
            shard_cycles=[40, 60], shard_edges=[(0, 1, 256)],
        )
        releases = [0, 10, 20, 300, 310, 900]
        report = serve_fleet(
            base, releases, InterChipConfig(), 2, policy="jsq", retry=retry,
        )
        assert calls == [(50, 95, 99)]
        dispatcher = Dispatcher("jsq", [
            PipelineState([40, 60], [(0, 1, 256)], InterChipConfig())
            for _ in range(2)
        ])
        for release in releases:
            dispatcher.dispatch(release)
        latencies = [f - r for f, r in zip(dispatcher.finishes, releases)]
        assert [
            report.p50_latency_cycles, report.p95_latency_cycles,
            report.p99_latency_cycles,
        ] == [latency_percentiles(latencies, [pct])[0] for pct in (50, 95, 99)]


# ---------------------------------------------------------------------------
# Admit once: offline and live, one admission per attempt
# ---------------------------------------------------------------------------

def _tiny(server, arch=None, **kw):
    return server(
        "tiny_mlp", arch or small_test_arch(), strategy="generic",
        input_size=8, num_classes=10, **kw,
    )


def _live(server, rel, **serve_kw):
    """Script ``rel`` through a virtual-clock session and drain it;
    returns ``(completions, report)``."""
    async def scenario():
        clock = VirtualClock()
        handle = await serve_forever(server, clock=clock, **serve_kw)
        futures = []
        for release in rel:
            clock.advance_to(release)
            futures.append(await handle.submit())
        report = await handle.drain()
        return [await f for f in futures], report

    return asyncio.run(scenario())


@pytest.fixture
def admissions(monkeypatch):
    """Counts ``PipelineState.admit`` calls (the count repeats exactly)."""
    calls = []
    admit = PipelineState.admit

    def counted(self, *args, **kwargs):
        calls.append(1)
        return admit(self, *args, **kwargs)

    monkeypatch.setattr(PipelineState, "admit", counted)
    return calls


N = 100
TRACE = [37 * i for i in range(N)]
CRASHY = FaultPlan(
    events=(
        ReplicaCrash(replica=1, at_cycle=1500),
        TransientRequestFailure(prob=0.2, seed=5),
    ),
    retry=RetryPolicy(max_attempts=3, backoff_cycles=20),
)


def _primed(server, admissions):
    """``server`` with its one-input service profile priced before the
    count starts: the fast tier composes the one-input pipeline, and the
    cyclesim tier measures a probe input and keeps its pipeline windows
    (one admission either way)."""
    server._service_profile()
    del admissions[:]
    return server


class TestAdmitOnce:
    """The law: every attempt passes through the one fleet step, and
    costs one kernel admission, exactly once -- whether the stream is
    folded offline or fed live and then drained, faulted or not."""

    @pytest.mark.parametrize("policy", ["rr", "jsq"])
    def test_offline_fleet(self, admissions, dispatches, policy):
        fleet = _primed(
            _tiny(Fleet, tier="fast", replicas=3, policy=policy), admissions
        )
        fleet.run_trace(TRACE)
        assert len(admissions) == len(dispatches) == N

    @pytest.mark.parametrize("policy", ["rr", "jsq"])
    def test_drained_live_fleet(self, admissions, dispatches, policy):
        fleet = _primed(
            _tiny(Fleet, tier="fast", replicas=3, policy=policy), admissions
        )
        _, report = _live(fleet, TRACE)
        assert report.batch == N
        assert len(admissions) == len(dispatches) == N

    def test_drained_live_deployment(self, admissions, dispatches):
        deployment = _primed(_tiny(Deployment, tier="fast"), admissions)
        _, report = _live(deployment, TRACE)
        assert report.batch == N
        assert len(admissions) == len(dispatches) == N

    def test_offline_faulted_fleet(self, admissions, dispatches):
        fleet = _primed(_tiny(Fleet, tier="fast", replicas=3), admissions)
        report = fleet.run_trace(TRACE, faults=CRASHY)
        assert report.retries > 0
        assert len(admissions) == len(dispatches) == sum(
            report.attempt_counts
        )

    @pytest.mark.parametrize("tier,count", [("fast", N), ("cyclesim", 12)])
    def test_drained_live_faulted_fleet(
        self, admissions, dispatches, tier, count
    ):
        fleet = _primed(_tiny(Fleet, tier=tier, replicas=3), admissions)
        _, report = _live(fleet, TRACE[:count], faults=CRASHY)
        assert report.retries > 0
        assert len(admissions) == len(dispatches) == sum(
            report.attempt_counts
        )

    @pytest.mark.parametrize("live", [False, True], ids=["offline", "live"])
    @pytest.mark.parametrize("server,kw", [
        (Deployment, {}),
        (Fleet, {"replicas": 3, "policy": "rr"}),
        (Fleet, {"replicas": 3, "policy": "jsq"}),
    ], ids=["deployment", "fleet3-rr", "fleet3-jsq"])
    def test_cyclesim(self, admissions, dispatches, server, kw, live):
        # The cycle tier prices what the one dispatcher recorded: the
        # executed rows are checked against the profile, not admitted
        # again.
        server = _primed(_tiny(server, **kw), admissions)
        trace = TRACE[:12]
        if live:
            _, report = _live(server, trace)
        else:
            report = server.run_trace(trace)
        assert report.batch == len(trace)
        assert len(admissions) == len(dispatches) == len(trace)

    @pytest.mark.parametrize("server,kw", [
        (Deployment, {}), (Fleet, {"replicas": 3, "policy": "jsq"}),
    ], ids=["deployment", "fleet3"])
    def test_cyclesim_executes_once(self, monkeypatch, server, kw):
        # An offline submission executes its own inputs once and prices
        # its admissions from its first measured row: no probe input.
        executed = []
        execute = Deployment._execute

        def counted(self, inputs):
            executed.append(len(inputs))
            return execute(self, inputs)

        monkeypatch.setattr(Deployment, "_execute", counted)
        _tiny(server, **kw).run_trace(TRACE[:5])
        assert executed == [5]


@pytest.fixture
def dispatches(monkeypatch):
    """Counts the attempts that pass through the one fleet step
    (``Dispatcher._attempt``: a first attempt from ``dispatch``, a
    retry from the queue), faulted or not."""
    calls = []
    attempt = Dispatcher._attempt

    def counted(self, *args, **kwargs):
        calls.append(1)
        return attempt(self, *args, **kwargs)

    monkeypatch.setattr(Dispatcher, "_attempt", counted)
    return calls


def _synthetic_server(row, edges, link, replicas, policy, load, bare):
    """A fast-tier server whose one-input profile is ``(row, edges)``.

    The real ``tiny_mlp`` plan stays in place (graph, strategy); the
    deployment's analytical price (per-shard reports composed over the
    transfer edges), the edges and -- ``load`` not ``None`` -- the
    resident load phase are substituted, so the serving stack above the
    profile runs unmodified on a random pipeline.
    """
    from repro.sim.fastmodel import compose_pipeline

    arch = dataclasses.replace(small_test_arch(), interchip=link)
    resident = load is not None
    fleet = {} if bare else {"replicas": replicas, "policy": policy}
    server = _tiny(
        Deployment if bare else Fleet, arch, tier="fast",
        resident_weights=resident, **fleet,
    )
    shards = [
        FastReport(
            cycles=cycles, energy_breakdown_pj={"compute": 10.0 * (k + 1)},
            macs=7, clock_mhz=arch.chip.clock_mhz,
        )
        for k, cycles in enumerate(row)
    ]
    server._plans = server._plans * len(row)
    server._edges = list(edges)
    report = compose_pipeline(shards, list(edges), arch, 0)
    server._fast = (report, load, {"weights": 3.0}) if resident else (
        report, 0, {}
    )
    return server


@st.composite
def fault_plans(draw, replicas):
    """A random plan over ``replicas`` replicas: crashes, slowdown and
    link-degrade windows, transient failures, a retry policy."""
    replica = st.integers(0, replicas - 1)
    events = draw(st.lists(st.one_of(
        st.builds(ReplicaCrash, replica, st.integers(0, 6000)),
        st.builds(
            lambda r, factor, w: ReplicaSlowdown(r, factor, *w),
            replica, st.floats(1.0, 4.0), windows,
        ),
        st.builds(
            lambda bw, w, r: LinkDegrade(bw, *w, replica=r),
            st.floats(0.1, 1.0), windows, st.one_of(st.none(), replica),
        ),
        st.builds(
            TransientRequestFailure, st.floats(0.0, 0.6),
            st.integers(0, 50),
        ),
    ), max_size=4))
    retry = draw(st.builds(
        RetryPolicy, max_attempts=st.integers(1, 4),
        backoff_cycles=st.integers(0, 200),
        per_request_deadline_cycles=st.one_of(
            st.none(), st.integers(1, 8000)
        ),
    ))
    return FaultPlan(events=tuple(events), retry=retry)


class TestLiveSessionIsTheOfflineReport:
    @settings(max_examples=120, deadline=None)
    @given(
        pipelines(), links, releases, releases, st.integers(1, 4),
        st.sampled_from(["rr", "jsq"]),
        st.one_of(st.none(), st.integers(0, 800)), st.data(),
    )
    def test_report_completions_and_warmth(
        self, pipeline, link, rel, rel_again, replicas, policy, load, data
    ):
        row, edges = pipeline
        plan = data.draw(st.one_of(st.none(), fault_plans(replicas)))
        bare = plan is None and replicas == 1 and data.draw(st.booleans())
        servers = [
            _synthetic_server(row, edges, link, replicas, policy, load, bare)
            for _ in range(2)
        ]
        kwargs = {} if plan is None else {"faults": plan}
        # Two sessions back to back on one server: the second sees the
        # warmth (resident sessions) the first one's drain left behind.
        sessions = []
        for trace in (rel, rel_again):
            completions, live = _live(servers[0], trace, **kwargs)
            offline = servers[1].run_trace(trace, **kwargs)
            assert live.to_dict() == offline.to_dict()
            dropped = set(live.dropped_indices)
            assert [
                (c.finish_cycle, c.completed) for c in completions
            ] == [
                (finish, i not in dropped)
                for i, finish in enumerate(live.input_finishes)
            ]
            sessions.append(live)
        first, second = sessions
        if load is not None and plan is None:
            # Whoever served in the first session is warm in the second.
            if bare:
                assert (
                    first.replica_load_cycles, second.replica_load_cycles
                ) == ([load], [0])
            else:
                assert all(
                    second.replica_load_cycles[r] == 0
                    for r in set(first.assignments)
                )


# ---------------------------------------------------------------------------
# Hostile inputs: typed, and fast
# ---------------------------------------------------------------------------

LINK = InterChipConfig()
ROW = [40, 60]
EDGES = [(0, 1, 256)]


def _dispatch(release):
    dispatcher = Dispatcher(
        "rr", [PipelineState(ROW, EDGES, LINK) for _ in range(2)]
    )
    dispatcher.dispatch(5)
    dispatcher.dispatch(release)


def _live_submit(release):
    from repro.runtime import VirtualClock

    async def scenario():
        fleet = Fleet(
            "tiny_mlp", small_test_arch(), strategy="generic", tier="fast",
            replicas=2, input_size=8, num_classes=10,
        )
        handle = await fleet.serve_forever(clock=VirtualClock())
        try:
            await handle.submit(at=5)
            await handle.submit(at=release)
        finally:
            await handle.close()

    asyncio.run(scenario())


def _fast_base():
    from repro.sim.fastmodel import FastReport

    return FastReport(
        cycles=100, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
        shard_cycles=list(ROW), shard_edges=list(EDGES),
    )


HOSTILE = [
    # -- negative or decreasing releases, at every entry point -------------
    (SimulationError, lambda: streaming_schedule([ROW], EDGES, LINK, [-5])),
    (SimulationError,
     lambda: streaming_schedule([ROW] * 2, EDGES, LINK, [9, 3])),
    (SimulationError,
     lambda: run_fault_schedule([-5, 0, 3], ROW, EDGES, LINK, 2)),
    (SimulationError,
     lambda: run_fault_schedule([5, 3], ROW, EDGES, LINK, 2)),
    (SimulationError, lambda: _dispatch(-1)),
    (SimulationError, lambda: _dispatch(4)),
    (SimulationError, lambda: serve_fleet(_fast_base(), [-5, 0], LINK, 2)),
    (SimulationError, lambda: serve_fleet(_fast_base(), [9, 3], LINK, 1)),
    # the live session keeps its ConfigError contract, same rule
    (ConfigError, lambda: _live_submit(-1)),
    (ConfigError, lambda: _live_submit(4)),
    # -- malformed pipelines -----------------------------------------------
    (SimulationError,
     lambda: streaming_schedule([[40, 60], [40]], EDGES, LINK)),
    (SimulationError, lambda: streaming_schedule([ROW], [(0, 2, 8)], LINK)),
    (SimulationError, lambda: streaming_schedule([ROW], [(-1, 1, 8)], LINK)),
    (SimulationError, lambda: streaming_schedule([ROW], [(1, 0, 8)], LINK)),
    (SimulationError, lambda: streaming_schedule([ROW], [(1, 1, 8)], LINK)),
    (SimulationError, lambda: streaming_schedule([[40, -60]], EDGES, LINK)),
    (SimulationError,
     lambda: run_fault_schedule([0], ROW, [(0, 5, 8)], LINK, 2)),
    # -- malformed fleets ---------------------------------------------------
    (ConfigError,
     lambda: run_fault_schedule([0], ROW, EDGES, LINK, 2, policy="bogus")),
    (ConfigError,
     lambda: run_fault_schedule([], ROW, EDGES, LINK, 2, policy="bogus")),
    (ConfigError,
     lambda: serve_fleet(_fast_base(), [0], LINK, 2, policy="bogus")),
    (ConfigError,
     lambda: serve_fleet(
         _fast_base(), [0], LINK, 2, policy="bogus", faults=FaultPlan()
     )),
    (ConfigError,
     lambda: route("bogus", [PipelineState(ROW, EDGES, LINK)], 0, 0)),
    (ConfigError, lambda: run_fault_schedule([0], ROW, EDGES, LINK, 0)),
    (ConfigError, lambda: serve_fleet(_fast_base(), [0], LINK, 0)),
]


@pytest.mark.parametrize("error,call", HOSTILE)
def test_hostile_input_raises_typed_error_fast(error, call):
    started = time.perf_counter()
    with pytest.raises(error):
        call()
    assert time.perf_counter() - started < 1.0
