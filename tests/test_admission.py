"""The one admission kernel (:class:`repro.sim.multichip.PipelineState`).

Every serving path -- ``streaming_schedule``, ``Fleet`` dispatch, the
``FailoverEngine``, the async runtime and the fast model's
``serve_fleet`` -- consumes this kernel and the one ``route`` law, so
its properties are pinned here once, as shrinking property tests:

- the closed-form streaming law holds on random chain pipelines;
- the law is time-shift invariant and monotone in release times;
- ``in_flight`` (bisect) equals the brute-force count, hooks and crash
  cap included;
- the failover engine on an empty plan is direct ``route`` + ``admit``;
- ``serve_fleet`` honours ``policy`` without a fault plan;
- hostile inputs raise their typed error, fast.
"""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import InterChipConfig, small_test_arch
from repro.errors import ConfigError, SimulationError
from repro.faults import (
    FailoverEngine,
    FaultPlan,
    LinkDegrade,
    ReplicaSlowdown,
    run_fault_schedule,
)
from repro.serve import Fleet
from repro.sim.fastmodel import serve_fleet
from repro.sim.multichip import (
    PipelineState,
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


# ---------------------------------------------------------------------------
# Hostile inputs: typed, and fast
# ---------------------------------------------------------------------------

LINK = InterChipConfig()
ROW = [40, 60]
EDGES = [(0, 1, 256)]


def _engine_push(release):
    engine = FailoverEngine(ROW, EDGES, LINK, 2)
    engine.push(5)
    engine.push(release)


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
    (SimulationError, lambda: _engine_push(-1)),
    (SimulationError, lambda: _engine_push(4)),
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
