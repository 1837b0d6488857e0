"""The serving API: Deployment sessions + continuous-arrival streaming.

The contract under test (``docs/ARCHITECTURE.md``, "Serving sessions"):

- **one queueing law**: ``start[i][k] = max(release_i if k == 0,
  finish[i-1][k], inbound arrival)``; with all-zero releases the
  schedule is bit-identical to the PR-4 batched schedule, so batched
  mode is the ``BackToBack`` special case;
- **session state**: the compiled model (programs + weights) persists
  across submissions; chip state does not -- per-input outputs stay
  bit-identical to independent runs under any arrival process;
- **both fidelity tiers share the law**: the cyclesim and fast tiers
  price the same schedule over their own per-shard occupancies, so
  below the saturation rate p99 latency is flat in the batch size and
  above it latency grows without bound -- in both tiers;
- queueing edge cases: empty trace, single input, arrivals after
  pipeline drain, ties between release and ready cycles.
"""

import numpy as np
import pytest

from repro import (
    BackToBack,
    Deployment,
    FixedInterval,
    Fleet,
    FixedRate,
    PoissonArrivals,
    TraceArrivals,
    compile_model,
)
from repro.arrivals import latency_percentiles
from repro.config import InterChipConfig
from repro.errors import ConfigError
from repro.sim.fastmodel import analyze_plan, serve_fleet, stream_batched
from repro.sim.multichip import (
    steady_state_interval,
    streaming_schedule,
)


def _deploy(arch, chips=1, tier="cyclesim", model="tiny_resnet"):
    return Deployment(
        model, arch, chips=chips, tier=tier, input_size=8, num_classes=10
    )


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

class TestArrivalProcesses:
    def test_back_to_back_is_all_zero(self):
        assert BackToBack().release_cycles(4, 2.0) == [0, 0, 0, 0]

    def test_fixed_interval(self):
        assert FixedInterval(100).release_cycles(3, 2.0) == [0, 100, 200]

    def test_fixed_rate_converts_to_cycles(self):
        # 1e6 inf/s at 2 ns/cycle -> 500 cycles between arrivals.
        assert FixedRate(1e6).release_cycles(3, 2.0) == [0, 500, 1000]

    def test_poisson_is_seed_reproducible(self):
        a = PoissonArrivals(1e6, seed=42).release_cycles(8, 2.0)
        b = PoissonArrivals(1e6, seed=42).release_cycles(8, 2.0)
        c = PoissonArrivals(1e6, seed=43).release_cycles(8, 2.0)
        assert a == b
        assert a != c
        assert all(x >= 0 for x in a)
        assert a == sorted(a)

    def test_trace_length_must_match(self):
        with pytest.raises(ConfigError, match="trace has 2 arrivals"):
            TraceArrivals([0, 5]).release_cycles(3, 2.0)

    def test_invalid_processes_rejected(self):
        with pytest.raises(ConfigError, match="rate"):
            FixedRate(0)
        with pytest.raises(ConfigError, match="rate"):
            PoissonArrivals(-1.0, seed=0)
        with pytest.raises(ConfigError, match="interval"):
            FixedInterval(-1)
        with pytest.raises(ConfigError, match=">= 0"):
            TraceArrivals([0, -3])

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_rates_rejected(self, rate):
        # NaN passes ``rate <= 0``; inf used to be priced as a zero gap.
        with pytest.raises(ConfigError, match="finite"):
            FixedRate(rate)
        with pytest.raises(ConfigError, match="finite"):
            PoissonArrivals(rate, seed=0)

    def test_negative_arrival_seed_rejected(self):
        with pytest.raises(ConfigError, match="arrival seed"):
            PoissonArrivals(1e6, seed=-1)
        with pytest.raises(ConfigError, match="arrival seed"):
            PoissonArrivals(1e6, seed=True)  # not seed 1

    def test_latency_percentile_nearest_rank(self):
        lat = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert latency_percentiles(lat, [50])[0] == 50
        assert latency_percentiles(lat, [95])[0] == 100
        assert latency_percentiles(lat, [99])[0] == 100
        assert latency_percentiles([7], [99])[0] == 7
        assert latency_percentiles([], [99])[0] == 0

    def test_latency_percentile_rejects_out_of_range_pct(self):
        for pct in (0, -3, 150, 100.001):
            with pytest.raises(ConfigError, match="percentile"):
                latency_percentiles([10, 20], [pct])[0]

    def test_latency_percentile_boundary_ranks(self):
        # n=1: every valid percentile is the single element.
        assert latency_percentiles([42], [0.5])[0] == 42
        assert latency_percentiles([42], [100])[0] == 42
        # n=2: nearest-rank flips between the elements at pct 50.
        assert latency_percentiles([10, 20], [50])[0] == 10
        assert latency_percentiles([10, 20], [51])[0] == 20
        assert latency_percentiles([10, 20], [100])[0] == 20

    def test_trace_must_be_non_decreasing(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            TraceArrivals([100, 50])
        # Equal (tied) arrivals are a legal burst.
        assert TraceArrivals([0, 50, 50, 90]).release_cycles(4, 1.0) == [
            0, 50, 50, 90,
        ]


# ---------------------------------------------------------------------------
# The generalised schedule (shared by both tiers)
# ---------------------------------------------------------------------------

class TestReleaseSchedule:
    LINK = InterChipConfig(
        bandwidth_bytes_per_cycle=8, latency_cycles=100, energy_pj_per_byte=1.0
    )

    def test_zero_releases_bit_identical_to_batched(self):
        for cycles, transfers in (
            ([1000, 500], [(0, 1, 80)]),
            ([300, 900, 200], [(0, 1, 256), (1, 2, 64)]),
            ([750], []),
        ):
            batched = streaming_schedule([cycles] * 4, transfers, self.LINK)
            served = streaming_schedule(
                [cycles] * 4, transfers, self.LINK, [0, 0, 0, 0]
            )
            assert served == batched

    def test_release_gates_entry_to_first_chip(self):
        starts, finishes, input_finishes, makespan = streaming_schedule(
            [[100]] * 2, [], self.LINK, [0, 400]
        )
        # Input 1 arrives long after input 0 drained: no queueing.
        assert starts[1][0] == 400
        assert input_finishes == [100, 500]
        assert makespan == 500

    def test_tie_between_release_and_ready_cycle(self):
        # Input 1 released exactly when chip 0 frees up: both
        # constraints bind at once, service starts with zero queue.
        starts, _, input_finishes, _ = streaming_schedule(
            [[100]] * 2, [], self.LINK, [0, 100]
        )
        assert starts[1][0] == 100
        assert input_finishes == [100, 200]
        # One cycle later in the release: still no queue, shifted start.
        starts, _, _, _ = streaming_schedule(
            [[100]] * 2, [], self.LINK, [0, 101]
        )
        assert starts[1][0] == 101
        # One cycle earlier: the pipeline is still busy, so it queues.
        starts, _, _, _ = streaming_schedule(
            [[100]] * 2, [], self.LINK, [0, 99]
        )
        assert starts[1][0] == 100

    def test_release_count_must_match_batch(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="release cycles"):
            streaming_schedule([[10]] * 2, [], self.LINK, [0])
        with pytest.raises(SimulationError, match=">= 0"):
            streaming_schedule([[10]], [], self.LINK, [-1])


# ---------------------------------------------------------------------------
# Deployment sessions (cyclesim tier)
# ---------------------------------------------------------------------------

class TestDeploymentSessions:
    def test_all_zero_trace_reproduces_batched_streaming(self, arch):
        """Acceptance: run_trace([0]*B) == PR-4 batched makespan and
        bit-identical outputs."""
        deployment = _deploy(arch, chips=2)
        compiled = compile_model(
            "tiny_resnet", arch, "dp", chips=2, input_size=8, num_classes=10
        )
        [legacy] = Deployment(compiled).submit(batch=4).replica_reports
        served = deployment.run_trace([0, 0, 0, 0])
        assert served.makespan_cycles == legacy.stream_report.cycles
        assert served.input_finishes == legacy.stream_report.input_finishes
        [served] = served.replica_reports
        assert served.stream_report.to_dict() == legacy.stream_report.to_dict()
        for i in range(4):
            for name in legacy.per_input_outputs[i]:
                assert np.array_equal(
                    served.per_input_outputs[i][name],
                    legacy.per_input_outputs[i][name],
                )

    def test_outputs_isolated_under_any_arrival_process(self, arch):
        """Weights persist across submissions; activations do not --
        outputs are bit-identical to independent runs regardless of
        arrival timing."""
        deployment = _deploy(arch, chips=2)
        served = deployment.submit(
            batch=3, arrivals=PoissonArrivals(1e5, seed=3)
        )
        assert served.validated
        [served] = served.replica_reports
        for i in range(3):
            single = deployment.run(seed=i)
            for name, expected in single.outputs.items():
                assert np.array_equal(
                    served.per_input_outputs[i][name], expected
                )

    @pytest.mark.parametrize("chips", [1, 2])
    @pytest.mark.parametrize("tier", ["fast", "cyclesim"])
    def test_closure_limit_reaches_the_planner_on_both_tiers(
            self, arch, tier, chips, monkeypatch):
        """Two-tier contract: the cycle tier used to compile through
        ``compile_model``, which had no ``closure_limit`` to hand on."""
        import repro.compiler.pipeline as pipeline

        seen = []
        planner = pipeline.plan_graph

        def spy(graph, arch, strategy="dp", closure_limit=None):
            seen.append(closure_limit)
            return planner(graph, arch, strategy, closure_limit)

        monkeypatch.setattr(pipeline, "plan_graph", spy)
        Deployment("tiny_resnet", arch, chips=chips, tier=tier,
                   closure_limit=7, input_size=8, num_classes=10)
        assert seen == [7] * chips

    def test_compile_once_submit_many(self, arch):
        deployment = _deploy(arch, chips=2)
        first = deployment.submit(batch=2)
        second = deployment.submit(batch=2)
        assert first.makespan_cycles == second.makespan_cycles
        # and the deployment adopts an existing compiled model as-is
        compiled = compile_model(
            "tiny_resnet", arch, "dp", chips=2, input_size=8, num_classes=10
        )
        adopted = Deployment(compiled)
        assert adopted.num_chips == 2
        assert adopted.submit(batch=2).makespan_cycles == first.makespan_cycles
        with pytest.raises(ConfigError, match="compiled model"):
            Deployment(compiled, arch)
        # compile keywords cannot silently contradict an adopted model
        with pytest.raises(ConfigError, match="compile keywords"):
            Deployment(compiled, chips=4)
        with pytest.raises(ConfigError, match="compile keywords"):
            Deployment(compiled, strategy="generic")
        with pytest.raises(ConfigError, match="compile keywords"):
            Deployment(compiled, input_size=16)

    def test_empty_trace_yields_empty_report(self, arch):
        report = _deploy(arch, chips=2).run_trace([])
        assert report.batch == 0
        assert report.makespan_cycles == 0
        assert report.latency_cycles == []
        assert report.p99_latency_cycles is None
        assert report.throughput_inf_per_s == 0.0
        assert report.to_dict()["p99_latency_cycles"] is None
        assert report.replica_reports[0].per_input_outputs == []

    def test_single_input_degenerates_to_latency_mode(self, arch):
        deployment = _deploy(arch, chips=2)
        single = deployment.run()
        served = deployment.submit(batch=1)
        assert served.batch == 1
        assert served.makespan_cycles == single.report.cycles
        assert served.latency_cycles == [single.report.cycles]
        assert served.p50_latency_cycles == served.p99_latency_cycles \
            == single.report.cycles
        assert served.replica_reports[0].queue_cycles == [0]

    def test_arrival_after_pipeline_drain(self, arch):
        deployment = _deploy(arch, chips=2)
        single = deployment.run().report.cycles
        served = deployment.run_trace([0, 3 * single])
        # The second input finds an idle pipeline: no queueing, same
        # latency as the first, makespan = its release + one service.
        assert served.replica_reports[0].queue_cycles == [0, 0]
        assert served.latency_cycles == [single, single]
        assert served.makespan_cycles == 3 * single + single

    def test_queueing_metrics_under_overload(self, arch):
        deployment = _deploy(arch, chips=2)
        interval = deployment.submit(batch=1).steady_interval_cycles
        served = deployment.submit(
            batch=4, arrivals=FixedInterval(max(1, interval // 4))
        )
        [replica] = served.replica_reports
        queue = replica.queue_cycles
        assert queue[0] == 0
        # Arrivals outpace the bottleneck: the queue builds monotonically.
        assert all(b >= a for a, b in zip(queue, queue[1:]))
        assert queue[-1] > 0
        assert max(replica.shard_utilization) <= 1.0
        assert served.latency_cycles == [
            q + s for q, s in zip(queue, replica.service_cycles)
        ]
        payload = served.to_dict()
        assert payload["p99_latency_cycles"] == served.p99_latency_cycles

    def test_printing_a_report_sorts_its_latencies_once(
        self, arch, monkeypatch
    ):
        served = _deploy(arch, chips=2, tier="fast").submit(
            batch=7, arrivals=FixedInterval(10)
        )
        real = type(served)._percentiles
        calls = []

        def counting(self, pcts, latencies=None):
            calls.append(tuple(pcts))
            return real(self, pcts, latencies)

        monkeypatch.setattr(type(served), "_percentiles", counting)
        text = str(served)
        assert calls == [(50, 95, 99)]
        for pct in (50, 95, 99):
            cycles = served.latency_percentile_cycles(pct)
            assert f"latency p{pct}       : {cycles:,} cycles" in text

    def test_run_matches_legacy_single_input(self, arch):
        """The one-shard pipeline adds nothing to a lone chip: ``run()``'s
        one chip report is what a hand-driven :class:`ChipSimulator`
        reports."""
        from repro.sim.chip import ChipSimulator
        from repro.sim.functional import random_input

        compiled = compile_model(
            "tiny_cnn", arch, "dp", input_size=8, num_classes=10
        )
        sim = ChipSimulator.from_compiled(compiled)
        sim.memory.write_global(
            compiled.input_address(), random_input(compiled.graph, seed=0)
        )
        bare = sim.run()
        result = Deployment(compiled).run()
        assert result.report.chip_reports[0].to_dict() == bare.to_dict()
        for name in compiled.graph.outputs:
            info = compiled.graph.tensor(name)
            raw = sim.memory.read_global(
                compiled.output_address(name), info.size_bytes
            )
            assert np.array_equal(
                result.outputs[name], raw.reshape(info.shape)
            )

    @pytest.mark.parametrize("resident", [False, True])
    @pytest.mark.parametrize("chips", [1, 2])
    def test_run_is_the_one_input_submission(self, arch, chips, resident):
        """``run()`` is ``submit(batch=1)`` on a fresh deployment: the same
        stream report, outputs, golden and validation, at every chip
        count, resident or not (a resident ``run()`` pays the load).  A
        fleet's one input is its first replica's."""
        compiled = compile_model(
            "tiny_resnet", arch, "dp", chips=chips, input_size=8,
            num_classes=10,
        )
        result = Deployment(compiled, resident_weights=resident).run(seed=2)
        served = Deployment(compiled, resident_weights=resident).submit(
            batch=1, seed=2
        )
        assert served.validated
        served = served.replica_reports[0]
        assert result.report.to_dict() == served.stream_report.to_dict()
        assert result.report.num_chips == chips
        fleet = Fleet(compiled, replicas=2, resident_weights=resident)
        assert fleet.run(seed=2).report.to_dict() == result.report.to_dict()
        assert result.validated
        [outputs] = served.per_input_outputs
        for got, want in ((result.outputs, outputs),
                          (result.golden, served.golden)):
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()

    def test_invalid_submissions_rejected(self, arch):
        deployment = _deploy(arch)
        with pytest.raises(ConfigError, match="batch"):
            deployment.submit(batch=0)
        with pytest.raises(ConfigError, match="trace has"):
            deployment.submit(batch=3, arrivals=TraceArrivals([0, 1]))
        with pytest.raises(ConfigError, match="tier"):
            Deployment("tiny_cnn", arch, tier="magic",
                       input_size=8, num_classes=10)
        with pytest.raises(ConfigError, match="cycle-level"):
            _deploy(arch, tier="fast").run()


# ---------------------------------------------------------------------------
# Latency percentiles vs offered load (the serving question, both tiers)
# ---------------------------------------------------------------------------

class TestLatencyUnderLoad:
    @pytest.mark.parametrize("tier", ("cyclesim", "fast"))
    def test_p99_flat_below_saturation_grows_above(self, arch, tier):
        """Acceptance: below the bottleneck interval p99 stays flat as B
        grows; above it, latency grows without bound -- in both tiers."""
        deployment = _deploy(arch, chips=2, tier=tier)
        interval = deployment.submit(batch=1).steady_interval_cycles
        assert interval > 0

        below_small = deployment.submit(
            batch=3, arrivals=FixedInterval(2 * interval)
        )
        below_large = deployment.submit(
            batch=9, arrivals=FixedInterval(2 * interval)
        )
        assert below_small.p99_latency_cycles == below_large.p99_latency_cycles

        above_small = deployment.submit(
            batch=3, arrivals=FixedInterval(max(1, interval // 2))
        )
        above_large = deployment.submit(
            batch=9, arrivals=FixedInterval(max(1, interval // 2))
        )
        assert above_large.p99_latency_cycles > above_small.p99_latency_cycles
        # ... and the queue keeps growing input over input (unbounded).
        lat = above_large.latency_cycles
        assert lat[-1] > lat[len(lat) // 2] > lat[0]

    @pytest.mark.parametrize("tier", ("cyclesim", "fast"))
    def test_interval_is_closed_form_bottleneck(self, arch, tier):
        """Both tiers report the same closed-form law over their own
        shard occupancies -- the tier-agreement half of the contract."""
        deployment = _deploy(arch, chips=2, tier=tier)
        report = deployment.submit(batch=4)
        assert report.steady_interval_cycles == steady_state_interval(
            report.shard_cycles, deployment._edges, arch.interchip
        )
        # At saturation (back-to-back), completions pace at the interval.
        diffs = [
            b - a
            for a, b in zip(report.input_finishes, report.input_finishes[1:])
        ]
        assert diffs == [report.steady_interval_cycles] * 3


# ---------------------------------------------------------------------------
# Fast-model mirror (serve_fleet, one replica)
# ---------------------------------------------------------------------------

class TestFastModelServe:
    def test_zero_releases_match_stream_batched(self, arch):
        compiled = compile_model(
            "tiny_cnn", arch, "dp", input_size=8, num_classes=10
        )
        base = analyze_plan(compiled.plan)
        batched = stream_batched(base, 5)
        served = serve_fleet(base, [0] * 5, arch.interchip, 1)
        assert served.cycles == batched.cycles
        assert served.energy_breakdown_pj == batched.energy_breakdown_pj
        assert served.macs == batched.macs
        assert served.batch == 5

    def test_percentiles_populate_and_round_trip(self, arch):
        from repro.sim.fastmodel import FastReport

        compiled = compile_model(
            "tiny_cnn", arch, "dp", input_size=8, num_classes=10
        )
        base = analyze_plan(compiled.plan)
        served = serve_fleet(
            base, [0, 10, 10_000_000], arch.interchip, 1,
            arrival_rate_inf_s=123.0,
        )
        assert served.p50_latency_cycles == base.cycles
        assert served.p99_latency_cycles == 2 * base.cycles - 10
        assert served.arrival_rate_inf_s == 123.0
        assert FastReport.from_dict(served.to_dict()) == served

    def test_fast_tier_inputs_set_batch_implicitly(self, arch):
        deployment = _deploy(arch, chips=2, tier="fast")
        shape = deployment.graph.tensor(
            deployment.graph.input_operators[0].output
        ).shape
        inputs = [np.zeros(shape, np.int8) for _ in range(3)]
        served = deployment.submit(inputs)
        assert served.batch == 3
        assert served.makespan_cycles == \
            deployment.submit(batch=3).makespan_cycles
        with pytest.raises(ConfigError, match="shape"):
            deployment.submit([np.zeros((2, 2), np.int8)])

    def test_empty_releases_and_bad_input(self, arch):
        compiled = compile_model(
            "tiny_cnn", arch, "dp", input_size=8, num_classes=10
        )
        base = analyze_plan(compiled.plan)
        empty = serve_fleet(base, [], arch.interchip, 1)
        assert empty.batch == 0 and empty.cycles == 0
        with pytest.raises(ConfigError, match="single-input"):
            serve_fleet(stream_batched(base, 2), [0, 0], arch.interchip, 1)


# ---------------------------------------------------------------------------
# Hostile inputs: nothing is silently wrapped into int8
# ---------------------------------------------------------------------------

class TestInputsMustBeInt8Representable:
    """Each of these returned ``validated: True`` before the boundary
    check: the value 300 was wrapped to 44 (and 1.5 truncated to 1) for
    the simulator and the golden model alike, so the two agreed."""

    HOSTILE = [
        pytest.param(lambda shape: np.full(shape, 300, np.int64),
                     r"\[300, 300\]", id="int64-300"),
        pytest.param(lambda shape: np.full(shape, -129, np.int16),
                     r"\[-129, -129\]", id="int16-minus129"),
        pytest.param(lambda shape: np.full(shape, 1.5),
                     "dtype float64", id="float64"),
        pytest.param(lambda shape: np.zeros(shape, bool),
                     "dtype bool", id="bool"),
    ]

    @staticmethod
    def _deployment(arch, tier="cyclesim"):
        deployment = Deployment("tiny_mlp", arch, tier=tier)
        shape = tuple(deployment.graph.tensor(
            deployment.graph.input_operators[0].output
        ).shape)
        return deployment, shape

    @pytest.mark.parametrize("make,match", HOSTILE)
    def test_run_rejects(self, arch, make, match):
        deployment, shape = self._deployment(arch)
        with pytest.raises(ConfigError, match="input 0 has.*" + match):
            deployment.run(input_data=make(shape))

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    @pytest.mark.parametrize("make,match", HOSTILE)
    def test_submit_rejects_list_and_stacked(self, arch, tier, make, match):
        deployment, shape = self._deployment(arch, tier)
        good = np.zeros(shape, np.int8)
        with pytest.raises(ConfigError, match="input 1 has.*" + match):
            deployment.submit([good, make(shape), good])
        with pytest.raises(ConfigError, match="input 0 has.*" + match):
            deployment.submit(make((2,) + shape))

    @pytest.mark.parametrize("data", [
        pytest.param(np.ones((8, 8, 16), np.int8), id="twice-the-slot"),
        pytest.param(np.ones((2, 2, 3), np.int8), id="too-small"),
        pytest.param([[1, 2], [3]], id="ragged-list"),
    ])
    def test_run_rejects_a_wrong_shape(self, arch, data):
        """``run()`` resolves its input like ``submit()``: a (8, 8, 16)
        input used to write 1024 B into tiny_cnn's 512 B input slot and
        return a report, and a ragged list raised a bare ValueError."""
        deployment = Deployment("tiny_cnn", arch, input_size=8, num_classes=10)
        with pytest.raises(ConfigError, match=r"input 0 has shape"):
            deployment.run(data, validate=False)

    def test_run_takes_one_input(self, arch):
        deployment, shape = self._deployment(arch)
        with pytest.raises(ConfigError, match="one input, got 2"):
            deployment.run([np.zeros(shape, np.int8)] * 2)

    def test_in_range_wide_integers_are_accepted(self, arch):
        deployment, shape = self._deployment(arch)
        data = np.arange(-128, 128, dtype=np.int64)[:shape[0]].reshape(shape)
        wide = deployment.run(input_data=data)
        narrow = deployment.run(input_data=data.astype(np.int8))
        assert wide.validated and narrow.validated
        for name, value in narrow.outputs.items():
            assert np.array_equal(wide.outputs[name], value)
        assert deployment.submit(data.tolist()).validated  # nested list

    def test_golden_model_rejects_directly(self, arch):
        from repro.errors import ValidationError
        from repro.sim.functional import golden_outputs

        deployment, shape = self._deployment(arch)
        tensor = deployment.graph.input_operators[0].output
        with pytest.raises(ValidationError, match=r"\[300, 300\]"):
            golden_outputs(
                deployment.graph, {tensor: np.full(shape, 300, np.int32)}
            )

    def test_live_session_replay_goes_through_the_same_check(self, arch):
        """``ServerHandle.submit`` carries a release cycle, no payload:
        ``drain()`` replays the recorded trace through ``run_trace``,
        where the session's (seeded) inputs enter -- so that is where a
        live session meets the check."""
        import asyncio

        from repro.runtime import VirtualClock

        deployment, shape = self._deployment(arch)

        async def session():
            handle = await deployment.serve_forever(clock=VirtualClock())
            await handle.submit(at=0)
            await handle.submit(at=50)
            return await handle.drain()

        report = asyncio.run(session())
        assert report.validated and report.batch == 2
        with pytest.raises(ConfigError, match=r"input 1 has.*\[300, 300\]"):
            deployment.run_trace(
                [0, 50],
                inputs=[np.zeros(shape, np.int8), np.full(shape, 300)],
            )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestServeCLI:
    def test_serve_rate(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "tiny_resnet", "--preset", "small", "--input-size", "8",
            "--chips", "2", "--batch", "3", "--rate", "200000",
        ]) == 0
        out = capsys.readouterr().out
        assert "latency p99" in out
        assert "replica 0: 3 inputs" in out
        assert "validated : bit-exact vs golden model" in out

    def test_serve_trace_and_json(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.txt"
        trace.write_text("0 500 9000\n")
        out_json = tmp_path / "serve.json"
        assert main([
            "serve", "tiny_cnn", "--preset", "small", "--input-size", "8",
            "--trace", str(trace), "--json", str(out_json),
        ]) == 0
        import json

        payload = json.loads(out_json.read_text())
        assert payload["report"]["batch"] == 3
        assert payload["report"]["releases"] == [0, 500, 9000]
        assert "p99_latency_cycles" in payload["report"]

    def test_serve_fast_tier(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "tiny_resnet", "--preset", "small", "--input-size", "8",
            "--chips", "2", "--batch", "4", "--tier", "fast",
            "--interval", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "tier              : fast" in out
        assert "validated" not in out
