"""Batched streaming inference: the throughput-mode contract.

The contract under test (``docs/ARCHITECTURE.md``, "Batched streaming
inference"):

- **per-input isolation**: a batched run's per-input outputs are
  bit-identical to independent single-input runs (no cross-input
  state), on any chip count;
- **overlap**: for ``C >= 2`` chips the streamed makespan is strictly
  less than ``B`` times the single-input makespan (inputs really do
  overlap across chips); a single chip replays sequentially (exactly
  ``B`` times);
- **one steady-state law**: the closed-form bottleneck interval
  (:func:`steady_state_interval`, what ``analyze_sharded`` prices) is
  exactly the completion interval the streaming scheduler converges to,
  and ``makespan(B) = makespan(1) + (B-1) * interval`` on the golden
  configs;
- the batch axis reaches the sweep engine, cache keys and CLI.
"""

import numpy as np
import pytest

from repro import (
    Deployment,
    compile_model,
    evaluate_fast,
    run_sweep,
    SweepSpec,
)
from repro.config import InterChipConfig
from repro.errors import ConfigError
from repro.sim.multichip import (
    pipeline_schedule,
    steady_state_interval,
    streaming_schedule,
)

BATCH = 4


# ---------------------------------------------------------------------------
# Schedule-level golden configs (both fidelity tiers share these functions)
# ---------------------------------------------------------------------------

class TestScheduleLaw:
    LINK = InterChipConfig(
        bandwidth_bytes_per_cycle=8, latency_cycles=100, energy_pj_per_byte=1.0
    )

    #: (name, chip_cycles, transfers) -- the golden streaming configs.
    GOLDEN = (
        ("chip_bound_chain", [1000, 500], [(0, 1, 80)]),
        ("link_bound_chain", [40, 40], [(0, 1, 4096)]),
        ("three_chip_mixed", [300, 900, 200], [(0, 1, 256), (1, 2, 64)]),
        ("skip_edge", [500, 200, 400], [(0, 1, 128), (0, 2, 128), (1, 2, 64)]),
        ("single_chip", [750], []),
    )

    @pytest.mark.parametrize(
        "name,cycles,transfers", GOLDEN, ids=[g[0] for g in GOLDEN]
    )
    @pytest.mark.parametrize("batch", (1, 2, 4, 7))
    def test_closed_form_matches_streaming_recurrence(
        self, name, cycles, transfers, batch
    ):
        """fill + drain + (B-1) * bottleneck, exactly."""
        starts, finishes, input_finishes, makespan = streaming_schedule(
            [cycles] * batch, transfers, self.LINK
        )
        _, _, single = pipeline_schedule(cycles, transfers, self.LINK)
        interval = steady_state_interval(cycles, transfers, self.LINK)
        assert len(input_finishes) == batch
        assert makespan == single + (batch - 1) * interval
        diffs = [
            b - a for a, b in zip(input_finishes, input_finishes[1:])
        ]
        assert diffs == [interval] * (batch - 1)

    def test_single_input_degenerates_to_pipeline_schedule(self):
        for _, cycles, transfers in self.GOLDEN:
            starts, finishes, input_finishes, makespan = streaming_schedule(
                [cycles], transfers, self.LINK
            )
            p_starts, p_finishes, p_makespan = pipeline_schedule(
                cycles, transfers, self.LINK
            )
            assert starts[0] == p_starts
            assert finishes[0] == p_finishes
            assert makespan == p_makespan == input_finishes[0]

    def test_bottleneck_is_busiest_resource(self):
        # chip-bound: the slowest shard sets the rate.
        assert steady_state_interval([1000, 500], [(0, 1, 80)], self.LINK) \
            == 1000
        # link-bound: per-input serialisation beats every chip.
        assert steady_state_interval([40, 40], [(0, 1, 4096)], self.LINK) \
            == 512
        # two transfers on one link accumulate; latency never contributes.
        assert steady_state_interval(
            [10], [(0, 1, 800), (0, 1, 800)], self.LINK
        ) == 200

    def test_empty_pipeline(self):
        assert steady_state_interval([], [], self.LINK) == 0
        assert pipeline_schedule([], [], self.LINK) == ([], [], 0)


# ---------------------------------------------------------------------------
# Cycle-level workflow: isolation, overlap, engines
# ---------------------------------------------------------------------------

def _deploy(arch, chips):
    return Deployment(
        "tiny_resnet", arch=arch, strategy="dp", input_size=8,
        num_classes=10, chips=chips,
    )


def _run(arch, chips, seed=0):
    """One input, latency mode: a ``WorkflowResult``."""
    return _deploy(arch, chips).run(seed=seed)


def _stream(arch, chips, batch=BATCH):
    """``batch`` inputs back to back: a ``ServeReport``."""
    return _deploy(arch, chips).submit(batch=batch)


class TestBatchedWorkflow:
    @pytest.mark.parametrize("chips", (1, 2, 4))
    def test_per_input_outputs_bit_identical_to_independent_runs(
        self, arch, chips
    ):
        batched = _stream(arch, chips)
        assert batched.validated
        assert batched.batch == BATCH
        outputs = batched.replica_reports[0].per_input_outputs
        assert len(outputs) == BATCH
        singles = [_run(arch, chips, seed=i) for i in range(BATCH)]
        for i, single in enumerate(singles):
            assert set(outputs[i]) == set(single.outputs)
            for name, expected in single.outputs.items():
                assert np.array_equal(
                    outputs[i][name], expected
                ), f"chips={chips} input {i} output {name!r} diverged"

    @pytest.mark.parametrize("chips", (2, 4))
    def test_streaming_overlaps_chips(self, arch, chips):
        single = _run(arch, chips).report.cycles
        batched = _stream(arch, chips).replica_reports[0].stream_report
        assert batched.cycles < BATCH * single
        assert batched.cycles > single
        assert batched.input_finishes[0] == single  # fill = one makespan

    def test_single_chip_replays_sequentially(self, arch):
        single = _run(arch, 1).report
        batched = _stream(arch, 1).replica_reports[0].stream_report
        assert batched.cycles == BATCH * single.cycles
        assert batched.num_chips == 1
        assert batched.steady_interval_cycles == single.cycles
        assert batched.input_finishes == [
            (i + 1) * single.cycles for i in range(BATCH)
        ]

    @pytest.mark.parametrize("chips", (2, 4))
    def test_scheduler_interval_matches_closed_form(self, arch, chips):
        report = _stream(arch, chips).replica_reports[0].stream_report
        diffs = [
            b - a
            for a, b in zip(report.input_finishes, report.input_finishes[1:])
        ]
        assert diffs == [report.steady_interval_cycles] * (BATCH - 1)
        # and the reported interval is the closed-form bottleneck of the
        # measured per-chip windows.
        compiled = _run(arch, chips).compiled
        edges = [
            (t.src_chip, t.dst_chip, t.nbytes) for t in compiled.transfers
        ]
        assert report.steady_interval_cycles == steady_state_interval(
            [r.cycles for r in report.chip_reports], edges, arch.interchip
        )
        assert report.cycles == report.input_finishes[0] + (
            BATCH - 1
        ) * report.steady_interval_cycles

    def test_report_aggregates_whole_stream(self, arch):
        single = _run(arch, 2).report
        batched = _stream(arch, 2).replica_reports[0].stream_report
        assert batched.macs == BATCH * single.macs
        assert batched.instructions == BATCH * single.instructions
        assert batched.interchip_bytes == BATCH * single.interchip_bytes
        assert batched.total_energy_pj == pytest.approx(
            BATCH * single.total_energy_pj
        )
        assert batched.energy_per_inference_mj == pytest.approx(
            single.total_energy_mj
        )
        assert batched.throughput_inf_per_s > 0
        payload = batched.to_dict()
        assert payload["batch"] == BATCH
        assert len(payload["input_finishes"]) == BATCH
        assert payload["steady_interval_cycles"] == \
            batched.steady_interval_cycles

    def test_engines_bit_identical_on_streams(self, arch):
        compiled = compile_model(
            "tiny_resnet", arch, "dp", chips=2, input_size=8, num_classes=10
        )
        [a] = Deployment(compiled, engine="interp").submit(
            batch=3
        ).replica_reports
        [b] = Deployment(compiled, engine="block").submit(
            batch=3
        ).replica_reports
        ra, rb = a.stream_report, b.stream_report
        assert ra.cycles == rb.cycles
        assert ra.input_finishes == rb.input_finishes
        assert ra.energy_breakdown_pj == rb.energy_breakdown_pj
        for i in range(3):
            for name in a.per_input_outputs[i]:
                assert np.array_equal(
                    a.per_input_outputs[i][name], b.per_input_outputs[i][name]
                )

    def test_explicit_input_list(self, arch):
        compiled = compile_model(
            "tiny_cnn", arch, "dp", input_size=8, num_classes=10
        )
        rng = np.random.default_rng(3)
        shape = compiled.graph.tensor(
            compiled.graph.input_operators[0].output
        ).shape
        inputs = [
            rng.integers(-100, 101, size=shape, dtype=np.int8)
            for _ in range(2)
        ]
        deployment = Deployment(compiled)
        result = deployment.submit(inputs, batch=2)
        assert result.validated and result.batch == 2
        # a bare list also sets the batch implicitly
        implicit = deployment.submit(inputs)
        assert implicit.batch == 2
        assert implicit.replica_reports[0].stream_report.cycles == \
            result.replica_reports[0].stream_report.cycles

    def test_stacked_array_and_nested_list_inputs(self, arch):
        compiled = compile_model(
            "tiny_cnn", arch, "dp", input_size=8, num_classes=10
        )
        shape = compiled.graph.tensor(
            compiled.graph.input_operators[0].output
        ).shape
        rng = np.random.default_rng(9)
        stack = rng.integers(-100, 101, size=(2, *shape), dtype=np.int8)
        # a stacked (B, *input_shape) array is a batch of B
        deployment = Deployment(compiled)
        stacked = deployment.submit(stack, batch=2)
        assert stacked.batch == 2 and stacked.validated
        as_list = deployment.submit([stack[0], stack[1]], batch=2)
        for i in range(2):
            for name in stacked.replica_reports[0].per_input_outputs[i]:
                assert np.array_equal(
                    stacked.replica_reports[0].per_input_outputs[i][name],
                    as_list.replica_reports[0].per_input_outputs[i][name],
                )
        # one input handed in as a nested Python list stays a batch of 1
        nested = deployment.submit(stack[0].tolist())
        assert nested.batch == 1 and nested.validated
        # a stacked array with batch left at 1 sets the batch implicitly,
        # exactly like the equivalent list would
        implicit = deployment.submit(stack)
        assert implicit.batch == 2 and implicit.validated

    def test_execute_stream_isolated_from_prior_run(self, arch):
        """execute_stream() on an already-consumed simulator must still
        honour per-input isolation (fresh chip state per input)."""
        from repro.sim.multichip import MultiChipSimulator
        from repro.sim.functional import random_input

        compiled = compile_model(
            "tiny_resnet", arch, "dp", chips=2, input_size=8, num_classes=10
        )
        inputs = [random_input(compiled.graph, seed=i) for i in range(2)]
        sim = MultiChipSimulator(compiled)
        sim.execute_stream(inputs[1:])  # dirty the chip state
        _, outs = sim.execute_stream(inputs)
        fresh = MultiChipSimulator(compiled)
        _, expected = fresh.execute_stream(inputs)
        for i in range(2):
            for name in expected[i]:
                assert np.array_equal(outs[i][name], expected[i][name])

    def test_invalid_batch_arguments_rejected(self, arch):
        compiled = compile_model(
            "tiny_cnn", arch, "dp", input_size=8, num_classes=10
        )
        shape = compiled.graph.tensor(
            compiled.graph.input_operators[0].output
        ).shape
        deployment = Deployment(compiled)
        with pytest.raises(ConfigError, match="batch"):
            deployment.submit(batch=0)
        with pytest.raises(ConfigError, match="batch"):
            deployment.submit(np.zeros(shape, np.int8), batch=2)
        with pytest.raises(ConfigError, match="input arrays"):
            deployment.submit([np.zeros(shape, np.int8)], batch=3)
        with pytest.raises(ConfigError, match="shape"):
            deployment.submit(
                [np.zeros(shape, np.int8), np.zeros((2, 2), np.int8)],
                batch=2,
            )


# ---------------------------------------------------------------------------
# The serving law under NoC-batched multipass bodies
# ---------------------------------------------------------------------------

class TestMultipassStreamingLaw:
    """``makespan(B) = makespan(1) + (B-1) * bottleneck`` must hold
    bit-exactly when the shard bodies are multipass weight-streaming
    loops executed through the engine's iteration-major NoC replay --
    the serving-rate law may not drift by a single cycle whether the
    NoC windows are replayed closed-form or stepped.  Covered for
    C in {1, 2, 4} chips in both fidelity tiers."""

    WS = dict(branches=4, in_channels=64, width=4, kernel=4)

    def _compiled(self, arch, chips):
        return compile_model(
            "weight_stream", arch, "generic", chips=chips, **self.WS
        )

    @pytest.mark.parametrize("chips", (1, 2, 4))
    def test_cycle_tier_law_bit_exact(self, arch, chips):
        from repro.sim import blockengine as be

        compiled = self._compiled(arch, chips)
        be.reset_stats()
        served = Deployment(compiled, engine="block")
        single = served.run().report
        assert be.ENGINE_STATS["noc_batch_successes"] > 0, (
            "the multipass shard bodies did not take the NoC replay path"
        )
        batched = served.submit(batch=BATCH).replica_reports[0].stream_report
        interval = batched.steady_interval_cycles
        assert interval > 0
        assert batched.cycles == single.cycles + (BATCH - 1) * interval
        diffs = [
            b - a
            for a, b in zip(batched.input_finishes, batched.input_finishes[1:])
        ]
        assert diffs == [interval] * (BATCH - 1)
        # The law must come out identically with every NoC window stepped.
        interp = Deployment(compiled, engine="interp").submit(
            batch=BATCH
        ).replica_reports[0].stream_report
        assert interp.cycles == batched.cycles
        assert interp.input_finishes == batched.input_finishes
        assert interp.energy_breakdown_pj == batched.energy_breakdown_pj

    @pytest.mark.parametrize("chips", (1, 2, 4))
    def test_fast_tier_law_bit_exact(self, arch, chips):
        from repro.sim.fastmodel import (
            analyze_plan,
            analyze_sharded,
            stream_batched,
        )

        compiled = self._compiled(arch, chips)
        if chips == 1:
            one = analyze_plan(compiled.plan)
        else:
            one = analyze_sharded(
                compiled.sharding, [c.plan for c in compiled.chips], arch
            )
        four = stream_batched(one, BATCH)
        interval = four.steady_interval_cycles
        assert interval > 0
        assert four.cycles == one.cycles + (BATCH - 1) * interval
        if chips == 1:
            # no pipeline to overlap: sequential replay, interval is one
            # whole makespan
            assert interval == one.cycles
            assert four.cycles == BATCH * one.cycles


# ---------------------------------------------------------------------------
# Fast model: the same law, closed form
# ---------------------------------------------------------------------------

class TestFastModelStreaming:
    @pytest.mark.parametrize("chips", (2, 4))
    def test_sharded_closed_form_law(self, arch, chips):
        one = evaluate_fast("tiny_resnet", arch, "dp", 8, 10, chips=chips)
        four = evaluate_fast(
            "tiny_resnet", arch, "dp", 8, 10, chips=chips, batch=BATCH
        )
        interval = four.report.steady_interval_cycles
        assert interval > 0
        assert four.report.cycles == one.report.cycles + (BATCH - 1) * interval
        assert four.report.cycles < BATCH * one.report.cycles
        assert four.report.macs == BATCH * one.report.macs
        assert four.report.total_energy_pj == pytest.approx(
            BATCH * one.report.total_energy_pj
        )

    def test_single_chip_sequential_replay(self, arch):
        one = evaluate_fast("tiny_cnn", arch, "dp", 8, 10)
        four = evaluate_fast("tiny_cnn", arch, "dp", 8, 10, batch=BATCH)
        assert four.report.cycles == BATCH * one.report.cycles
        assert four.report.steady_interval_cycles == one.report.cycles
        assert four.report.throughput_inf_per_s == pytest.approx(
            arch.chip.clock_mhz * 1e6 / one.report.cycles
        )
        assert four.report.energy_per_inference_mj == pytest.approx(
            one.report.total_energy_mj
        )

    def test_throughput_mode_beats_latency_mode_at_load(self, arch):
        """The co-design question batching answers: at load, a 2-chip
        pipeline sustains a higher rate than its single-shot latency
        suggests (bottleneck-bound vs makespan-bound)."""
        point = evaluate_fast(
            "tiny_resnet", arch, "dp", 8, 10, chips=2, batch=8
        )
        latency_rate = arch.chip.clock_mhz * 1e6 / point.report.cycles * 8
        assert point.report.throughput_inf_per_s > latency_rate

    def test_fast_report_round_trips_batch_fields(self, arch):
        from repro.sim.fastmodel import FastReport

        report = evaluate_fast(
            "tiny_cnn", arch, "dp", 8, 10, chips=2, batch=3
        ).report
        assert FastReport.from_dict(report.to_dict()) == report


# ---------------------------------------------------------------------------
# Sweep axis, cache keys, CLI
# ---------------------------------------------------------------------------

class TestBatchSweepAxis:
    def test_batch_is_a_sweep_axis(self, arch):
        spec = SweepSpec(
            models=("tiny_cnn",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, base_arch=arch, chip_counts=(1, 2),
            batch_sizes=(1, 4),
        )
        assert len(spec) == 4
        result = run_sweep(spec)
        assert [(p.chips, p.batch) for p in result.points] == [
            (1, 1), (1, 4), (2, 1), (2, 4),
        ]
        by_coord = {(p.chips, p.batch): p for p in result.points}
        assert by_coord[(1, 4)].cycles == 4 * by_coord[(1, 1)].cycles
        assert by_coord[(2, 4)].cycles < 4 * by_coord[(2, 1)].cycles

    def test_batch_axis_shares_one_base_analysis(self, arch, monkeypatch):
        """The batch axis is a closed-form rescaling: sweeping
        batch_sizes=(1, 2, 4) must plan each base point once, and the
        derived reports must be bit-identical to direct evaluation."""
        import repro.compiler.pipeline as pipeline

        calls = []
        real_plan_graph = pipeline.plan_graph

        def counting_plan_graph(*args, **kwargs):
            calls.append(1)
            return real_plan_graph(*args, **kwargs)

        monkeypatch.setattr(pipeline, "plan_graph", counting_plan_graph)
        spec = SweepSpec(
            models=("tiny_cnn",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, base_arch=arch, batch_sizes=(1, 2, 4),
        )
        result = run_sweep(spec)
        assert len(calls) == 1  # one base analysis for three batch points
        for point in result.points:
            direct = evaluate_fast(
                "tiny_cnn", arch, "dp", 8, 10, batch=point.batch
            )
            assert point.report == direct.report

    def test_parallel_batch_sweep_equals_serial(self, arch):
        """The pool path evaluates unique base points and derives batch
        variants in-parent; results must stay bit-identical to serial."""
        spec = SweepSpec(
            models=("tiny_cnn", "tiny_resnet"), strategies=("dp",),
            input_sizes=(8,), num_classes=10, base_arch=arch,
            chip_counts=(1, 2), batch_sizes=(1, 4),
        )
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        for a, b in zip(serial.points, parallel.points):
            assert a.report == b.report
            assert (a.chips, a.batch) == (b.chips, b.batch)

    def test_cache_key_distinguishes_batch(self, arch):
        from repro.explore_cache import point_key

        assert point_key("tiny_cnn", arch, "dp", 8, 10, None, 2, 1) != \
            point_key("tiny_cnn", arch, "dp", 8, 10, None, 2, 4)

    def test_batched_points_round_trip_through_cache(self, arch, tmp_path):
        from repro.explore_cache import ResultCache

        spec = SweepSpec(
            models=("tiny_cnn",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, base_arch=arch, batch_sizes=(1, 4),
        )
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=cache)
        assert second.stats.cache_hits == 2
        for a, b in zip(first.points, second.points):
            assert a.report == b.report
            assert a.batch == b.batch

    def test_point_dict_has_throughput_columns(self, arch):
        point = evaluate_fast("tiny_cnn", arch, "dp", 8, 10, batch=2)
        row = point.to_dict()
        assert row["batch"] == 2
        assert row["throughput_inf_s"] == pytest.approx(
            point.report.throughput_inf_per_s
        )
        assert row["energy_per_inf_mj"] == pytest.approx(
            point.report.energy_per_inference_mj
        )

    def test_invalid_batch_sizes_rejected(self):
        with pytest.raises(ConfigError, match="batch sizes"):
            SweepSpec(models=("tiny_cnn",), batch_sizes=(0,))


class TestBatchCLI:
    def test_run_batch_flag(self, capsys):
        from repro.cli import main

        assert main([
            "run", "tiny_resnet", "--preset", "small", "--input-size", "8",
            "--chips", "2", "--batch", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 inputs streamed" in out
        assert "inferences/s" in out
        assert "each in isolation" in out

    def test_sweep_batch_axis_reaches_report(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "sweep.json"
        assert main([
            "sweep", "--models", "tiny_cnn", "--strategies", "dp",
            "--input-sizes", "8", "--num-classes", "10", "--preset", "small",
            "--batch", "1,4", "--no-cache", "--quiet",
            "--json", str(out_json), "--csv", str(tmp_path / "sweep.csv"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", str(out_json), "--best", "throughput_inf_s",
        ]) == 0
        out = capsys.readouterr().out
        assert "top 2 by throughput_inf_s" in out
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert "batch" in csv_text.splitlines()[0]
        assert "throughput_inf_s" in csv_text.splitlines()[0]
