"""Multi-chip sharding: partitioning, transfer contract, equivalence.

The contract under test (``docs/ARCHITECTURE.md``, "Multi-chip
sharding"):

- a model that fits one chip produces **bit-identical** functional
  outputs when pipeline-sharded across 2 chips;
- a model too large for one chip's CIM capacity compiles and simulates
  on 2 and 4 chips with bit-exact golden validation;
- both execution engines (hot-block / interpreter) stay bit-identical
  per shard and in the aggregate report;
- every boundary tensor is exactly one explicit
  :class:`InterChipTransfer` with addresses resolvable in both chips'
  memory maps.
"""

import numpy as np
import pytest

from repro import (
    Deployment,
    compile_model,
    compile_sharded,
    evaluate_fast,
    run_sweep,
    shard_graph,
    SweepSpec,
)
from repro.compiler.partition import ShardingSpec
from repro.config import InterChipConfig, small_test_arch
from repro.errors import CapacityError, CompileError, ConfigError
from repro.explore_cache import point_key
from repro.graph.builder import GraphBuilder
from repro.graph.models import get_model
from repro.graph.ops import OpKind
from repro.sim.multichip import pipeline_schedule


def over_capacity_model():
    """A CNN whose weights exceed the small test chip's CIM capacity.

    small_test_arch: 4 cores x 4 MGs x 2 macros x 256 B = 8 KiB of CIM
    storage; this model carries ~12 KiB of weights, so it cannot be
    resident on one chip simultaneously (the single-chip compiler must
    multi-stage it; the sharded compiler spreads it across chips).
    """
    b = GraphBuilder("over_capacity_cnn", seed=7)
    x = b.input((8, 8, 16))
    x = b.conv(x, 16, 3, 1, 1, name="conv1")
    x = b.relu(x, name="relu1")
    x = b.conv(x, 32, 3, 1, 1, name="conv2")
    x = b.relu(x, name="relu2")
    x = b.global_avgpool(x, name="gap")
    x = b.gemm(x, 128, name="fc1")
    x = b.relu(x, name="fc1_relu")
    x = b.gemm(x, 10, name="fc2")
    b.output(x)
    graph = b.build()
    assert graph.total_weight_bytes() > small_test_arch().chip.total_cim_capacity_bytes
    return graph


class TestShardingPlan:
    def test_balanced_cuts_partition_every_node_once(self, arch):
        graph = get_model("tiny_resnet", input_size=8, num_classes=10)
        plan = shard_graph(graph, 2)
        all_nodes = [i for s in plan.shards for i in s.node_indices]
        assert all_nodes == list(range(len(plan.cgraph)))
        assert len(plan.shards) == 2
        assert all(s.node_indices for s in plan.shards)

    def test_explicit_cuts_respected(self):
        graph = get_model("tiny_cnn", input_size=8, num_classes=10)
        plan = shard_graph(graph, 2, cuts=(1,))
        assert plan.cuts == (1,)
        assert plan.shards[0].node_indices == [0]

    def test_incoming_tensors_come_from_earlier_shards(self):
        graph = get_model("tiny_resnet", input_size=8, num_classes=10)
        plan = shard_graph(graph, 3)
        for shard in plan.shards:
            for tensor, src in shard.incoming.items():
                assert 0 <= src < shard.index
                assert tensor in plan.shards[src].outgoing

    def test_shard_graphs_are_valid_and_stub_inputs(self):
        graph = get_model("tiny_resnet", input_size=8, num_classes=10)
        plan = shard_graph(graph, 2)
        for shard in plan.shards:
            shard.graph.validate()
            stubs = {
                op.output for op in shard.graph.operators
                if op.kind is OpKind.INPUT
            }
            assert stubs == set(shard.incoming) | set(shard.external_inputs)

    def test_model_input_feeds_first_shard_output_leaves_last(self):
        graph = get_model("tiny_cnn", input_size=8, num_classes=10)
        plan = shard_graph(graph, 2)
        assert plan.shards[0].external_inputs == ["input_out"]
        assert plan.shards[-1].final_outputs == ["fc_out"]

    def test_too_many_chips_rejected(self):
        graph = get_model("tiny_mlp", num_classes=10)
        with pytest.raises(CompileError, match="cannot shard"):
            shard_graph(graph, 64)

    def test_nonpositive_chip_count_rejected(self):
        with pytest.raises(CompileError, match="chip count"):
            compile_model("tiny_cnn", small_test_arch(), "dp", chips=0,
                          input_size=8, num_classes=10)

    def test_bad_cut_counts_rejected(self):
        with pytest.raises(CompileError, match="interior cuts"):
            ShardingSpec(num_chips=3, cuts=(1,))
        with pytest.raises(CompileError, match="at least one chip"):
            ShardingSpec(num_chips=0)

    def test_out_of_range_cuts_rejected(self):
        graph = get_model("tiny_cnn", input_size=8, num_classes=10)
        with pytest.raises(CompileError):
            shard_graph(graph, 2, cuts=(0,))
        with pytest.raises(CompileError):
            shard_graph(graph, 3, cuts=(2, 2))


class TestTransferContract:
    def test_every_boundary_tensor_is_one_transfer(self, arch):
        graph = get_model("tiny_resnet", input_size=8, num_classes=10)
        model = compile_sharded(graph, arch, 2)
        expected = {
            (shard.incoming[t], shard.index, t)
            for shard in model.sharding.shards
            for t in shard.incoming
        }
        got = {(t.src_chip, t.dst_chip, t.tensor) for t in model.transfers}
        assert got == expected
        assert len(model.transfers) == len(expected)

    def test_transfers_are_ordered_and_addressed(self, arch):
        graph = get_model("tiny_resnet", input_size=8, num_classes=10)
        model = compile_sharded(graph, arch, 2)
        keys = [(t.src_chip, t.dst_chip, t.tensor) for t in model.transfers]
        assert keys == sorted(keys)
        for tr in model.transfers:
            assert tr.src_chip < tr.dst_chip
            assert tr.nbytes == graph.tensor(tr.tensor).size_bytes
            src_plan = model.chips[tr.src_chip].plan
            dst_plan = model.chips[tr.dst_chip].plan
            assert src_plan.tensor_address[tr.tensor] == tr.src_address
            assert dst_plan.tensor_address[tr.tensor] == tr.dst_address

    def test_single_chip_sharding_has_no_transfers(self, arch):
        graph = get_model("tiny_cnn", input_size=8, num_classes=10)
        model = compile_sharded(graph, arch, 1)
        assert model.num_chips == 1
        assert model.transfers == []

    def test_boundary_tensor_with_single_inshard_consumer_survives(self, arch):
        """A boundary tensor must not be fused away inside its shard.

        Regression: x -> conv1 -> T; relu(T); conv2(relu_out);
        add(conv2_out, T).  Cutting between relu and conv2 leaves T with
        one in-shard consumer (the fusable relu) in shard 0 while shard
        1 still needs T -- per-shard condensation used to fuse the relu
        into conv1, swallowing the marked boundary output and crashing
        address resolution with a KeyError.
        """
        b = GraphBuilder("residual_across_cut", seed=5)
        x = b.input((8, 8, 8))
        t = b.conv(x, 8, 3, 1, 1, name="conv1")
        y = b.relu(t, name="pre_relu")
        y = b.conv(y, 8, 3, 1, 1, name="conv2")
        y = b.add(y, t, name="skip_add")
        b.output(y)
        graph = b.build()

        model = compile_sharded(graph, arch, 2, cuts=(2,))
        tensors = {tr.tensor for tr in model.transfers}
        assert "conv1_out" in tensors
        result = Deployment(model).run()
        assert result.validated

    def test_infeasible_shard_names_the_chip(self):
        # 1-core chip: the 4-replica-minimum conv stages cannot map.
        arch = small_test_arch(num_cores=1)
        graph = over_capacity_model()
        with pytest.raises(CompileError, match=r"chip \d"):
            compile_sharded(graph, arch, 2)


class TestOneErrorWhateverTheTier:
    """Every tier plans through one builder, so a model that cannot be
    planned fails the same way in each (the fast tier used to raise
    ``ConfigError`` for ``chips=0``, and the cycle tier a plain
    ``CompileError`` for an unmappable shard)."""

    @staticmethod
    def _error(build):
        with pytest.raises(CompileError) as info:
            build()
        return type(info.value), str(info.value)

    def test_nonpositive_chip_count(self):
        kw = dict(chips=0, input_size=8, num_classes=10)
        errors = {
            self._error(lambda: Deployment(
                "tiny_cnn", small_test_arch(), tier="fast", **kw)),
            self._error(lambda: Deployment(
                "tiny_cnn", small_test_arch(), tier="cyclesim", **kw)),
            self._error(lambda: compile_model(
                "tiny_cnn", small_test_arch(), **kw)),
        }
        assert errors == {(CompileError, "chip count must be >= 1, got 0")}

    def test_unmappable_shard_names_its_chip_and_keeps_its_type(self):
        kw = dict(chips=2, input_size=32, num_classes=10)
        errors = {
            self._error(lambda: Deployment(
                "resnet18", small_test_arch(), tier="fast", **kw)),
            self._error(lambda: Deployment(
                "resnet18", small_test_arch(), tier="cyclesim", **kw)),
            self._error(lambda: evaluate_fast(
                "resnet18", small_test_arch(), **kw)),
        }
        assert len(errors) == 1
        [(kind, message)] = errors
        assert kind is CapacityError
        assert message.startswith(
            "chip 0 (condensed nodes 0..18): stem_conv: "
        )


class TestPipelineSchedule:
    LINK = InterChipConfig(
        bandwidth_bytes_per_cycle=8, latency_cycles=100, energy_pj_per_byte=1.0
    )

    def test_chain_timing(self):
        # chip1 starts after chip0's 80-byte transfer: 1000 + 10 + 100.
        starts, finishes, makespan = pipeline_schedule(
            [1000, 500], [(0, 1, 80)], self.LINK
        )
        assert starts == [0, 1110]
        assert finishes == [1000, 1610]
        assert makespan == 1610

    def test_same_link_transfers_serialise(self):
        starts, _, _ = pipeline_schedule(
            [1000, 1], [(0, 1, 80), (0, 1, 80)], self.LINK
        )
        # second message queues behind the first's 10 serialisation cycles
        assert starts[1] == 1000 + 10 + 10 + 100

    def test_no_transfers_means_no_stalls(self):
        starts, finishes, makespan = pipeline_schedule(
            [10, 20, 30], [], self.LINK
        )
        assert starts == [0, 0, 0]
        assert makespan == 30


class TestMultiChipEquivalence:
    def test_two_chip_outputs_bit_identical_to_single_chip(self, arch):
        one = Deployment("tiny_resnet", arch=arch, strategy="dp",
                         input_size=8, num_classes=10).run()
        two = Deployment("tiny_resnet", arch=arch, strategy="dp",
                         input_size=8, num_classes=10, chips=2).run()
        assert one.validated and two.validated
        assert set(one.outputs) == set(two.outputs)
        for name, expected in one.outputs.items():
            assert np.array_equal(two.outputs[name], expected)

    @pytest.mark.parametrize("chips", (2, 4))
    def test_over_capacity_model_validates_on_n_chips(self, arch, chips):
        graph = over_capacity_model()
        result = Deployment(
            graph, arch=arch, strategy="dp", chips=chips
        ).run()
        assert result.validated
        assert result.report.num_chips == chips
        assert result.report.cycles > 0
        assert result.report.interchip_bytes > 0

    def test_engines_bit_identical_per_shard_and_aggregate(self, arch):
        compiled = compile_model(
            "tiny_resnet", arch, "dp", chips=2,
            input_size=8, num_classes=10,
        )
        a = Deployment(compiled, engine="interp").run()
        b = Deployment(compiled, engine="block").run()
        for name in a.outputs:
            assert np.array_equal(a.outputs[name], b.outputs[name])
        ra, rb = a.report, b.report
        assert ra.cycles == rb.cycles
        assert ra.energy_breakdown_pj == rb.energy_breakdown_pj
        assert ra.chip_starts == rb.chip_starts
        for chip_a, chip_b in zip(ra.chip_reports, rb.chip_reports):
            assert chip_a.cycles == chip_b.cycles
            assert chip_a.instructions == chip_b.instructions
            assert chip_a.energy_breakdown_pj == chip_b.energy_breakdown_pj

    def test_pipeline_report_is_consistent(self, arch):
        result = Deployment("tiny_resnet", arch=arch, strategy="dp",
                            input_size=8, num_classes=10, chips=2).run()
        report = result.report
        assert report.cycles == max(report.chip_finishes)
        assert report.macs == sum(r.macs for r in report.chip_reports)
        assert report.energy_breakdown_pj["interchip"] == pytest.approx(
            report.interchip_bytes * arch.interchip.energy_pj_per_byte
        )
        assert sum(report.grouped_energy_mj().values()) == pytest.approx(
            report.total_energy_mj
        )
        payload = report.to_dict()
        assert payload["num_chips"] == 2
        assert len(payload["chips"]) == 2


class TestFastModelAndSweepAxis:
    def test_evaluate_fast_sharded_point(self, arch):
        single = evaluate_fast("tiny_cnn", arch, "dp", 8, 10)
        sharded = evaluate_fast("tiny_cnn", arch, "dp", 8, 10, chips=2)
        assert sharded.chips == 2
        assert sharded.report.macs == single.report.macs
        assert sharded.report.cycles > 0
        assert "interchip" in sharded.report.energy_breakdown_pj
        assert sharded.to_dict()["chips"] == 2

    def test_chip_counts_is_a_sweep_axis(self, arch):
        spec = SweepSpec(
            models=("tiny_cnn",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, base_arch=arch, chip_counts=(1, 2),
        )
        assert len(spec) == 2
        result = run_sweep(spec)
        assert [pt.chips for pt in result.points] == [1, 2]
        assert result.points[0].report.cycles != result.points[1].report.cycles

    def test_cache_key_distinguishes_chip_counts(self, arch):
        assert point_key("tiny_cnn", arch, "dp", 8, 10, None, 1) != \
            point_key("tiny_cnn", arch, "dp", 8, 10, None, 2)

    def test_sharded_points_round_trip_through_cache(self, arch, tmp_path):
        from repro.explore_cache import ResultCache

        spec = SweepSpec(
            models=("tiny_cnn",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, base_arch=arch, chip_counts=(1, 2),
        )
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=cache)
        assert second.stats.cache_hits == 2
        for a, b in zip(first.points, second.points):
            assert a.report == b.report
            assert a.chips == b.chips

    def test_invalid_chip_counts_rejected(self):
        with pytest.raises(ConfigError, match="chip counts"):
            SweepSpec(models=("tiny_cnn",), chip_counts=(0,))


class TestMultiChipCLI:
    def test_run_chips_flag(self, capsys):
        from repro.cli import main

        assert main([
            "run", "tiny_resnet", "--preset", "small", "--input-size", "8",
            "--chips", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharding" in out
        assert "validated : bit-exact vs golden model" in out
        assert "chips             : 2" in out

    def test_sweep_chips_axis_and_pareto_report(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "sweep.json"
        assert main([
            "sweep", "--models", "tiny_cnn", "--strategies", "dp",
            "--input-sizes", "8", "--num-classes", "10", "--preset", "small",
            "--chips", "1,2", "--no-cache", "--quiet",
            "--json", str(out_json),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(out_json), "--pareto"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
