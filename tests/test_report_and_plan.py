"""Tests for simulation reports, plan summaries and memory layout."""

import numpy as np
import pytest

from repro import Deployment, compile_model
from repro.compiler.plan import GLOBAL_BASE
from repro.config import small_test_arch
from repro.errors import CompileError


class TestSimulationReport:
    @pytest.fixture(scope="class")
    def result(self):
        return Deployment(
            "tiny_resnet", arch=small_test_arch(), strategy="dp"
        ).run()

    def test_derived_metrics_consistent(self, result):
        report = result.report
        assert report.time_ms == pytest.approx(
            report.cycles * result.compiled.arch.chip.cycle_ns / 1e6
        )
        assert report.total_energy_mj == pytest.approx(
            report.total_energy_pj / 1e9
        )
        assert report.tops == pytest.approx(
            2 * report.macs / (report.time_ms / 1e3) / 1e12
        )

    def test_energy_grouping_sums_to_total(self, result):
        grouped = result.report.grouped_energy_mj()
        assert sum(grouped.values()) == pytest.approx(
            result.report.total_energy_mj
        )

    def test_utilization_bounds(self, result):
        for unit, value in result.report.utilization.items():
            assert 0.0 <= value <= 1.0, unit

    def test_pretty_print_mentions_key_metrics(self, result):
        text = str(result.report)
        for token in ("cycles", "energy", "throughput", "utilization"):
            assert token in text

    def test_macs_match_model_arithmetic(self, result):
        from repro.compiler.cost import CostModel

        cm = CostModel(result.compiled.arch)
        expected = sum(
            cm.node_macs(g) for g in result.compiled.plan.geometries.values()
        )
        assert result.report.macs == expected


class TestPlanAndLayout:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_model("tiny_resnet", small_test_arch(), "dp")

    def test_tensor_addresses_are_global_and_disjoint(self, compiled):
        plan = compiled.plan
        spans = []
        for tensor, addr in plan.tensor_address.items():
            size = plan.graph.tensor(tensor).size_bytes
            assert addr >= GLOBAL_BASE
            spans.append((addr, addr + size, tensor))
        spans.sort()
        for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
            assert end <= start, f"tensors {a} and {b} overlap"

    def test_weight_tiles_disjoint_from_tensors(self, compiled):
        plan = compiled.plan
        tensor_end = max(
            addr + plan.graph.tensor(t).size_bytes
            for t, addr in plan.tensor_address.items()
        )
        for addr in plan.weight_address.values():
            assert addr >= GLOBAL_BASE
        # weights are allocated after all activations in the bump order
        assert min(plan.weight_address.values()) >= tensor_end - 64

    def test_stage_of_lookup(self, compiled):
        plan = compiled.plan
        for stage in plan.stages:
            for node in stage.nodes:
                assert plan.stage_of(node.name) == stage.index
        with pytest.raises(CompileError):
            plan.stage_of("not_a_node")

    def test_summary_lists_every_stage(self, compiled):
        text = compiled.plan.summary()
        for stage in compiled.plan.stages:
            assert f"stage {stage.index}" in text

    def test_global_image_matches_footprint(self, compiled):
        assert len(compiled.global_image) == compiled.plan.global_bytes
        assert compiled.global_image.dtype == np.uint8

    def test_spilled_outputs_include_graph_output(self, compiled):
        plan = compiled.plan
        resolved = plan.cgraph.resolve(plan.graph.outputs[0])
        assert resolved in plan.tensor_address
