"""Tests for the fast analytical model and the exploration drivers."""

import pytest

from repro import Deployment
from repro.compiler.pipeline import plan_graph
from repro.config import default_arch, small_test_arch, with_flit_bytes, with_mg_size
from repro.explore import design_space, evaluate_fast, mg_flit_sweep
from repro.graph.models import get_model
from repro.sim.fastmodel import analyze_plan


class TestFastModel:
    def test_reports_positive_metrics(self, arch):
        plan = plan_graph(get_model("tiny_resnet"), arch, "dp")
        report = analyze_plan(plan)
        assert report.cycles > 0
        assert report.total_energy_pj > 0
        assert report.macs > 0
        assert report.tops > 0

    def test_stage_cycles_sum_close_to_total(self, arch):
        plan = plan_graph(get_model("tiny_resnet"), arch, "dp")
        report = analyze_plan(plan)
        total_stage = sum(report.stage_cycles.values())
        assert total_stage <= report.cycles <= total_stage + 100 * len(
            report.stage_cycles
        ) + 1

    def test_tracks_cycle_simulator_within_bounds(self, arch):
        """The fast model must land within a small factor of the cycle
        simulator -- it shares parameters but not mechanisms."""
        for model in ("tiny_cnn", "tiny_resnet"):
            for strategy in ("generic", "dp"):
                measured = Deployment(model, arch=arch, strategy=strategy).run()
                fast = analyze_plan(measured.compiled.plan)
                ratio = fast.cycles / measured.report.cycles
                assert 0.2 < ratio < 5.0, (
                    f"{model}/{strategy}: fast {fast.cycles} vs cycle "
                    f"{measured.report.cycles}"
                )

    def test_duplication_reduces_fast_latency(self):
        generic = evaluate_fast("resnet18", strategy="generic", input_size=64,
                                num_classes=10)
        dp = evaluate_fast("resnet18", strategy="dp", input_size=64,
                           num_classes=10)
        assert dp.cycles <= generic.cycles

    def test_macs_independent_of_strategy(self):
        a = evaluate_fast("resnet18", strategy="generic", input_size=64,
                          num_classes=10)
        b = evaluate_fast("resnet18", strategy="dp", input_size=64,
                          num_classes=10)
        assert a.report.macs == b.report.macs


class TestExploreDrivers:
    def test_mg_flit_sweep_axes(self):
        points = mg_flit_sweep(
            "resnet18", "generic", mg_sizes=(4, 8), flit_sizes=(8, 16),
            input_size=64, num_classes=10,
        )
        assert len(points) == 4
        assert {(p.mg_size, p.flit_bytes) for p in points} == {
            (4, 8), (8, 8), (4, 16), (8, 16)
        }

    def test_design_space_is_cross_product(self):
        points = design_space(
            "resnet18", strategies=("generic",), mg_sizes=(4,),
            flit_sizes=(8, 16), input_size=64, num_classes=10,
        )
        assert len(points) == 2

    def test_arch_variants_change_results(self):
        base = default_arch()
        small_mg = evaluate_fast("resnet18", with_mg_size(base, 4), "generic",
                                 input_size=64, num_classes=10)
        big_mg = evaluate_fast("resnet18", with_mg_size(base, 16), "generic",
                               input_size=64, num_classes=10)
        assert small_mg.cycles != big_mg.cycles

    def test_flit_width_affects_arch(self):
        base = default_arch()
        assert with_flit_bytes(base, 16).chip.noc.flit_bytes == 16
