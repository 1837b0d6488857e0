"""Tests for the fast analytical model and the exploration drivers."""

import hashlib
import itertools
import json

import pytest

from repro import Deployment, Fleet
from repro.compiler.pipeline import plan_graph
from repro.config import default_arch, small_test_arch, with_flit_bytes, with_mg_size
from repro.explore import (
    SweepSpec,
    design_space,
    evaluate_fast,
    mg_flit_sweep,
    run_sweep,
    spot_check,
)
from repro.graph.models import get_model
from repro.sim.fastmodel import analyze_plan

TINY_KW = dict(input_size=8, num_classes=10)


def _sha(payload) -> str:
    """SHA-256 of ``payload`` as canonical JSON."""
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()).hexdigest()


class TestFastTierPinnedBytes:
    """Every surface that prices a model on the fast tier, pinned to the
    SHA-256 of its JSON as produced before the fast-tier price became one
    ``analyze_pipeline`` call: the sweep point, the fast ``Deployment``
    and ``Fleet``, an artifact-backed deployment and the spot check."""

    #: (model, chips, resident) -> SHA-256 of the evaluate_fast reports
    #: over batch {1, 4} x arrival_rate {None, 250000} x replicas {1, 2}.
    POINTS = {
        ("tiny_cnn", 1, False):
            "0ef0d32bb14c97f49462c6eb09f3135e7f6b95c555878fa22db3554c892cec0f",
        ("tiny_cnn", 1, True):
            "5dad28d79a900c7735372d86957945b1ce2c0eb2aa1482b42d0e07626fa5a083",
        ("tiny_cnn", 2, False):
            "ce943df7bc9fcaed0c3362ba85b2c198b67b080fb38a60ecf24065841f171e97",
        ("tiny_cnn", 2, True):
            "69422baea9a4b7a14b4c87e89b893ec28f47762225839a5fc3a9e493805f86a3",
        ("tiny_resnet", 1, False):
            "e4a07d4531819dc46c59ce32a627ef295d39c0cf2a27b9b984982e398adecc6b",
        ("tiny_resnet", 1, True):
            "e4a07d4531819dc46c59ce32a627ef295d39c0cf2a27b9b984982e398adecc6b",
        ("tiny_resnet", 2, False):
            "67a80fce58b9829297f002ab59f736a0d93cf27b58ad02d9c655fd75ea5d11ee",
        ("tiny_resnet", 2, True):
            "86d84132742318889038cd89a3c1484f317828be2e1b6db549e116a2b9460a71",
        ("tiny_mlp", 1, False):
            "6802d12aa7b2f458868a14cd2a5d3d48bd73fada09d1c5661acecdd8b43da745",
        ("tiny_mlp", 1, True):
            "c0990ed4b65c958fffcdffb8a0c846f3f51d9ada4672a15964220526f80ea1eb",
        ("tiny_mlp", 2, False):
            "b603957f5969a93695f5c27e4603ef3f7432767ef7b4e7b88e62165e4074b857",
        ("tiny_mlp", 2, True):
            "a9e8d332a561f783635121a64f6709c42ae8298196571ccc1e0298251ad86b4e",
    }

    #: (model, chips, resident) -> SHA-256 of
    #: [Deployment.submit(batch=4), Fleet(jsq, 3).submit(batch=9)].
    SERVED = {
        ("tiny_cnn", 1, False):
            "7a913cd20065612445bd9485ae38a9ce7c99d58dffedc5618c1d38df49130ef5",
        ("tiny_cnn", 1, True):
            "72c08228be2d036befccfa17eb1e3626f204027a8e50870da0a9828424b9a2b2",
        ("tiny_cnn", 2, False):
            "65bfe434be85edfdd5b4e4ef7d8d81ea90da116b81b1d81f95c8e4a88355c87d",
        ("tiny_cnn", 2, True):
            "fc2c9eaa6b0a17a56f21a8510b7767ad33f2c512b1f3f91eabd03387c71eff9c",
        ("tiny_resnet", 1, False):
            "00c346eb42e9d5166da5a9760eb237d7b86a177e7f3c6460e06dd33c83557f27",
        ("tiny_resnet", 1, True):
            "d526600566dd1cded3a47998c42f08c666fdcbacfab0219ce690322fff8339be",
        ("tiny_resnet", 2, False):
            "cd1a26690b466baacf24e3dc226ff09cd7fee9af3f6096359839d077a7635954",
        ("tiny_resnet", 2, True):
            "3e0f5b310d568c5e9be4daf6293869909ec56b51f448cfdf88dafd859d1f4796",
        ("tiny_mlp", 1, False):
            "235912390370f601230962f36dc193d98cf7d5ec0b36437a2083e6a0615e858b",
        ("tiny_mlp", 1, True):
            "bc27adeeaf48db2a16e974e7acd6e602ad50fb58b2ee8bbde7dde9c3df7f83ed",
        ("tiny_mlp", 2, False):
            "7de9eecf4371839fff3c1075a9242fcf6b5815a8b53f1d0dcab2297f886dce86",
        ("tiny_mlp", 2, True):
            "7879688b855c606f56922e5339ec989d244eb18acc260e900fc2bb9f3833b68d",
    }

    #: chips -> SHA-256 of an artifact-backed fast Deployment"s
    #: submit(batch=4) report.
    ARTIFACT = {
        1: "ad739ae8ad7bc369ab81d187ef9b40b2d6f7cbc057c909be204985fe192d5700",
        2: "3bbc8be388a88bf2746e0bdc2923c699d08b4edbe86988370d679c3f1e88428c",
    }

    #: SHA-256 of the spot check"s fast_cycles over a 1- and 2-chip sweep.
    SPOT = "d60f27a822078c69f398615ea37e6cecb7744e65e2951fd195eda3571f3d2b70"

    shapes = pytest.mark.parametrize(
        "model,chips,resident",
        list(itertools.product(
            ("tiny_cnn", "tiny_resnet", "tiny_mlp"), (1, 2), (False, True)
        )),
    )

    @shapes
    def test_sweep_points(self, arch, model, chips, resident):
        reports = [
            evaluate_fast(
                model, arch, "dp", chips=chips, resident_weights=resident,
                batch=batch, arrival_rate=rate, replicas=replicas, **TINY_KW,
            ).report.to_dict()
            for batch, rate, replicas in itertools.product(
                (1, 4), (None, 250000), (1, 2)
            )
        ]
        assert _sha(reports) == self.POINTS[model, chips, resident]

    @shapes
    def test_fast_deployment_and_fleet(self, arch, model, chips, resident):
        shape = dict(chips=chips, tier="fast", resident_weights=resident,
                     **TINY_KW)
        served = [
            Deployment(model, arch, **shape).submit(batch=4).to_dict(),
            Fleet(model, arch, replicas=3, policy="jsq", **shape)
            .submit(batch=9).to_dict(),
        ]
        assert _sha(served) == self.SERVED[model, chips, resident]

    @pytest.mark.parametrize("chips", [1, 2])
    def test_artifact_backed_deployment(self, arch, chips, tmp_path):
        from repro import compile_model
        from repro.artifact import save_artifact

        path = tmp_path / "model.artifact"
        save_artifact(
            compile_model("tiny_resnet", arch, chips=chips, **TINY_KW), path
        )
        report = Deployment.load(path, arch, tier="fast").submit(batch=4)
        assert _sha(report.to_dict()) == self.ARTIFACT[chips]

    def test_spot_check_fast_cycles(self, arch):
        result = run_sweep(SweepSpec(
            models=("tiny_cnn",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, base_arch=arch, chip_counts=(1, 2),
            batch_sizes=(1, 3),
        ))
        checks = spot_check(result, n=4, input_size=8, validate=False)
        fast = [(c.point.chips, c.point.batch, c.fast_cycles) for c in checks]
        assert len(fast) == 4
        assert _sha(fast) == self.SPOT


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
