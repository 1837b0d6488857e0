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
    evaluate_fast,
    rank,
    run_sweep,
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
    and ``Fleet``, an artifact-backed deployment and the best-ranked
    sweep rows."""

    #: (model, chips, resident) -> SHA-256 of the evaluate_fast reports
    #: over batch {1, 4} x arrival_rate {None, 250000} x replicas {1, 2}.
    #: Re-pinned at cache schema v8, where every row is priced by the
    #: fleet step: latencies on plain batch rows, the steady interval on
    #: one-chip rows, and resident latency and load energy moved; no
    #: row's cycles did.
    POINTS = {
        ("tiny_cnn", 1, False):
            "e44793222123b882fea0a9dad75068b5db647929f211c51ab42d9332e9856126",
        ("tiny_cnn", 1, True):
            "0bd7f85294aed9a895a43c300925a741a5116da641d092789f8a8cca59f38688",
        ("tiny_cnn", 2, False):
            "294474f78f64fc287536e7b47c2e66760798d6e6458c12ac064fb750214faf2a",
        ("tiny_cnn", 2, True):
            "520cac34c8be26d867f1fedac0781ec41bbabecb54915688c70dac3e29c75451",
        ("tiny_resnet", 1, False):
            "efe3ea87807b7ca610baa9ebb264d9b0ee01832233e1f4d2d14a530a954285e8",
        ("tiny_resnet", 1, True):
            "efe3ea87807b7ca610baa9ebb264d9b0ee01832233e1f4d2d14a530a954285e8",
        ("tiny_resnet", 2, False):
            "03ea30e4f4979369ed87cabae2932640a3162e261c353ef58e28bdf0c1bc490a",
        ("tiny_resnet", 2, True):
            "093b3841239793051620e54330d4ebe44795990e1bd000e536e7589d7e0c4672",
        ("tiny_mlp", 1, False):
            "b6b282bd321e5a278071f68abf8497ef2cf59816d717f0b725a3afd6bacdefae",
        ("tiny_mlp", 1, True):
            "aca193c9a13d99c1162c9b190e34847182e3c08379e68d57266e45c95cb90300",
        ("tiny_mlp", 2, False):
            "d6157354a918bfb60b2086cdd3e03f4de0e4d6cd992ac23a6d30303fa9599fbb",
        ("tiny_mlp", 2, True):
            "4a4a6e4321fd97c978e3f68512b2cea9fb7764a61e45454d7e2bcbf11e5e38d7",
    }

    #: (model, chips, resident) -> SHA-256 of
    #: [Deployment.submit(batch=4), Fleet(jsq, 3).submit(batch=9)].
    #: Re-pinned when every submission became one ``FleetReport``: each
    #: value the old payloads carried is unchanged, the fault-free
    #: availability fields are now filled.
    SERVED = {
        ("tiny_cnn", 1, False):
            "f56dc2bb9f81aa0bbfef5fff75d66179901d361ec707a79d9913d5c9b386b20b",
        ("tiny_cnn", 1, True):
            "c800c4723266ff8934fec458163cf35853ff749cc6264b92ccfa0ac0e0d78928",
        ("tiny_cnn", 2, False):
            "65e0fbb1922e29ce8bceadbc30fa2c8dfd4dbb19e1b0a07edb060972e61daa29",
        ("tiny_cnn", 2, True):
            "1b88eb954a7fcc39de639ed67971c75fa54f26dca2b287b3f5d99372d6c37d32",
        ("tiny_resnet", 1, False):
            "22bf35f8f132df7e75c0025f9db26a11c553309d8d81feb04a98f32fcda35dc4",
        ("tiny_resnet", 1, True):
            "d12e298269f76835aec13e7788a367f6366d526145465d97c956aa51ac6c3d29",
        ("tiny_resnet", 2, False):
            "22ad407324c925393c5e11422ebd045eb5bfc2f252da944c9dec800cc32aca25",
        ("tiny_resnet", 2, True):
            "1755bea4d99df41a679c2a840a8566352ba4e1fecbe9913c8e92cac270df6607",
        ("tiny_mlp", 1, False):
            "8288cb725aa66590584eb191508c310a598c35c1fa74872f88f5c98e3eddced0",
        ("tiny_mlp", 1, True):
            "364f1dd9589ff50ca6090fc1629a1dd9a2157791eb569c81cdc72ef3e6a28976",
        ("tiny_mlp", 2, False):
            "ad465032e1fcf800cf80f0e596cf3becd0792a355be6b9cf7cabe849be3b38b9",
        ("tiny_mlp", 2, True):
            "2559c578d3e937f94b764f61688421776064e78c41027893e3d5ee67fdeeeadd",
    }

    #: chips -> SHA-256 of an artifact-backed fast Deployment"s
    #: submit(batch=4) report (re-pinned with ``SERVED``).
    ARTIFACT = {
        1: "cad08368ad766199d16b321f90eff012a8a69eea64db9a83c51e81c2809e722f",
        2: "dc81fac60144ec25a191019c10068d100fc06730f9b382008b59580109647ba3",
    }

    #: SHA-256 of the (chips, batch, cycles) of the four best-by-tops
    #: rows of a 1- and 2-chip sweep (the spot check's fast cycles when
    #: it existed).
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

    def test_best_ranked_fast_cycles(self, arch):
        result = run_sweep(SweepSpec(
            models=("tiny_cnn",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, base_arch=arch, chip_counts=(1, 2),
            batch_sizes=(1, 3),
        ))
        fast = [
            (point.chips, point.batch, point.cycles)
            for point in rank(result.points, "tops")[:4]
        ]
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
        points = run_sweep(SweepSpec(
            models=("resnet18",), strategies=("generic",), mg_sizes=(4, 8),
            flit_sizes=(8, 16), input_sizes=(64,), num_classes=10,
        )).points
        assert len(points) == 4
        assert {(p.mg_size, p.flit_bytes) for p in points} == {
            (4, 8), (8, 8), (4, 16), (8, 16)
        }

    def test_design_space_is_cross_product(self):
        points = run_sweep(SweepSpec(
            models=("resnet18",), strategies=("generic",), mg_sizes=(4,),
            flit_sizes=(8, 16), input_sizes=(64,), num_classes=10,
        )).points
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
