"""Public-API snapshot: the importable surface of ``repro`` is a contract.

The exact set of names exported from ``repro`` is frozen here; adding a
name means updating the snapshot *deliberately* in the same change, and
removing or renaming one fails CI.  The one-shot shims ``run_workflow``
and ``simulate`` (deprecation-warned since the serving API landed) were
removed deliberately: the snapshot is the previous one minus those two,
and :class:`repro.Deployment` is the one entry point.  So were
``serve_arrivals`` (``serve_fleet`` with one replica) and the sweep
wrappers ``mg_flit_sweep`` / ``design_space`` (one ``run_sweep`` call).
"""

import ast
import importlib
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro

#: The frozen public surface.  Update deliberately, never by accident.
PUBLIC_API = sorted([
    # configuration
    "ArchConfig",
    "EnergyConfig",
    "InterChipConfig",
    "default_arch",
    # serving API (primary entry points)
    "Deployment",
    "ServeReport",
    "ArrivalProcess",
    "BackToBack",
    "FixedInterval",
    "FixedRate",
    "PoissonArrivals",
    "TraceArrivals",
    "serve_fleet",
    "Fleet",
    "FleetReport",
    # async real-time serving runtime
    "serve_forever",
    "ServerHandle",
    "VirtualClock",
    "WallClock",
    "RequestAdmitted",
    "RequestCompleted",
    "RequestDropped",
    "RequestCompletion",
    "ReplicaStateChanged",
    # fault injection & fault-tolerant serving
    "FaultPlan",
    "RetryPolicy",
    "ReplicaCrash",
    "ReplicaSlowdown",
    "LinkDegrade",
    "TransientRequestFailure",
    "load_fault_plan",
    "save_fault_plan",
    # compilation
    "compile_model",
    "compile_sharded",
    "shard_graph",
    "ShardingSpec",
    "MultiChipModel",
    # compiled artifacts (the shippable compile product)
    "save_artifact",
    "load_artifact",
    "inspect_artifact",
    # simulation
    "MultiChipSimulator",
    "MultiChipReport",
    "analyze_sharded",
    "stream_batched",
    "steady_state_interval",
    "streaming_schedule",
    "analyze_plan",
    "FastReport",
    # what Deployment.run() returns
    "WorkflowResult",
    # design-space exploration
    "evaluate_fast",
    "strategy_comparison",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "ResultCache",
    "DesignPoint",
    # errors
    "ReproError",
    "ConfigError",
    "ISAError",
    "CompileError",
    "CapacityError",
    "ArtifactError",
    "FaultError",
    "SimulationError",
    "ValidationError",
    # metadata
    "__version__",
])


class TestPublicSurface:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == PUBLIC_API

    def test_every_name_importable(self):
        for name in PUBLIC_API:
            assert hasattr(repro, name), f"repro.{name} missing"
            assert getattr(repro, name) is not None

    def test_serving_names_live_in_serve_module(self):
        from repro import serve

        assert repro.Deployment is serve.Deployment
        assert repro.ServeReport is serve.ServeReport
        assert repro.FixedRate is serve.FixedRate


class TestDeprecationShims:
    def test_deployment_does_not_warn(self, arch):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.Deployment(
                "tiny_cnn", arch, input_size=8, num_classes=10
            ).run()


class TestLazyExports:
    """The package ``__init__``s resolve their names on first use
    (``repro.utils.lazy``); everything an eager import gave still holds."""

    PACKAGES = (
        "repro", "repro.sim", "repro.compiler", "repro.compiler.codegen",
        "repro.graph", "repro.graph.models", "repro.isa",
    )

    def test_submodules_resolve_without_an_explicit_import(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import repro; repro.serve.Deployment; repro.explore.SweepSpec; "
             "repro.sim.multichip.PipelineState"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_is_listed_importable_and_star_bound(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_is_an_attribute_error_naming_the_module(
        self, package
    ):
        module = importlib.import_module(package)
        with pytest.raises(
            AttributeError,
            match=f"module '{package}' has no attribute 'no_such_name'",
        ):
            module.no_such_name
        assert not hasattr(module, "__no_such_dunder__")

    @pytest.mark.parametrize("package", PACKAGES)
    def test_one_export_table(self, package):
        """Every public name comes from the table or from the
        ``__init__`` itself -- never both."""
        module = importlib.import_module(package)
        lazy = {n for names in module._EXPORTS.values() for n in names}
        tree = ast.parse(Path(module.__file__).read_text())
        eager = set()
        for node in tree.body:  # `if TYPE_CHECKING:` bodies are not top level
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                eager |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.FunctionDef):
                eager.add(node.name)
            elif isinstance(node, ast.Assign):
                eager |= {
                    t.id for t in node.targets if isinstance(t, ast.Name)
                }
        assert not lazy & eager
        assert set(module.__all__) <= lazy | eager

    def test_fast_report_is_one_class(self):
        import repro.sim.fastmodel
        import repro.sim.report

        assert (
            repro.FastReport
            is repro.sim.fastmodel.FastReport
            is repro.sim.report.FastReport
        )

    def test_lazily_reached_types_pickle(self):
        """The ``--workers 2`` pool ships these between processes."""
        report = repro.FastReport(
            cycles=7, energy_breakdown_pj={"noc": 1.5}, macs=3,
            clock_mhz=1000, shard_edges=[(0, 1, 64)],
        )
        point = repro.DesignPoint(
            model="tiny_cnn", strategy="dp", mg_size=2, flit_bytes=8,
            report=report,
        )
        assert pickle.loads(pickle.dumps(report)) == report
        assert pickle.loads(pickle.dumps(point)) == point


class TestCacheKeysArePinned:
    """Hex literals computed on the commit before architectures were
    fingerprinted once per sweep, re-pinned at cache schema v8: with the
    schema field set back to 7 the key material gives that commit's
    keys unchanged, so only the schema number moved."""

    SPEC = dict(
        model="resnet18", strategy="dp", input_size=224, num_classes=1000
    )

    def test_default_arch(self):
        from repro.explore import PointSpec

        assert PointSpec(**self.SPEC).cache_key(repro.default_arch()) == (
            "5549fc1fa04b53cf9e4b42cc8e65230e"
            "52cc08be694f3a4ee71ba601294ea940"
        )

    def test_swept_hardware_axes(self):
        from repro.explore import PointSpec

        spec = PointSpec(**self.SPEC, mg_size=8, flit_bytes=16)
        assert spec.cache_key(repro.default_arch()) == (
            "8eacf5055185b031f2a0059773a171e9"
            "af252e8647d0474bba47ec0511d2ba6f"
        )

    #: One value off its default on every coordinate.
    EVERY = dict(
        model="resnet18", strategy="duplication", input_size=224,
        num_classes=1000, closure_limit=64, chips=4, batch=16,
        arrival_rate=2000.0, replicas=2, resident_weights=True,
        mg_size=8, flit_bytes=16,
    )

    def test_every_coordinate(self):
        from repro.explore import PointSpec

        assert PointSpec(**self.EVERY).cache_key(repro.default_arch()) == (
            "9044b09261ae66562fea4754db1a831f"
            "b9423e6865768e36a1733354318b0899"
        )

    def test_every_coordinate_under_a_fault_plan(self):
        from repro.explore import PointSpec
        from repro.faults import FaultPlan, ReplicaCrash, RetryPolicy

        plan = FaultPlan(
            events=(ReplicaCrash(0, 5000),),
            retry=RetryPolicy(max_attempts=3),
        )
        spec = PointSpec(**self.EVERY, fault_plan=plan)
        assert spec.cache_key(repro.default_arch()) == (
            "39678288c5d8fc389fb71c2dec4c8636"
            "c77a840ef56f1c2e4df66d0dc015279d"
        )


class TestSerialisedOrderIsPinned:
    """Key order of the sweep's JSON forms and the row order of the
    cross product are read by ``report``, CSV headers and saved result
    files: literals, so a table walk cannot quietly reorder them."""

    def test_design_point_keys(self):
        from repro.config import small_test_arch
        from repro.explore import evaluate_fast

        point = evaluate_fast("tiny_cnn", small_test_arch(), "generic", 8, 10)
        assert list(point.to_dict()) == [
            "model", "strategy", "mg_size", "flit_bytes", "input_size",
            "num_classes", "chips", "batch", "arrival_rate", "replicas",
            "fault_plan", "resident_weights", "tier", "load_cycles", "dropped",
            "retries", "goodput_inf_s", "cycles", "time_ms", "energy_mj",
            "tops", "throughput_inf_s", "energy_per_inf_mj",
            "p50_latency_ms", "p95_latency_ms", "p99_latency_ms", "cached",
            "energy_groups_mj", "report",
        ]

    def test_sweep_spec_keys(self):
        from repro.explore import SweepSpec

        assert list(SweepSpec(models=("tiny_cnn",)).to_dict()) == [
            "models", "strategies", "mg_sizes", "flit_sizes", "input_sizes",
            "num_classes", "closure_limit", "chip_counts", "batch_sizes",
            "arrival_rates", "replica_counts", "fault_plans",
            "resident_modes", "tiers", "arch_fingerprint", "num_points",
        ]

    def test_cross_product_order(self):
        """Two values per axis: point ``i`` takes, on the k-th axis from
        the outside, the value bit k of ``i`` selects."""
        from repro.explore import SweepSpec
        from repro.faults import FaultPlan, ReplicaCrash

        plan = FaultPlan(events=(ReplicaCrash(0, 5000),))
        outer_to_inner = (
            ("model", "models", ("tiny_cnn", "tiny_resnet")),
            ("strategy", "strategies", ("generic", "dp")),
            ("input_size", "input_sizes", (8, 16)),
            ("chips", "chip_counts", (1, 2)),
            ("batch", "batch_sizes", (1, 4)),
            ("arrival_rate", "arrival_rates", (None, 250000.0)),
            ("replicas", "replica_counts", (1, 2)),
            ("fault_plan", "fault_plans", (None, plan)),
            ("resident_weights", "resident_modes", (False, True)),
            ("tier", "tiers", ("fast", "cyclesim")),
            ("flit_bytes", "flit_sizes", (8, 16)),
            ("mg_size", "mg_sizes", (2, 4)),
        )
        spec = SweepSpec(
            num_classes=10, closure_limit={"tiny_cnn": 4},
            **{plural: values for _, plural, values in outer_to_inner},
        )
        points = spec.points()
        depth = len(outer_to_inner)
        assert len(points) == len(spec) == 2 ** depth
        for index, point in enumerate(points):
            for k, (name, _, values) in enumerate(outer_to_inner):
                bit = (index >> (depth - 1 - k)) & 1
                assert getattr(point, name) == values[bit], (index, name)
            assert point.num_classes == 10
            assert point.closure_limit == (
                4 if point.model == "tiny_cnn" else None
            )
