"""Public-API snapshot: the importable surface of ``repro`` is a contract.

The exact set of names exported from ``repro`` is frozen here; adding a
name means updating the snapshot *deliberately* in the same change, and
removing or renaming one fails CI.  The one-shot shims ``run_workflow``
and ``simulate`` (deprecation-warned since the serving API landed) were
removed deliberately: the snapshot is the previous one minus those two,
and :class:`repro.Deployment` is the one entry point.
"""

import warnings

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
    "serve_arrivals",
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
    "design_space",
    "mg_flit_sweep",
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
