"""Resident-weights serving sessions (PR 9).

A ``Deployment(..., resident_weights=True)`` executes each shard's
input-invariant weight-load prologue once per session; every later input
replays only activation traffic.  These tests pin the contract in both
fidelity tiers:

- outputs are bit-identical to the non-resident path (first submission
  and warm submissions alike);
- the warm path executes the load program exactly once per shard
  (engine counters) and warm energy excludes the load tallies;
- the steady-state law ``makespan(B) = load + warm_makespan(1) +
  (B - 1) * warm_bottleneck`` is exact for 1, 2 and 4 chips;
- a replica crash invalidates resident weights, so failover re-pays the
  load phase;
- artifact-loaded deployments (no execution plan) reject resident mode;
- the fleet step's ``load_offsets`` are the identity when absent;
- the explore sweep prices a ``resident_weights`` axis (keyed since
  cache schema v7) under the fleet's load law (schema v8).
"""

import json

import numpy as np
import pytest

from repro.config import small_test_arch
from repro.errors import ConfigError, SimulationError
from repro.explore import SweepSpec, evaluate_fast, run_sweep
from repro.explore_cache import CACHE_SCHEMA_VERSION, ResultCache, point_key
from repro.faults import (
    FaultPlan,
    ReplicaCrash,
    RetryPolicy,
    run_fault_schedule,
)
from repro.serve import Deployment, Fleet
from repro.sim.blockengine import ENGINE_STATS
from repro.sim.fastmodel import FastReport

MODEL_KW = dict(input_size=8, num_classes=10)

#: (model, chips): tiny_mlp shards to at most 2 chips; tiny_cnn covers 4.
SHARDINGS = [("tiny_mlp", 1), ("tiny_mlp", 2), ("tiny_cnn", 4)]


@pytest.fixture()
def march():
    return small_test_arch()


def make_deployment(march, resident, chips=1, model="tiny_mlp",
                    tier="cyclesim"):
    return Deployment(
        model, arch=march, chips=chips, strategy="generic", tier=tier,
        resident_weights=resident, **MODEL_KW,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("model,chips", SHARDINGS)
    def test_outputs_match_non_resident(self, march, model, chips):
        base = make_deployment(march, False, chips=chips, model=model)
        res = make_deployment(march, True, chips=chips, model=model)
        cold = res.submit(batch=3, seed=7)
        plain = base.submit(batch=3, seed=7)
        assert cold.validated and plain.validated
        [plain] = plain.replica_reports
        for a, b in zip(
            cold.replica_reports[0].per_input_outputs, plain.per_input_outputs
        ):
            assert set(a) == set(b)
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])
        # Warm submissions stay bit-identical too.
        warm = res.submit(batch=3, seed=7)
        assert warm.validated
        for a, b in zip(
            warm.replica_reports[0].per_input_outputs, plain.per_input_outputs
        ):
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])

    def test_first_submission_pays_load_then_warm(self, march):
        dep = make_deployment(march, True)
        cold = dep.submit(batch=2, validate=False)
        assert cold.resident and cold.replica_load_cycles[0] > 0
        warm = dep.submit(batch=2, validate=False)
        assert warm.resident and warm.replica_load_cycles == [0]
        assert warm.makespan_cycles < cold.makespan_cycles


class TestLoadOncePerShard:
    @pytest.mark.parametrize("model,chips", SHARDINGS)
    def test_engine_counters(self, march, model, chips):
        dep = make_deployment(march, True, chips=chips, model=model)
        loads0 = ENGINE_STATS["resident_load_runs"]
        warms0 = ENGINE_STATS["resident_warm_runs"]
        dep.submit(batch=3, validate=False)
        assert ENGINE_STATS["resident_load_runs"] - loads0 == chips
        assert ENGINE_STATS["resident_warm_runs"] - warms0 == 3 * chips
        dep.submit(batch=2, validate=False)
        # No further load runs: the session weights stayed resident.
        assert ENGINE_STATS["resident_load_runs"] - loads0 == chips
        assert ENGINE_STATS["resident_warm_runs"] - warms0 == 5 * chips

    def test_warm_energy_excludes_load_tallies(self, march):
        dep = make_deployment(march, True)
        [cold] = dep.submit(batch=1, seed=0, validate=False).replica_reports
        [warm] = dep.submit(batch=1, seed=0, validate=False).replica_reports
        assert cold.load_energy_pj and any(
            v > 0 for v in cold.load_energy_pj.values()
        )
        assert warm.load_energy_pj == {}
        # Cold energy = warm energy + the run-once load tallies, exactly.
        for key, value in cold.energy_breakdown_pj.items():
            expected = warm.energy_breakdown_pj.get(key, 0.0)
            expected += cold.load_energy_pj.get(key, 0.0)
            assert value == pytest.approx(expected)


class TestSteadyStateLaw:
    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    @pytest.mark.parametrize("model,chips", SHARDINGS)
    def test_makespan_law(self, march, tier, model, chips):
        dep = make_deployment(march, True, chips=chips, model=model,
                              tier=tier)
        cold = dep.submit(batch=4, validate=False)
        w1 = dep.submit(batch=1, validate=False)
        w2 = dep.submit(batch=2, validate=False)
        w4 = dep.submit(batch=4, validate=False)
        [load] = cold.replica_load_cycles
        assert load > 0
        interval = w2.makespan_cycles - w1.makespan_cycles
        assert interval > 0
        # warm_makespan(B) = warm_makespan(1) + (B - 1) * bottleneck
        assert w4.makespan_cycles == w1.makespan_cycles + 3 * interval
        # makespan(B) = load + warm_makespan(B), exact
        assert cold.makespan_cycles == load + w4.makespan_cycles

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_warm_rate_beats_cold_rate(self, march, tier):
        res = make_deployment(march, True, tier=tier)
        base = make_deployment(march, False, tier=tier)
        res.submit(batch=1, validate=False)  # pay the load once
        warm = res.submit(batch=4, validate=False)
        plain = base.submit(batch=4, validate=False)
        assert warm.makespan_cycles < plain.makespan_cycles


class TestCrashFailover:
    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_crash_invalidates_resident_weights(self, march, tier):
        fleet = Fleet(
            "tiny_mlp", march, strategy="generic", tier=tier, replicas=2,
            resident_weights=True, **MODEL_KW,
        )
        cold = fleet.submit(batch=4, validate=False)
        assert cold.resident
        load = cold.replica_load_cycles[0]
        assert load > 0 and cold.replica_load_cycles == [load, load]
        warm = fleet.submit(batch=4, validate=False)
        assert warm.replica_load_cycles == [0, 0]
        plan = FaultPlan(
            events=(ReplicaCrash(replica=1, at_cycle=load + 50),),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=10),
        )
        crashed = fleet.submit(batch=4, validate=False, faults=plan)
        assert crashed.replica_load_cycles == [0, 0]  # was warm going in
        # Failover re-pays the load on the crashed replica only.
        after = fleet.submit(batch=4, validate=False)
        assert after.replica_load_cycles == [0, load]
        assert after.makespan_cycles > warm.makespan_cycles


class TestArtifactRejection:
    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_artifact_cannot_open_resident_session(self, march, tier,
                                                   tmp_path):
        from repro.artifact import save_artifact
        from repro import compile_model

        compiled = compile_model(
            "tiny_mlp", arch=march, strategy="generic", **MODEL_KW
        )
        path = tmp_path / "tiny_mlp.artifact"
        save_artifact(compiled, path)
        with pytest.raises(ConfigError, match="resident"):
            Deployment.load(path, arch=march, tier=tier,
                            resident_weights=True)


class TestFaultEngineLoadOffsets:
    LINK = small_test_arch().interchip

    def run(self, **kwargs):
        return run_fault_schedule(
            [0, 0, 0, 0], [100], [], self.LINK, 2, **kwargs
        )

    def test_none_equals_zero_offsets(self):
        plain = self.run()
        zeros = self.run(load_offsets=[0, 0])
        assert plain.attempts == zeros.attempts
        assert plain.finishes == zeros.finishes
        assert plain.makespan == zeros.makespan

    def test_offsets_delay_first_service(self):
        shifted = self.run(load_offsets=[500, 500])
        plain = self.run()
        assert all(a.dispatch_cycle >= 500 for a in shifted.attempts)
        assert all(a.start_cycle >= 500 for a in shifted.attempts)
        assert shifted.makespan == plain.makespan + 500

    def test_offset_length_validated(self):
        with pytest.raises(SimulationError, match="load_offsets"):
            self.run(load_offsets=[10])


class TestResidentReportSerialization:
    def test_serve_report_always_carries_the_resident_block(self, march):
        res = make_deployment(march, True).submit(batch=1, validate=False)
        plain = make_deployment(march, False).submit(batch=1, validate=False)
        res, plain = res.to_dict(), plain.to_dict()
        assert res["resident"] is True
        assert res["replica_load_cycles"][0] > 0
        assert plain["resident"] is False
        assert plain["replica_load_cycles"] == [0]
        assert res.keys() == plain.keys()

    def test_fast_report_load_cycles_round_trip(self):
        loaded = FastReport(
            cycles=10, energy_breakdown_pj={"x": 1.0}, macs=5,
            clock_mhz=1000, load_cycles=7,
        )
        data = loaded.to_dict()
        assert data["load_cycles"] == 7
        assert FastReport.from_dict(data) == loaded
        bare = FastReport(
            cycles=10, energy_breakdown_pj={"x": 1.0}, macs=5,
            clock_mhz=1000,
        )
        assert "load_cycles" not in bare.to_dict()
        assert FastReport.from_dict(bare.to_dict()) == bare


class TestExploreResidentAxis:
    KW = dict(strategy="generic", input_size=8, num_classes=10)

    def test_single_shot_recomposes_exactly(self):
        plain = evaluate_fast("tiny_mlp", **self.KW)
        res = evaluate_fast("tiny_mlp", resident_weights=True, **self.KW)
        assert res.report.load_cycles > 0
        # warm + load recompose the non-resident single shot exactly.
        assert res.cycles == plain.cycles
        assert res.report.total_energy_pj == pytest.approx(
            plain.report.total_energy_pj
        )

    def test_batch_amortizes_load(self):
        b1 = evaluate_fast("tiny_mlp", resident_weights=True, **self.KW)
        b4 = evaluate_fast("tiny_mlp", batch=4, resident_weights=True,
                           **self.KW)
        plain4 = evaluate_fast("tiny_mlp", batch=4, **self.KW)
        load = b1.report.load_cycles
        warm = b1.cycles - load
        assert b4.cycles == load + 4 * warm
        assert b4.cycles < plain4.cycles
        assert b4.energy_per_inf_mj < plain4.energy_per_inf_mj

    def test_sweep_axis_and_derivation(self):
        spec = SweepSpec(
            models=("tiny_mlp",), strategies=("generic",), input_sizes=(8,),
            num_classes=10, batch_sizes=(1, 4),
            resident_modes=(False, True),
        )
        assert len(spec) == 4
        result = run_sweep(spec)
        by_coords = {
            (pt.batch, pt.resident_weights): pt for pt in result.points
        }
        assert set(by_coords) == {(1, False), (1, True), (4, False),
                                  (4, True)}
        direct = evaluate_fast("tiny_mlp", batch=4, resident_weights=True,
                               **self.KW)
        assert (by_coords[(4, True)].report.to_dict()
                == direct.report.to_dict())
        row = by_coords[(4, True)].to_dict()
        assert row["resident_weights"] is True
        assert row["load_cycles"] > 0

    @pytest.mark.parametrize("model", ["tiny_resnet", "tiny_cnn"])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_sharded_point_is_the_fast_deployment(self, march, model, batch):
        """``chips > 1`` x resident (``analyze_pipeline(...,
        resident=True)``) prices what a fast-tier resident ``Deployment``
        of the same shape reports."""
        point = evaluate_fast(
            model, march, "dp", chips=2, batch=batch, resident_weights=True,
            **MODEL_KW,
        )
        served = Deployment(
            model, march, strategy="dp", chips=2, tier="fast",
            resident_weights=True, **MODEL_KW,
        ).submit(batch=batch)
        assert point.report.load_cycles == served.replica_load_cycles[0] > 0
        assert point.cycles == served.makespan_cycles
        assert point.report.total_energy_pj == served.total_energy_pj

    def test_resident_modes_validated(self):
        with pytest.raises(ConfigError, match="resident modes"):
            SweepSpec(models=("tiny_mlp",), resident_modes=())
        with pytest.raises(ConfigError, match="resident modes"):
            SweepSpec(models=("tiny_mlp",), resident_modes=(1,))


class TestCacheSchemaV8:
    def test_schema_version_bumped(self):
        assert CACHE_SCHEMA_VERSION == 8

    def test_resident_flag_changes_point_key(self):
        arch = small_test_arch()
        kw = dict(strategy="generic", input_size=8, num_classes=10)
        assert point_key("tiny_mlp", arch, **kw) != point_key(
            "tiny_mlp", arch, resident=True, **kw
        )

    def test_resident_points_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=0)
        spec = SweepSpec(
            models=("tiny_mlp",), strategies=("generic",), input_sizes=(8,),
            num_classes=10, resident_modes=(False, True),
        )
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=cache)
        assert second.stats.cache_hits == len(spec)
        for a, b in zip(first.points, second.points):
            assert b.cached
            assert a.report.to_dict() == b.report.to_dict()
            assert a.resident_weights == b.resident_weights

    def test_cli_sweep_round_trips_through_the_cache(self, tmp_path):
        """``repro sweep`` over the batch and resident axes, run twice on
        one cache directory: every point of the second run is a cache
        hit, each row equals the first run's but for ``cached``, and the
        resident rows price a load phase."""
        from repro.cli import main

        runs = []
        for name in ("cold", "warm"):
            out = tmp_path / f"{name}.json"
            assert main([
                "sweep", "--models", "tiny_mlp", "--strategies", "generic",
                "--input-sizes", "8", "--num-classes", "10",
                "--preset", "small", "--batch", "1,4",
                "--resident-modes", "false,true",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(out), "--quiet",
            ]) == 0
            runs.append(json.loads(out.read_text())["points"])
        cold, warm = runs
        assert len(cold) == len(warm) == 4
        assert not any(p["cached"] for p in cold)
        assert all(p["cached"] for p in warm)
        for a, b in zip(cold, warm):
            assert {**a, "cached": None} == {**b, "cached": None}
        resident = [p for p in warm if p["resident_weights"]]
        assert len(resident) == 2
        assert all(p["load_cycles"] > 0 for p in resident)


class TestFastTierEligibilityMirror:
    """The fast tier's hoisting rule must track the compiler's per-core
    split, including nodes that span eligible and ineligible cores."""

    def test_partial_node_hoist_matches_compiler(self, march):
        # tiny_cnn's first conv spreads over one single-stage core and
        # several multi-stage cores: the per-core program split hoists
        # only the single-stage core's load, so the fast tier must hoist
        # exactly the matching replicas -- not all-or-nothing per node.
        from repro import compile_model
        from repro.sim.fastmodel import (
            analyze_pipeline,
            resident_plan_replicas,
        )

        compiled = compile_model(
            "tiny_cnn", arch=march, strategy="dp", **MODEL_KW
        )
        plan = compiled.plan
        per_node = resident_plan_replicas(plan)
        assert per_node, "fast tier found nothing hoistable"
        partial = False
        for stage in plan.stages:
            for node in stage.nodes:
                total = len(stage.mappings[node.name].replicas)
                hoisted = len(per_node.get(node.name, ()))
                if 0 < hoisted < total:
                    partial = True
        assert partial, "expected a partially-hoistable node in tiny_cnn"
        assert plan.resident_cores()
        _, load_cycles, load_energy = analyze_pipeline(
            [plan], [], march, resident=True
        )
        assert load_cycles > 0
        assert sum(load_energy.values()) > 0

    @pytest.mark.parametrize("model,chips", SHARDINGS)
    def test_tiers_agree_on_hoistability(self, march, model, chips):
        # Whenever the compiler hoists a load segment, the analytic tier
        # must price a nonzero load phase too (and vice versa), so a
        # sweep's resident column never contradicts a cyclesim serve.
        fast = make_deployment(
            march, True, chips=chips, model=model, tier="fast"
        ).submit(batch=1)
        cyc = make_deployment(
            march, True, chips=chips, model=model
        ).submit(batch=1, validate=False)
        assert (fast.replica_load_cycles[0] > 0) == (
            cyc.replica_load_cycles[0] > 0
        )
