"""Queueing battery for the replicated serving :class:`repro.serve.Fleet`.

Locks down the fleet invariants PR 6 introduces: a one-replica fleet is
bit-identical to a plain :class:`~repro.serve.Deployment`; round-robin
and join-shortest-queue dispatch conserve requests under seeded Poisson
arrivals (no drop, no duplicate); back-to-back aggregate throughput
scales linearly with the replica count; and the tail latency is flat
below fleet saturation but grows above it -- in both fidelity tiers.
"""

import pytest

from repro.artifact import save_artifact
from repro.config import small_test_arch
from repro.errors import ConfigError
from repro.serve import (
    Deployment,
    FixedRate,
    Fleet,
    PoissonArrivals,
    TraceArrivals,
)

MODEL_KW = dict(input_size=8, num_classes=10)


@pytest.fixture(scope="module")
def march():
    return small_test_arch()


def make_fleet(march, tier="fast", **kwargs):
    return Fleet("tiny_mlp", march, strategy="generic", tier=tier,
                 **MODEL_KW, **kwargs)


class TestSingleReplicaIdentity:
    """Fleet(replicas=1) is a plain Deployment: one class, one report."""

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_bit_identical_to_deployment(self, march, tier):
        arrivals = PoissonArrivals(150000, seed=3)
        dep = Deployment("tiny_mlp", march, strategy="generic", tier=tier,
                         **MODEL_KW)
        plain = dep.submit(batch=5, arrivals=arrivals, seed=1)
        fleet = make_fleet(march, tier=tier, replicas=1).submit(
            batch=5, arrivals=PoissonArrivals(150000, seed=3), seed=1
        )
        assert Fleet is Deployment
        assert fleet.to_dict() == plain.to_dict()
        [a], [b] = fleet.replica_reports, plain.replica_reports
        assert a.service_starts == b.service_starts
        assert a.input_finishes == plain.input_finishes
        assert fleet.input_finishes == plain.input_finishes
        assert fleet.releases == plain.releases
        assert fleet.makespan_cycles == plain.makespan_cycles
        assert fleet.arrival == plain.arrival
        assert fleet.total_energy_pj == plain.total_energy_pj
        assert fleet.assignments == [0] * 5

    def test_summary_names_fleet(self, march):
        fleet = make_fleet(march, replicas=2, policy="jsq")
        assert "2 replica(s)" in fleet.summary()
        assert "jsq" in fleet.summary()


class TestReplicaCount:
    """``replicas`` is an integer count on every server: a float, a
    ``bool`` or a string is refused, not truncated or compared."""

    @pytest.mark.parametrize("server", [Deployment, Fleet])
    @pytest.mark.parametrize("replicas", [2.5, True, 0, "2"])
    def test_replicas_must_be_a_positive_integer(
        self, march, server, replicas
    ):
        with pytest.raises(ConfigError, match="replicas must be an integer"):
            server("tiny_mlp", march, strategy="generic", tier="fast",
                   replicas=replicas, **MODEL_KW)


class TestConservation:
    """Dispatch conserves requests: every input served exactly once."""

    @pytest.mark.parametrize("policy", ["rr", "jsq"])
    @pytest.mark.parametrize("replicas", [2, 4])
    def test_fast_tier_poisson(self, march, policy, replicas):
        batch = 16
        report = make_fleet(march, replicas=replicas, policy=policy).submit(
            batch=batch, arrivals=PoissonArrivals(200000, seed=7)
        )
        assert report.batch == batch
        assert len(report.assignments) == batch
        assert all(0 <= a < replicas for a in report.assignments)
        assert sum(report.replica_batches) == batch
        assert [r.batch for r in report.replica_reports] == (
            report.replica_batches
        )
        # Every input finishes strictly after it was released.
        assert all(
            f > r for f, r in zip(report.input_finishes, report.releases)
        )
        # The merged finishes are exactly the per-replica finishes.
        for replica, rep in enumerate(report.replica_reports):
            merged = [
                f for f, a in zip(report.input_finishes, report.assignments)
                if a == replica
            ]
            assert merged == rep.input_finishes

    @pytest.mark.parametrize("policy", ["rr", "jsq"])
    def test_cyclesim_validates_every_input(self, march, policy):
        report = make_fleet(
            march, tier="cyclesim", replicas=2, policy=policy
        ).submit(batch=6, arrivals=PoissonArrivals(150000, seed=5))
        assert report.validated
        assert sum(report.replica_batches) == 6

    def test_round_robin_assignment_law(self, march):
        report = make_fleet(march, replicas=3).submit(batch=7)
        assert report.assignments == [i % 3 for i in range(7)]

    def test_jsq_balances_a_burst(self, march):
        # Four simultaneous releases on two idle replicas must alternate.
        report = make_fleet(march, replicas=2, policy="jsq").submit(
            batch=4, arrivals=TraceArrivals([0, 0, 0, 0])
        )
        assert report.assignments == [0, 1, 0, 1]


class TestThroughputScaling:
    """Back-to-back aggregate rate scales linearly with replicas."""

    @pytest.mark.parametrize("replicas", [2, 4])
    def test_fast_tier_linear_scaling(self, march, replicas):
        batch = 16
        single = make_fleet(march, replicas=1).submit(batch=batch)
        fleet = make_fleet(march, replicas=replicas).submit(batch=batch)
        ratio = fleet.throughput_inf_per_s / single.throughput_inf_per_s
        assert ratio == pytest.approx(replicas, rel=1e-9)
        assert fleet.saturation_inf_per_s == pytest.approx(
            replicas * single.saturation_inf_per_s, rel=1e-9
        )

    def test_cyclesim_linear_scaling(self, march):
        batch = 8
        single = make_fleet(march, tier="cyclesim", replicas=1).submit(
            batch=batch, validate=False
        )
        fleet = make_fleet(march, tier="cyclesim", replicas=2).submit(
            batch=batch, validate=False
        )
        ratio = fleet.throughput_inf_per_s / single.throughput_inf_per_s
        assert ratio == pytest.approx(2.0, rel=1e-9)


class TestTailLatency:
    """p99 is flat below fleet saturation and grows above it."""

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_p99_flat_below_growing_above(self, march, tier):
        fleet = make_fleet(march, tier=tier, replicas=2)
        sat = fleet.submit(batch=2, validate=False).saturation_inf_per_s
        kw = dict(batch=10, validate=False)
        low = fleet.submit(
            arrivals=FixedRate(0.3 * sat), **kw
        ).p99_latency_cycles
        mid = fleet.submit(
            arrivals=FixedRate(0.6 * sat), **kw
        ).p99_latency_cycles
        high = fleet.submit(
            arrivals=FixedRate(3.0 * sat), **kw
        ).p99_latency_cycles
        # Under-saturated: queues stay empty, the tail is the service
        # latency itself at either rate.
        assert low == mid
        # Over-saturated: queueing delay accumulates into the tail.
        assert high > mid

    def test_fleet_raises_saturation_over_single(self, march):
        single = make_fleet(march, replicas=1)
        fleet = make_fleet(march, replicas=4)
        sat1 = single.submit(batch=2).saturation_inf_per_s
        # A rate that over-saturates one replica sits well below a
        # 4-replica fleet's ceiling: its tail stays flat.
        rate = 2.0 * sat1
        lone = single.submit(batch=10, arrivals=FixedRate(rate))
        spread = fleet.submit(batch=10, arrivals=FixedRate(rate))
        assert spread.saturation_inf_per_s == pytest.approx(
            4 * sat1, rel=1e-9
        )
        assert spread.p99_latency_cycles < lone.p99_latency_cycles


class TestArtifactFleet:
    def test_fleet_from_artifact(self, march, tmp_path):
        from repro import compile_model

        compiled = compile_model("tiny_mlp", march, "dp", **MODEL_KW)
        path = tmp_path / "m.artifact"
        save_artifact(compiled, path)
        report = Fleet(str(path), march, replicas=2, tier="fast").submit(
            batch=4
        )
        assert report.batch == 4
        assert report.replicas == 2

    def test_artifact_rejects_compile_keywords(self, march, tmp_path):
        from repro import compile_model

        compiled = compile_model("tiny_mlp", march, "dp", **MODEL_KW)
        path = tmp_path / "m.artifact"
        save_artifact(compiled, path)
        with pytest.raises(ConfigError, match="artifact"):
            Fleet(str(path), march, replicas=2, chips=2)


class TestValidation:
    def test_bad_policy_rejected(self, march):
        with pytest.raises(ConfigError, match="policy"):
            make_fleet(march, replicas=2, policy="lifo")

    def test_bad_replica_count_rejected(self, march):
        with pytest.raises(ConfigError, match="replicas"):
            make_fleet(march, replicas=0)

    def test_empty_submission(self, march):
        report = make_fleet(march, replicas=2).run_trace([])
        assert report.batch == 0
        assert report.assignments == []
        assert report.makespan_cycles == 0

    @pytest.mark.parametrize("replicas,faults", [
        (1, None), (2, None), (2, "crash"),
    ])
    def test_zero_batch_rejected(self, march, replicas, faults):
        # One batch rule for every server and fleet size: an empty
        # stream is an empty trace, never ``batch=0``.
        from repro.faults import FaultPlan, ReplicaCrash

        kwargs = {} if faults is None else {"faults": FaultPlan(
            events=(ReplicaCrash(replica=0, at_cycle=100),)
        )}
        fleet = make_fleet(march, replicas=replicas)
        with pytest.raises(ConfigError, match="batch must be >= 1"):
            fleet.submit(batch=0, **kwargs)


class TestFaultMetricDenominators:
    """Fault-plan metrics divide by completed work, never by submitted."""

    def make_all_drop_plan(self):
        from repro.faults import (
            FaultPlan,
            RetryPolicy,
            TransientRequestFailure,
        )

        return FaultPlan(
            events=(TransientRequestFailure(prob=1.0, seed=1),),
            retry=RetryPolicy(max_attempts=2, backoff_cycles=10),
        )

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_all_dropped_zeroes_rates(self, march, tier):
        plan = self.make_all_drop_plan()
        report = make_fleet(march, tier=tier, replicas=2).submit(
            batch=4, validate=False, faults=plan
        )
        assert report.completed == 0 and report.dropped == 4
        # Work WAS done (failed attempts burn energy), so dividing by
        # the submitted batch would fabricate a finite per-inference
        # cost and throughput; completed-denominators report zero.
        assert report.total_energy_pj > 0
        assert report.energy_per_inference_mj == 0.0
        assert report.throughput_inf_per_s == 0.0
        assert report.goodput_inf_per_s == 0.0

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_all_dropped_has_no_latency_percentiles(self, march, tier):
        plan = self.make_all_drop_plan()
        report = make_fleet(march, tier=tier, replicas=2).submit(
            batch=4, validate=False, faults=plan
        )
        assert report.latency_cycles == []
        assert report.p50_latency_cycles is None
        assert report.p99_latency_cycles is None
        assert report.p99_latency_ms is None
        assert report.to_dict()["p99_latency_cycles"] is None
        assert "n/a (0 completed)" in str(report)

    def test_crashed_cold_replica_has_no_per_inference_cost(self, march):
        from repro.faults import FaultPlan, ReplicaCrash

        # Replica 1 pays its weight load, then dies before serving
        # anything: the load is real energy but no inference's cost.
        fleet = make_fleet(march, replicas=2, resident_weights=True)
        report = fleet.submit(
            batch=4, faults=FaultPlan(events=(ReplicaCrash(1, at_cycle=1),))
        )
        lost = report.replica_reports[1]
        assert lost.batch == 0 and lost.load_cycles > 0
        assert sum(lost.energy_breakdown_pj.values()) > 0
        assert report.completed == 4
        assert report.energy_per_inference_mj == pytest.approx(
            report.total_energy_mj / 4
        )

    def test_partial_drop_divides_by_completed(self, march):
        from repro.faults import FaultPlan, ReplicaCrash, RetryPolicy

        # Replica 1 dies mid-stream with no retries: its requests drop,
        # the survivor's complete.
        plan = FaultPlan(
            events=(ReplicaCrash(replica=1, at_cycle=100),),
            retry=RetryPolicy(max_attempts=1),
        )
        report = make_fleet(march, replicas=2).submit(
            batch=6, validate=False, faults=plan
        )
        assert 0 < report.completed < report.batch
        seconds = report.makespan_cycles * report.cycle_ns / 1e9
        assert report.throughput_inf_per_s == pytest.approx(
            report.completed / seconds
        )
        assert report.energy_per_inference_mj == pytest.approx(
            report.total_energy_mj / report.completed
        )

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_utilization_from_attempt_windows(self, march, tier):
        from repro.faults import FaultPlan, ReplicaCrash, RetryPolicy

        plan = FaultPlan(
            events=(ReplicaCrash(replica=1, at_cycle=100),),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=10),
        )
        report = make_fleet(march, tier=tier, replicas=2).submit(
            batch=6, validate=False, faults=plan
        )
        assert len(report.replica_busy_cycles) == 2
        # Pin the derivation: busy attempt windows over the makespan.
        for r in range(2):
            expected = report.replica_busy_cycles[r] / (
                report.num_shards * report.makespan_cycles
            )
            assert report.replica_utilization[r] == pytest.approx(expected)
        # The crashed replica ran a partial window, not zero and not a
        # phantom full service row.
        row = sum(report.shard_cycles)
        assert 0 < report.replica_busy_cycles[1] < row

    def test_fault_free_keeps_closed_form(self, march):
        report = make_fleet(march, replicas=2).submit(batch=4, validate=False)
        row = sum(report.shard_cycles)
        assert report.replica_busy_cycles == [
            sub.batch * row for sub in report.replica_reports
        ]
        for r, sub in enumerate(report.replica_reports):
            expected = sub.batch * row / (
                report.num_shards * report.makespan_cycles
            )
            assert report.replica_utilization[r] == pytest.approx(expected)
