"""Battery for deterministic fault injection (:mod:`repro.faults`).

Locks down the PR 7 availability contract: fault plans serialize and
validate with typed :class:`~repro.errors.FaultError`\\ s, every number
checked where it enters; an empty plan under a retry policy is
bit-identical to the fault-free fleet in both fidelity tiers; every
fault plan conserves requests (``submitted == completed + dropped``)
and reproduces byte-identical
:meth:`FleetReport.to_dict` output for identical seeds -- in the same
process and across process boundaries; and each fault type has the
effect it documents (crashes reroute to survivors, transient failures
exhaust retries, deadlines drop, slowdowns stretch the tail, link
degradation slows multi-chip pipelines).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import small_test_arch
from repro.errors import FaultError
from repro.faults import (
    DROP_DEADLINE,
    DROP_MAX_ATTEMPTS,
    DROP_NO_REPLICA,
    FaultPlan,
    LinkDegrade,
    ReplicaCrash,
    ReplicaSlowdown,
    RetryPolicy,
    TransientRequestFailure,
    load_fault_plan,
    run_fault_schedule,
    save_fault_plan,
)
from repro.serve import Fleet
from repro.sim.fastmodel import serve_fleet

MODEL_KW = dict(input_size=8, num_classes=10)


@pytest.fixture(scope="module")
def march():
    return small_test_arch()


def make_fleet(march, tier="fast", **kwargs):
    return Fleet("tiny_mlp", march, strategy="generic", tier=tier,
                 **MODEL_KW, **kwargs)


def crash_plan(replica=1, at_cycle=200, **retry_kw):
    retry_kw.setdefault("max_attempts", 3)
    retry_kw.setdefault("backoff_cycles", 10)
    return FaultPlan(
        events=(ReplicaCrash(replica=replica, at_cycle=at_cycle),),
        retry=RetryPolicy(**retry_kw),
    )


# ---------------------------------------------------------------------------
# Plan construction, validation, serialization
# ---------------------------------------------------------------------------

class TestPlanValidation:
    @pytest.mark.parametrize("bad", [
        lambda: ReplicaCrash(replica=-1, at_cycle=0),
        lambda: ReplicaCrash(replica=0, at_cycle=-5),
        lambda: ReplicaSlowdown(replica=0, factor=0.5),
        lambda: ReplicaSlowdown(replica=0, factor=2.0,
                                start_cycle=10, end_cycle=10),
        lambda: LinkDegrade(bw_factor=0.0),
        lambda: LinkDegrade(bw_factor=1.5),
        lambda: TransientRequestFailure(prob=1.5),
        lambda: RetryPolicy(max_attempts=0),
        lambda: RetryPolicy(backoff_cycles=-1),
        lambda: RetryPolicy(per_request_deadline_cycles=0),
        lambda: FaultPlan(events=("not an event",)),
    ])
    def test_malformed_raises_fault_error(self, bad):
        with pytest.raises(FaultError):
            bad()

    def test_fault_error_is_repro_error(self):
        assert issubclass(FaultError, repro.ReproError)

    def test_empty_plan_is_identity_marker(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.retry is None
        assert plan.describe() == "no-fault"

    def test_crash_cycle_earliest_wins(self):
        plan = FaultPlan(events=(
            ReplicaCrash(replica=0, at_cycle=500),
            ReplicaCrash(replica=0, at_cycle=200),
        ))
        assert plan.crash_cycle(0) == 200
        assert plan.crash_cycle(1) is None


class TestPlanSerialization:
    def full_plan(self):
        return FaultPlan(
            events=(
                ReplicaCrash(replica=1, at_cycle=100),
                ReplicaSlowdown(replica=0, factor=2.5,
                                start_cycle=50, end_cycle=300),
                LinkDegrade(bw_factor=0.25, start_cycle=0, end_cycle=None,
                            replica=2),
                TransientRequestFailure(prob=0.125, seed=7),
            ),
            retry=RetryPolicy(max_attempts=4, backoff_cycles=20,
                              per_request_deadline_cycles=5000),
        )

    def test_dict_roundtrip(self):
        plan = self.full_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_file_roundtrip(self, tmp_path):
        plan = self.full_plan()
        path = tmp_path / "plan.json"
        save_fault_plan(plan, path)
        assert load_fault_plan(path) == plan

    def test_fingerprint_stable_and_sensitive(self):
        plan = self.full_plan()
        assert plan.fingerprint() == self.full_plan().fingerprint()
        other = FaultPlan(events=plan.events)
        assert other.fingerprint() != plan.fingerprint()

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {"events": [{"no": "type"}]},
        {"events": [{"type": "meteor_strike"}]},
        {"events": [{"type": "replica_crash", "bogus_field": 1}]},
        {"retry": {"max_attempts": "many"}},
    ])
    def test_malformed_payload_raises_fault_error(self, payload):
        with pytest.raises(FaultError):
            FaultPlan.from_dict(payload)

    def test_load_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(FaultError):
            load_fault_plan(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(FaultError):
            load_fault_plan(bad)


#: Plan files whose numbers are not what their field holds: ``(JSON,
#: field)``.  Each used to load and then raise a raw exception later,
#: or to be truncated (``2.5`` attempts, ``true`` as 1, two crash cycles
#: sharing one fingerprint).
BAD_NUMBERS = [
    pytest.param(
        '{"events": [{"type": "replica_crash", "replica": 0, '
        '"at_cycle": NaN}]}', "at_cycle",
        id="nan_cycle",
    ),
    pytest.param(
        '{"events": [{"type": "replica_crash", "replica": 0, '
        '"at_cycle": 1000.2}]}', "at_cycle",
        id="float_cycle",
    ),
    pytest.param(
        '{"events": [{"type": "replica_crash", "replica": true, '
        '"at_cycle": 10}]}', "replica",
        id="bool_replica",
    ),
    pytest.param(
        '{"events": [{"type": "replica_slowdown", "replica": 0, '
        '"factor": Infinity}]}', "factor",
        id="inf_factor",
    ),
    pytest.param(
        '{"events": [{"type": "link_degrade", "bw_factor": 0.5, '
        '"end_cycle": 10.5}]}', "end_cycle",
        id="float_end_cycle",
    ),
    pytest.param(
        '{"events": [{"type": "transient_request_failure", "prob": 0.1, '
        '"seed": -1}]}', "seed",
        id="negative_seed",
    ),
    pytest.param(
        '{"events": [{"type": "transient_request_failure", "prob": 0.1, '
        '"seed": true}]}', "seed",
        id="bool_seed",
    ),
    pytest.param(
        '{"retry": {"backoff_cycles": Infinity}}', "backoff_cycles",
        id="inf_backoff",
    ),
    pytest.param(
        '{"retry": {"max_attempts": 2.5}}', "max_attempts",
        id="float_attempts",
    ),
    pytest.param(
        '{"retry": {"max_attempts": true}}', "max_attempts",
        id="bool_attempts",
    ),
]


class TestPlanNumbersAreCheckedWhereTheyEnter:
    @pytest.mark.parametrize("text,field", BAD_NUMBERS)
    def test_fault_error_names_the_field(self, text, field):
        with pytest.raises(FaultError, match=field):
            FaultPlan.from_dict(json.loads(text))

    @pytest.mark.parametrize("verb", ["serve", "sweep"])
    @pytest.mark.parametrize("text,field", BAD_NUMBERS)
    def test_cli_prints_one_error_line(
        self, tmp_path, capsys, verb, text, field
    ):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(text)
        model = ["--preset", "small", "--num-classes", "10"]
        argv = {
            "serve": ["serve", "tiny_mlp", *model, "--tier", "fast",
                      "--replicas", "2", "--faults", str(path)],
            "sweep": ["sweep", "--models", "tiny_mlp", *model,
                      "--no-cache", "--quiet", "--fault-plans", str(path)],
        }[verb]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert field in err[0]


class TestTransientDraws:
    def test_pure_function_of_seed_request_attempt(self):
        event = TransientRequestFailure(prob=0.5, seed=11)
        draws = [event.fails(i, a) for i in range(32) for a in range(1, 4)]
        again = [event.fails(i, a) for i in range(32) for a in range(1, 4)]
        assert draws == again
        assert any(draws) and not all(draws)

    def test_extremes(self):
        always = TransientRequestFailure(prob=1.0)
        never = TransientRequestFailure(prob=0.0)
        assert all(always.fails(i, 1) for i in range(16))
        assert not any(never.fails(i, 1) for i in range(16))


# ---------------------------------------------------------------------------
# The fleet step under a plan, in isolation
# ---------------------------------------------------------------------------

ROW = [100, 80]
EDGES = [(0, 1, 64)]


def link():
    return small_test_arch().interchip


class TestFailoverEngine:
    def test_no_fault_schedule_is_round_robin(self):
        sched = run_fault_schedule(
            [0, 0, 0, 0], ROW, EDGES, link(), replicas=2,
        )
        assert sched.assignments == [0, 1, 0, 1]
        assert sched.dropped == []
        assert sched.retries == 0
        assert sched.attempt_counts == [1, 1, 1, 1]

    def test_crash_reroutes_to_survivors(self):
        plan = crash_plan(replica=0, at_cycle=150)
        sched = run_fault_schedule(
            [0, 0, 0, 0, 0, 0], ROW, EDGES, link(), replicas=3, plan=plan,
        )
        assert sched.dropped == []
        # everything completed lands on a survivor
        assert all(a in (1, 2) for i, a in enumerate(sched.assignments))
        assert sched.retries >= 1
        # the crashed replica's attempts are all crash-killed at the
        # crash cycle
        for record in sched.replica_attempts[0]:
            if record.status == "crashed":
                assert record.finish_cycle == 150
                assert not record.full_service

    def test_no_replica_left_drops_everything(self):
        plan = FaultPlan(
            events=(ReplicaCrash(replica=0, at_cycle=0),),
            retry=RetryPolicy(max_attempts=2),
        )
        sched = run_fault_schedule(
            [0, 10], ROW, EDGES, link(), replicas=1, plan=plan,
        )
        assert sched.statuses == [DROP_NO_REPLICA, DROP_NO_REPLICA]
        assert sched.completed == []

    def test_transient_prob_one_exhausts_attempts(self):
        plan = FaultPlan(
            events=(TransientRequestFailure(prob=1.0),),
            retry=RetryPolicy(max_attempts=3),
        )
        sched = run_fault_schedule(
            [0, 0], ROW, EDGES, link(), replicas=2, plan=plan,
        )
        assert sched.statuses == [DROP_MAX_ATTEMPTS, DROP_MAX_ATTEMPTS]
        assert sched.attempt_counts == [3, 3]
        assert sched.retries == 4  # 2 requests x 2 re-enqueues
        # failed attempts still ran the full inference
        assert all(a.full_service for a in sched.attempts)

    def test_deadline_drops_late_requests(self):
        # single replica, service 180 cycles per input back-to-back:
        # request k completes at (k+1)*180; a 400-cycle deadline admits
        # only the first two.
        row = [180]
        sched = run_fault_schedule(
            [0, 0, 0, 0], row, [], link(), replicas=1,
            retry=RetryPolicy(max_attempts=1,
                              per_request_deadline_cycles=400),
        )
        assert sched.statuses[:2] == ["completed", "completed"]
        assert set(sched.statuses[2:]) == {DROP_DEADLINE}

    def test_jsq_prefers_idle_survivor(self):
        plan = crash_plan(replica=0, at_cycle=0, backoff_cycles=0)
        sched = run_fault_schedule(
            [0, 0, 0], ROW, EDGES, link(), replicas=2, policy="jsq",
            plan=plan,
        )
        assert sched.dropped == []
        assert all(a == 1 for a in sched.assignments)

    def test_conservation_holds_across_plans(self):
        plans = [
            FaultPlan(),
            crash_plan(replica=1, at_cycle=90),
            FaultPlan(events=(TransientRequestFailure(prob=0.5, seed=3),),
                      retry=RetryPolicy(max_attempts=2)),
            FaultPlan(
                events=(
                    ReplicaCrash(replica=0, at_cycle=50),
                    ReplicaSlowdown(replica=1, factor=3.0),
                    TransientRequestFailure(prob=0.3, seed=9),
                ),
                retry=RetryPolicy(max_attempts=2, backoff_cycles=5,
                                  per_request_deadline_cycles=2000),
            ),
        ]
        for plan in plans:
            sched = run_fault_schedule(
                [i * 30 for i in range(10)], ROW, EDGES, link(),
                replicas=3, plan=plan,
            )
            assert len(sched.completed) + len(sched.dropped) == 10
            for i in sched.completed:
                assert sched.assignments[i] >= 0
                assert sched.finishes[i] > 0
            for i in sched.dropped:
                assert sched.assignments[i] == -1

    def test_slowdown_stretches_service(self):
        base = run_fault_schedule([0], [100], [], link(), replicas=1)
        slow = run_fault_schedule(
            [0], [100], [], link(), replicas=1,
            plan=FaultPlan(events=(
                ReplicaSlowdown(replica=0, factor=2.0),
            )),
        )
        assert slow.finishes[0] == 2 * base.finishes[0]
        outside = run_fault_schedule(
            [0], [100], [], link(), replicas=1,
            plan=FaultPlan(events=(
                ReplicaSlowdown(replica=0, factor=2.0, start_cycle=500),
            )),
        )
        assert outside.finishes[0] == base.finishes[0]

    def test_link_degrade_slows_pipeline(self):
        base = run_fault_schedule([0], ROW, EDGES, link(), replicas=1)
        degraded = run_fault_schedule(
            [0], ROW, EDGES, link(), replicas=1,
            plan=FaultPlan(events=(LinkDegrade(bw_factor=0.1),)),
        )
        assert degraded.finishes[0] > base.finishes[0]
        # propagation latency is unaffected: the delta is exactly the
        # stretched serialization
        ser = link().serialization_cycles(EDGES[0][2])
        stretched = -(-ser // 0.1)
        assert degraded.finishes[0] - base.finishes[0] == (
            int(stretched) - ser
        )


# ---------------------------------------------------------------------------
# Empty-plan degeneracy: the engine path equals the PR 6 path bit for bit
# ---------------------------------------------------------------------------

class TestEmptyPlanDegeneracy:
    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_fleet_engine_path_matches_unfaulted(self, march, tier):
        kwargs = dict(batch=6, seed=1)
        plain = make_fleet(march, tier=tier, replicas=3).submit(**kwargs)
        # an explicit default RetryPolicy is the policy a fault-free
        # submission already runs (and reports) under
        forced = make_fleet(march, tier=tier, replicas=3).submit(
            faults=FaultPlan(), retry=RetryPolicy(), **kwargs
        )
        assert forced.to_dict() == plain.to_dict()
        assert plain.retry_policy == RetryPolicy().to_dict()
        assert plain.attempt_counts == [1] * 6
        assert forced.dropped == 0
        assert [
            (r.service_starts, r.input_finishes, r.energy_breakdown_pj)
            for r in forced.replica_reports
        ] == [
            (r.service_starts, r.input_finishes, r.energy_breakdown_pj)
            for r in plain.replica_reports
        ]

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_none_and_empty_plan_take_unfaulted_path(self, march, tier):
        kwargs = dict(batch=5, seed=2)
        plain = make_fleet(march, tier=tier, replicas=2).submit(**kwargs)
        empty = make_fleet(march, tier=tier, replicas=2).submit(
            faults=FaultPlan(), **kwargs
        )
        assert empty.to_dict() == plain.to_dict()

    def test_fastmodel_serve_fleet_degeneracy(self, march):
        from repro.explore import evaluate_fast

        base = evaluate_fast("tiny_mlp", march, "generic", 8, 10).report
        releases = [0] * 6
        plain = serve_fleet(base, releases, march.interchip, 3)
        forced = serve_fleet(
            base, releases, march.interchip, 3,
            faults=FaultPlan(), retry=RetryPolicy(),
        )
        assert forced.to_dict() == plain.to_dict()


# ---------------------------------------------------------------------------
# Faulted Fleet serving, both tiers
# ---------------------------------------------------------------------------

class TestFaultedFleet:
    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_crash_one_of_three_conserves_and_reroutes(self, march, tier):
        plan = crash_plan(replica=1, at_cycle=200)
        report = make_fleet(march, tier=tier, replicas=3).submit(
            batch=9, faults=plan, seed=1,
        )
        assert report.submitted == 9
        assert report.submitted == report.completed + report.dropped
        assert report.dropped == 0
        assert report.goodput_inf_per_s > 0
        # the dead replica serves nothing after the crash cycle
        for record_list in [report.replica_downtime[1]]:
            assert any(w["kind"] == "crash" for w in record_list)
        text = str(report)
        assert "conservation" in text
        assert "goodput" in text
        assert "crash" in text

    def test_cyclesim_validates_under_faults(self, march):
        plan = FaultPlan(
            events=(
                ReplicaCrash(replica=0, at_cycle=300),
                ReplicaSlowdown(replica=1, factor=2.0, start_cycle=0,
                                end_cycle=10_000),
            ),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=15),
        )
        report = make_fleet(march, tier="cyclesim", replicas=3).submit(
            batch=6, faults=plan, seed=4, validate=True,
        )
        assert report.validated
        assert report.submitted == report.completed + report.dropped

    def test_deadline_drops_are_recorded_not_lost(self, march):
        plan = FaultPlan(retry=RetryPolicy(
            max_attempts=1, per_request_deadline_cycles=500,
        ))
        report = make_fleet(march, tier="fast", replicas=1).submit(
            batch=8, faults=plan, retry=plan.retry, seed=0,
        )
        assert report.submitted == 8
        assert report.completed + report.dropped == 8
        assert report.dropped > 0
        assert set(report.drop_reasons.values()) == {DROP_DEADLINE}
        assert sorted(report.drop_reasons) == report.dropped_indices
        # dropped requests are excluded from the latency percentiles
        assert len(report.latency_cycles) == report.completed

    def test_transient_failures_retry_and_charge_energy(self, march):
        plan = FaultPlan(
            events=(TransientRequestFailure(prob=1.0),),
            retry=RetryPolicy(max_attempts=2),
        )
        clean = make_fleet(march, tier="fast", replicas=2).submit(batch=4)
        flaky = make_fleet(march, tier="fast", replicas=2).submit(
            batch=4, faults=plan,
        )
        assert flaky.dropped == 4
        assert flaky.retries == 4
        # every attempt ran to completion, so energy doubles
        assert flaky.total_energy_pj == 2 * clean.total_energy_pj

    def test_slowdown_grows_tail_latency(self, march):
        slow_plan = FaultPlan(
            events=(ReplicaSlowdown(replica=0, factor=4.0),),
            retry=RetryPolicy(),
        )
        base = make_fleet(march, tier="fast", replicas=2).submit(
            batch=8, faults=FaultPlan(), retry=RetryPolicy(),
        )
        slow = make_fleet(march, tier="fast", replicas=2).submit(
            batch=8, faults=slow_plan,
        )
        assert slow.dropped == 0
        assert max(slow.latency_cycles) > max(base.latency_cycles)


# ---------------------------------------------------------------------------
# Determinism: identical plans reproduce identical reports
# ---------------------------------------------------------------------------

DETERMINISM_SNIPPET = """
import json, sys
from repro.config import small_test_arch
from repro.faults import (FaultPlan, ReplicaCrash, ReplicaSlowdown,
                          RetryPolicy, TransientRequestFailure)
from repro.serve import Fleet

plan = FaultPlan(
    events=(
        ReplicaCrash(replica=1, at_cycle=250),
        ReplicaSlowdown(replica=0, factor=1.5, start_cycle=100,
                        end_cycle=4000),
        TransientRequestFailure(prob=0.4, seed=13),
    ),
    retry=RetryPolicy(max_attempts=3, backoff_cycles=25,
                      per_request_deadline_cycles=50_000),
)
fleet = Fleet("tiny_mlp", small_test_arch(), strategy="generic",
              tier="fast", input_size=8, num_classes=10, replicas=3)
report = fleet.submit(batch=10, faults=plan, seed=5)
json.dump(report.to_dict(), sys.stdout, sort_keys=True)
"""


class TestDeterminism:
    def run_once(self, march, tier="fast"):
        plan = FaultPlan(
            events=(
                ReplicaCrash(replica=1, at_cycle=250),
                TransientRequestFailure(prob=0.4, seed=13),
            ),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=25),
        )
        return make_fleet(march, tier=tier, replicas=3).submit(
            batch=10, faults=plan, seed=5,
        ).to_dict()

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_repeated_runs_byte_identical(self, march, tier):
        first = json.dumps(self.run_once(march, tier), sort_keys=True)
        second = json.dumps(self.run_once(march, tier), sort_keys=True)
        assert first == second

    def test_across_process_boundaries(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        outputs = set()
        for seed_flip in range(2):
            env["PYTHONHASHSEED"] = str(seed_flip)
            proc = subprocess.run(
                [sys.executable, "-c", DETERMINISM_SNIPPET],
                capture_output=True, text=True, env=env, timeout=240,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_fast_report_roundtrip_with_fault_fields(self, march):
        from repro.explore import evaluate_fast
        from repro.sim.fastmodel import FastReport

        plan = crash_plan(replica=1, at_cycle=150)
        point = evaluate_fast(
            "tiny_mlp", march, "generic", 8, 10,
            batch=6, replicas=3, fault_plan=plan,
        )
        payload = point.report.to_dict()
        assert payload["dropped"] == point.report.dropped
        assert payload["retries"] == point.report.retries
        assert FastReport.from_dict(payload).to_dict() == payload
