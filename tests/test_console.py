"""The operator console: event-stream tables + headless snapshot.

The snapshot contract: folding a drained session's recorded event
stream through :class:`~repro.console.ConsoleState` yields the operator
tables -- per-shard utilisation, replica health, queue depth, rolling
p50/p99 -- as one JSON-able dict, deterministic for virtual-clock
sessions, with the closed-form
:func:`~repro.sim.fastmodel.steady_state_utilization` cross-check next
to the measured numbers.
"""

import json

import pytest

from repro import Fleet, FaultPlan, ReplicaCrash, RetryPolicy
from repro.config import InterChipConfig
from repro.console import (
    ConsoleState,
    console_snapshot,
    drive_session,
    headless_watch,
    snapshot_json,
)
from repro.errors import ConfigError
from repro.runtime import (
    ReplicaStateChanged,
    RequestAdmitted,
    RequestCompleted,
    RequestDropped,
)
from repro.serve import Deployment


def _deployment(arch, **kw):
    return Deployment(
        "tiny_mlp", arch, input_size=8, num_classes=10, **kw
    )


def _fleet(arch, **kw):
    return Fleet("tiny_mlp", arch, input_size=8, num_classes=10, **kw)


RELEASES = [0, 300, 600, 900, 1200, 1500]


# ---------------------------------------------------------------------------
# ConsoleState: pure event folding
# ---------------------------------------------------------------------------

class TestConsoleState:
    def test_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="window"):
            ConsoleState([100], 1, window=0)

    def test_counts_and_queue_depth(self):
        state = ConsoleState([100], 2, window=8)
        state.observe(RequestAdmitted(0, 0, 0, 0))
        state.observe(RequestAdmitted(1, 0, 1, 0))
        assert state.counts()["in_flight"] == 2
        state.observe(RequestCompleted(0, 0, 0, 500, 500, 1))
        counts = state.counts()
        assert counts["completed"] == 1
        assert counts["in_flight"] == 1
        # Request 0's promised finish (500) is past now (release 0).
        assert state.queue_depth(0) == 1
        assert state.queue_depth(1) == 1

    def test_drop_reasons_accumulate(self):
        state = ConsoleState([100], 1, window=8)
        state.observe(RequestDropped(0, 10, "deadline", 1))
        state.observe(RequestDropped(1, 20, "deadline", 2))
        assert state.counts()["drop_reasons"] == {"deadline": 2}

    def test_crash_resets_in_flight(self):
        state = ConsoleState([100], 2, window=8)
        state.observe(RequestAdmitted(0, 0, 1, 0))
        state.observe(ReplicaStateChanged(1, "crashed", 50))
        assert state.replica_state[1] == "crashed"
        assert state.replica_in_flight[1] == 0

    def test_rolling_window_bounds_percentiles(self):
        state = ConsoleState([100], 1, window=2)
        for i, latency in enumerate([1000, 10, 20]):
            state.observe(RequestCompleted(i, 0, 0, latency, latency, 1))
        table = state.latency_table()
        # The window holds only the last two samples; the 1000 aged out.
        assert table["samples"] == 2
        assert table["rolling_p50_cycles"] == 10
        assert table["rolling_p99_cycles"] == 20

    def test_latency_table_sorts_its_window_once(self, monkeypatch):
        import repro.arrivals

        real = repro.arrivals.latency_percentiles
        calls = []

        def counting(latencies, pcts):
            calls.append(tuple(pcts))
            return real(latencies, pcts)

        monkeypatch.setattr(repro.arrivals, "latency_percentiles", counting)
        state = ConsoleState([100], 1, window=8)
        for i, latency in enumerate([30, 10, 20]):
            state.observe(RequestCompleted(i, 0, 0, latency, latency, 1))
        table = state.latency_table()
        assert calls == [(50, 99)]
        assert table["rolling_p50_cycles"] == 20
        assert table["rolling_p99_cycles"] == 30

    def test_utilization_over_work_horizon(self):
        state = ConsoleState([400], 1, window=8)
        state.observe(RequestAdmitted(0, 0, 0, 0))
        state.observe(RequestCompleted(0, 0, 0, 400, 400, 1))
        state.observe(RequestAdmitted(1, 400, 0, 400))
        state.observe(RequestCompleted(1, 400, 0, 800, 400, 1))
        rows = state.shard_table()
        assert rows[0]["busy_cycles"] == 800
        assert rows[0]["utilization"] == 1.0


# ---------------------------------------------------------------------------
# Snapshots of real sessions
# ---------------------------------------------------------------------------

class TestSnapshot:
    def test_snapshot_shape_and_consistency(self, arch):
        snapshot = headless_watch(_deployment(arch), RELEASES)
        assert snapshot["schema"] == 1
        assert snapshot["replicas"] == 1
        counts = snapshot["counts"]
        assert counts["admitted"] == len(RELEASES)
        assert counts["completed"] + counts["dropped"] == len(RELEASES)
        assert snapshot["final_report"]["batch"] == len(RELEASES)
        for row in snapshot["shards"]:
            assert 0.0 <= row["utilization"] <= 1.0
        assert snapshot["latency"]["rolling_p50_cycles"] is not None
        # Snapshot must round-trip through JSON for CI consumption.
        assert json.loads(snapshot_json(snapshot)) == json.loads(
            json.dumps(snapshot)
        )

    def test_snapshot_is_deterministic(self, arch):
        a = headless_watch(_fleet(arch, replicas=2, policy="jsq"), RELEASES)
        b = headless_watch(_fleet(arch, replicas=2, policy="jsq"), RELEASES)
        assert snapshot_json(a) == snapshot_json(b)

    def test_model_cross_check_present(self, arch):
        snapshot = headless_watch(_deployment(arch), RELEASES)
        model = snapshot["model"]
        assert model["steady_interval_cycles"] > 0
        assert model["arrival_interval_cycles"] == 300.0
        assert len(model["utilization"]) == len(snapshot["shards"])

    def test_faulted_snapshot_reports_crash_and_drops(self, arch):
        plan = FaultPlan(
            events=(ReplicaCrash(replica=1, at_cycle=400),),
            retry=RetryPolicy(max_attempts=2, backoff_cycles=10),
        )
        snapshot = headless_watch(
            _fleet(arch, replicas=2), RELEASES, faults=plan,
        )
        states = {r["replica"]: r["state"] for r in snapshot["replicas_table"]}
        assert states[1] == "crashed"
        final = snapshot["final_report"]
        assert final["completed"] + final["dropped"] == len(RELEASES)

    def test_snapshot_before_drain_has_no_final_report(self, arch):
        import asyncio

        async def scenario():
            from repro.runtime import VirtualClock, serve_forever

            clock = VirtualClock()
            handle = await serve_forever(_deployment(arch), clock=clock)
            await handle.submit(at=0)  # admitted before it returns
            snapshot = console_snapshot(handle)
            assert snapshot["final_report"] is None
            assert snapshot["counts"]["admitted"] == 1
            await handle.drain()
            return console_snapshot(handle)

        drained = asyncio.run(scenario())
        assert drained["final_report"]["batch"] == 1

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_final_report_sorts_its_latencies_once(
        self, arch, replicas, monkeypatch
    ):
        """The final block's p50 and p99 come from one sort, next to the
        rolling table's one sort of its window."""
        import asyncio

        import repro.arrivals

        server = (
            _deployment(arch, tier="fast") if replicas == 1
            else _fleet(arch, tier="fast", replicas=replicas)
        )
        handle = asyncio.run(drive_session(server, RELEASES))
        real = repro.arrivals.latency_percentiles
        calls = []

        def counting(latencies, pcts):
            calls.append(tuple(pcts))
            return real(latencies, pcts)

        monkeypatch.setattr(repro.arrivals, "latency_percentiles", counting)
        final = console_snapshot(handle)["final_report"]
        assert calls == [(50, 99), (50, 99)]
        assert (final["p50_latency_cycles"], final["p99_latency_cycles"]) == (
            handle.report.p50_latency_cycles, handle.report.p99_latency_cycles
        )

    def test_drive_session_cross_checks(self, arch):
        import asyncio

        handle = asyncio.run(drive_session(_deployment(arch), RELEASES))
        assert handle.report is not None
        offline = _deployment(arch).run_trace(RELEASES)
        assert handle.report.to_dict() == offline.to_dict()


# ---------------------------------------------------------------------------
# steady_state_utilization (the model half of the cross-check)
# ---------------------------------------------------------------------------

class TestSteadyStateUtilization:
    LINK = InterChipConfig(
        bandwidth_bytes_per_cycle=8, latency_cycles=100,
        energy_pj_per_byte=1.0,
    )

    def test_below_saturation_scales_with_interval(self):
        from repro.sim.fastmodel import steady_state_utilization

        util = steady_state_utilization([500, 250], [(0, 1, 80)],
                                        self.LINK, 1000)
        assert util == [0.5, 0.25]

    def test_at_saturation_bottleneck_pins_to_one(self):
        from repro.sim.fastmodel import steady_state_utilization

        # Interval below the bottleneck (500): the initiation interval
        # pins to the bottleneck, the busiest shard runs at 1.0.
        util = steady_state_utilization([500, 250], [(0, 1, 80)],
                                        self.LINK, 100)
        assert util == [1.0, 0.5]
        # Back-to-back offered load (interval 0) is saturation too.
        assert steady_state_utilization([500], [], self.LINK, 0) == [1.0]

    def test_rejects_negative_interval_and_handles_empty(self):
        from repro.sim.fastmodel import steady_state_utilization

        with pytest.raises(ConfigError, match=">= 0"):
            steady_state_utilization([500], [], self.LINK, -1)
        assert steady_state_utilization([], [], self.LINK, 100) == []


# ---------------------------------------------------------------------------
# CLI: repro watch
# ---------------------------------------------------------------------------

class TestWatchCli:
    def test_snapshot_to_file(self, arch, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "snap.json"
        code = main([
            "watch", "tiny_mlp", "--preset", "small", "--input-size", "8",
            "--batch", "4", "--interval", "300", "--snapshot", str(out),
        ])
        assert code == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["counts"]["completed"] == 4
        assert "wrote" in capsys.readouterr().out

    def test_snapshot_to_stdout_with_replicas(self, arch, capsys):
        from repro.cli import main

        code = main([
            "watch", "tiny_mlp", "--preset", "small", "--input-size", "8",
            "--batch", "6", "--interval", "200", "--replicas", "2",
            "--policy", "jsq", "--snapshot",
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["replicas"] == 2
        assert snapshot["policy"] == "jsq"
        assert len(snapshot["replicas_table"]) == 2

    def test_no_flag_is_snapshot_to_stdout(self, arch, capsys):
        from repro.cli import main

        base = [
            "watch", "tiny_mlp", "--preset", "small", "--input-size", "8",
            "--batch", "4", "--interval", "300",
        ]
        printed = []
        for flags in ([], ["--snapshot"], ["--snapshot", "-"]):
            assert main(base + flags) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] == printed[2]
        assert json.loads(printed[0])["counts"]["completed"] == 4
