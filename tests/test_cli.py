"""Smoke tests for the ``python -m repro`` command line."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.config import arch_to_dict, save_arch, small_test_arch
from repro.config.arch import GLOBAL_BASE


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def small_arch_file(tmp_path):
    path = tmp_path / "small.json"
    save_arch(small_test_arch(), path)
    return str(path)


class TestParser:
    @pytest.mark.parametrize("command", ["run", "sweep", "compare", "report"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_module_invocation(self):
        """`python -m repro sweep --help` works as a real subprocess."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert "--workers" in proc.stdout

    def test_unknown_model_is_reported(self, capsys):
        assert run_cli(
            "sweep", "--models", "no_such_model", "--preset", "small",
            "--input-sizes", "8", "--num-classes", "10", "--no-cache",
            "--quiet",
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_tiny_sweep_with_cache_json_csv(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        out_csv = tmp_path / "sweep.csv"
        cache_dir = tmp_path / "cache"
        argv = (
            "sweep", "--models", "tiny_cnn", "--strategies", "generic,dp",
            "--input-sizes", "8", "--num-classes", "10", "--preset", "small",
            "--cache-dir", str(cache_dir), "--quiet",
            "--json", str(out_json), "--csv", str(out_csv),
        )
        assert run_cli(*argv) == 0
        first = capsys.readouterr().out
        assert "2 evaluated, 0 cache hits" in first

        payload = json.loads(out_json.read_text())
        assert len(payload["points"]) == 2
        assert {p["strategy"] for p in payload["points"]} == {"generic", "dp"}
        assert out_csv.read_text().startswith("model,strategy,")

        # second run: everything served from the on-disk cache
        assert run_cli(*argv) == 0
        second = capsys.readouterr().out
        assert "0 evaluated, 2 cache hits (100%)" in second

    def test_progress_lines_tell_points_apart(self, capsys):
        """Each line names the coordinates the sweep varies: rate and
        resident mode used to be missing, so 16 points printed 6 labels."""
        assert run_cli(
            "sweep", "--models", "tiny_cnn", "--preset", "small",
            "--input-sizes", "8", "--num-classes", "10",
            "--strategies", "generic,dp", "--batch", "1,4",
            "--arrival-rates", "none,250000", "--resident-modes", "false,true",
            "--no-cache",
        ) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]
        assert len(lines) == 16
        labels = {line.split("] ", 1)[1].split("  TOPS=")[0] for line in lines}
        assert len(labels) == 16
        assert all("arrival_rate=" in label and "resident_weights=" in label
                   for label in labels)

    def test_arch_file_and_closure_limit(self, small_arch_file, capsys):
        assert run_cli(
            "sweep", "--models", "tiny_cnn", "--strategies", "dp",
            "--input-sizes", "8", "--num-classes", "10",
            "--arch", small_arch_file, "--closure-limit", "tiny_cnn=4",
            "--no-cache", "--quiet",
        ) == 0
        assert "tiny_cnn" in capsys.readouterr().out


class TestRunCommand:
    def test_run_tiny_model(self, tmp_path, capsys):
        out_json = tmp_path / "run.json"
        assert run_cli(
            "run", "tiny_resnet", "--preset", "small", "--input-size", "8",
            "--json", str(out_json),
        ) == 0
        out = capsys.readouterr().out
        assert "validated : bit-exact vs golden model" in out
        payload = json.loads(out_json.read_text())
        assert payload["validated"] is True
        assert payload["report"]["cycles"] > 0
        assert (payload["strategy"], payload["chips"]) == ("dp", 1)
        assert (payload["input_size"], payload["num_classes"]) == (8, 10)

    @pytest.mark.parametrize("verb", ("run", "serve"))
    def test_json_header_describes_the_artifact_not_the_flags(
        self, verb, tmp_path, capsys
    ):
        """An artifact carries its own chips and strategy and ignores
        --input-size/--num-classes; the header used to print the argparse
        defaults (1 chip, dp, 32 px) next to a two-shard report."""
        artifact = tmp_path / "m.artifact"
        assert run_cli(
            "compile", "tiny_resnet", "--preset", "small", "--input-size",
            "8", "--chips", "2", "--strategy", "generic", "-o", str(artifact),
        ) == 0
        out_json = tmp_path / "out.json"
        assert run_cli(
            verb, str(artifact), "--preset", "small", "--json", str(out_json),
        ) == 0
        payload = json.loads(out_json.read_text())
        assert payload["chips"] == 2
        assert payload["strategy"] == "generic"
        assert payload["input_size"] is None
        assert payload["num_classes"] is None
        shards = {"run": "num_chips", "serve": "num_shards"}[verb]
        assert payload["report"][shards] == 2


class TestInspectCommand:
    def test_inspect_prints_the_verified_digest(self, tmp_path, capsys):
        """``repro inspect`` of a freshly compiled 2-chip artifact exits 0
        and prints the digest ``inspect_artifact`` verified."""
        from repro.artifact import inspect_artifact

        artifact = tmp_path / "tiny_resnet.artifact"
        assert run_cli(
            "compile", "tiny_resnet", "--preset", "small", "--input-size",
            "8", "--chips", "2", "-o", str(artifact),
        ) == 0
        capsys.readouterr()
        assert run_cli("inspect", str(artifact)) == 0
        digest = inspect_artifact(artifact)["digest"]
        assert f"digest    : sha256:{digest}\n" in capsys.readouterr().out


class TestCompareCommand:
    def test_normalized_table(self, capsys):
        assert run_cli(
            "compare", "--models", "tiny_cnn", "--strategies", "generic,dp",
            "--input-size", "8", "--num-classes", "10", "--preset", "small",
            "--no-cache",
        ) == 0
        out = capsys.readouterr().out
        assert "generic = 1.00" in out
        assert "tiny_cnn" in out


class TestReportCommand:
    def test_roundtrip_from_sweep_json(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        run_cli(
            "sweep", "--models", "tiny_cnn", "--strategies", "generic,dp",
            "--input-sizes", "8", "--num-classes", "10", "--preset", "small",
            "--no-cache", "--quiet", "--json", str(out_json),
        )
        capsys.readouterr()
        out_csv = tmp_path / "report.csv"
        assert run_cli(
            "report", str(out_json), "--best", "cycles", "--top", "1",
            "--csv", str(out_csv),
        ) == 0
        out = capsys.readouterr().out
        assert "top 1 by cycles" in out
        assert out_csv.exists()

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert run_cli("report", str(tmp_path / "absent.json")) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_sweep_reports_cleanly(self, tmp_path, capsys):
        """A well-formed file with zero points must not crash --pareto
        or the ranked summary (regression: edge case was unhandled)."""
        out_json = tmp_path / "empty.json"
        out_json.write_text(json.dumps({"points": [], "spec": {}, "stats": {}}))
        out_csv = tmp_path / "empty.csv"
        assert run_cli(
            "report", str(out_json), "--pareto", "--csv", str(out_csv),
        ) == 0
        out = capsys.readouterr().out
        assert "(no points)" in out
        assert out_csv.read_text().startswith("model,")

    def test_single_row_pareto_is_that_row(self, tmp_path, capsys):
        out_json = tmp_path / "one.json"
        run_cli(
            "sweep", "--models", "tiny_cnn", "--strategies", "dp",
            "--input-sizes", "8", "--num-classes", "10", "--preset", "small",
            "--no-cache", "--quiet", "--json", str(out_json),
        )
        capsys.readouterr()
        assert run_cli("report", str(out_json), "--pareto") == 0
        out = capsys.readouterr().out
        assert "(1/1 points non-dominated)" in out

    def test_tied_points_pareto_keeps_one(self, tmp_path, capsys):
        """Coincident rows collapse to a single front entry."""
        out_json = tmp_path / "tied.json"
        row = {
            "model": "tiny_cnn", "strategy": "dp", "input_size": 8,
            "chips": 1, "batch": 1, "mg_size": 2, "flit_bytes": 8,
            "cycles": 100, "time_ms": 0.1, "energy_mj": 1.0, "tops": 2.0,
            "throughput_inf_s": 10.0, "energy_per_inf_mj": 1.0,
            "cached": False,
        }
        out_json.write_text(json.dumps({"points": [row, dict(row)]}))
        assert run_cli("report", str(out_json), "--pareto") == 0
        out = capsys.readouterr().out
        assert "(1/2 points non-dominated)" in out

    def test_best_choices_are_the_ranking_table(self, capsys):
        from repro.explore import RANKINGS

        with pytest.raises(SystemExit):
            run_cli("report", "r.json", "--best", "watts")
        err = capsys.readouterr().err
        assert "choose from " + ", ".join(map(repr, RANKINGS)) in err

    def test_best_metric_missing_from_old_file_is_graceful(
        self, tmp_path, capsys
    ):
        """Pre-batch result files lack the throughput column; ranking by
        it must exit 2 with a message, not a traceback."""
        out_json = tmp_path / "old.json"
        row = {
            "model": "tiny_cnn", "strategy": "dp", "input_size": 8,
            "mg_size": 2, "flit_bytes": 8, "cycles": 100, "time_ms": 0.1,
            "energy_mj": 1.0, "tops": 2.0, "cached": False,
        }
        out_json.write_text(json.dumps({"points": [row]}))
        assert run_cli(
            "report", str(out_json), "--best", "throughput_inf_s",
        ) == 2
        assert "predates" in capsys.readouterr().err
        # the table itself still renders (missing columns show as '-')
        assert run_cli("report", str(out_json)) == 0
        assert " -" in capsys.readouterr().out


class TestOutputBytesArePinned:
    def test_sweep_and_old_format_report_match_the_golden_file(
        self, tmp_path
    ):
        """Table, CSV and report bytes equal ``tests/data/
        sweep_output_golden.json`` (``tests/golden_sweep_output.py``
        regenerates it)."""
        import golden_sweep_output

        golden = json.loads(golden_sweep_output.GOLDEN_PATH.read_text())
        current = golden_sweep_output.current_outputs(tmp_path)
        assert sorted(current) == sorted(golden)
        for name in golden:
            assert current[name] == golden[name], name


def _document(text: str):
    """A parsed JSON document whose ``==`` also sees key order, tells an
    empty object from an empty list, and compares NaN by name."""
    return json.loads(
        text, object_pairs_hook=lambda pairs: ("object", pairs),
        parse_constant=str,
    )


_NAN, _INF = float("nan"), float("inf")

#: Edge cases of the ``--json`` writer: empty containers at depths 0,
#: 1 and 2, tuples, non-str keys at depths 0 and 1, NaN / +-inf, and
#: non-ASCII text.
_WRITER_PAYLOADS = {
    "empty object": {},
    "empty list": [],
    "empty tuple": (),
    "empty at depth 1": {"a": {}, "b": [], "c": ()},
    "empty at depth 2": {"a": {"b": {}, "c": []}, "d": [[], {}, ()]},
    "tuples": ((1, (2, 3)), [(4,), {"t": (5, (6,))}]),
    "non-str keys": {
        1: "int", 2.5: {3: 4, -0.5: 1, True: 2, None: 3, _NAN: 4},
        False: [1], None: {False: {7: 8}}, _INF: 5, -_INF: 6,
    },
    "non-finite floats": {"v": [_NAN, _INF, -_INF], "w": {"x": _NAN},
                          "y": -_INF},
    "non-ascii": {"modèle": "résumé", "列": ["日本", {"ключ": "значение"}]},
    "scalars at the top": "text",
    "number at the top": 2.5,
    "null at the top": None,
    "deep": {"a": [{"b": [{"c": [1, {"d": []}]}]}]},
}


class TestJsonWriter:
    """``cli._write_json`` writes what ``json.dumps`` parses to, key
    order, key coercion and non-finite floats included; only the
    whitespace is its own."""

    @pytest.mark.parametrize("payload", _WRITER_PAYLOADS.values(),
                             ids=list(_WRITER_PAYLOADS))
    def test_file_parses_as_json_dumps(self, payload, tmp_path, capsys):
        from repro.cli import _write_json

        path = tmp_path / "out.json"
        _write_json(payload, str(path))
        written = path.read_text()
        assert written.endswith("\n")
        assert _document(written) == _document(json.dumps(payload))
        _write_json(payload)  # stdout: the same text
        assert capsys.readouterr().out == written

    def test_a_key_json_cannot_encode_is_its_error(self, tmp_path):
        from repro.cli import _write_json

        with pytest.raises(TypeError, match="keys must be"):
            json.dumps({(1, 2): 0})
        with pytest.raises(TypeError, match="keys must be"):
            _write_json({(1, 2): 0}, str(tmp_path / "out.json"))

    @staticmethod
    def _spy(monkeypatch):
        """Record every payload the CLI hands its writer."""
        import repro.cli as cli

        payloads, write = [], cli._write_json

        def spy(payload, path=None):
            payloads.append(payload)
            write(payload, path)

        monkeypatch.setattr(cli, "_write_json", spy)
        return payloads

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("artifact") / "tiny_resnet.artifact"
        assert run_cli(
            "compile", "tiny_resnet", "--preset", "small", "--input-size",
            "8", "--chips", "2", "-o", str(path),
        ) == 0
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("run", "{artifact}", "--preset", "small"),
        ("serve", "tiny_resnet", "--preset", "small", "--chips", "2",
         "--input-size", "8", "--num-classes", "10", "--tier", "fast",
         "--replicas", "3", "--policy", "jsq", "--poisson", "1600000",
         "--batch", "60", "--arrival-seed", "0"),
        ("sweep", "--models", "tiny_cnn", "--strategies", "generic,dp",
         "--input-sizes", "8", "--num-classes", "10", "--preset", "small",
         "--batch", "1,4", "--arrival-rates", "none,250000", "--no-cache",
         "--quiet"),
        ("compare", "--models", "tiny_cnn,tiny_mlp", "--strategies",
         "generic,dp", "--input-size", "8", "--num-classes", "10",
         "--preset", "small", "--no-cache"),
    ], ids=lambda argv: argv[0])
    def test_every_command_file_parses_as_json_dumps(
        self, argv, artifact, tmp_path, monkeypatch, capsys
    ):
        payloads = self._spy(monkeypatch)
        path = tmp_path / "out.json"
        argv = [arg.format(artifact=artifact) for arg in argv]
        assert run_cli(*argv, "--json", str(path)) == 0
        [payload] = payloads
        assert _document(path.read_text()) == _document(json.dumps(payload))

    def test_inspect_prints_through_the_writer(
        self, artifact, monkeypatch, capsys
    ):
        payloads = self._spy(monkeypatch)
        capsys.readouterr()
        assert run_cli("inspect", artifact, "--json") == 0
        [payload] = payloads
        printed = capsys.readouterr().out
        assert _document(printed) == _document(json.dumps(payload))
        assert json.loads(printed)["path"] == artifact

    def test_a_sweep_point_is_one_line(self, tmp_path, capsys):
        """A sweep file of N points is N lines plus a fixed frame, one
        point per line in order."""
        frames = set()
        for batches in ("1", "1,2,4,8"):
            path = tmp_path / f"sweep_{batches}.json"
            assert run_cli(
                "sweep", "--models", "tiny_cnn", "--strategies",
                "generic,dp", "--input-sizes", "8", "--num-classes", "10",
                "--preset", "small", "--batch", batches, "--no-cache",
                "--quiet", "--json", str(path),
            ) == 0
            lines = path.read_text().splitlines()
            points = json.loads(path.read_text())["points"]
            assert len(points) == 2 * len(batches.split(","))
            start = lines.index('  "points": [') + 1
            assert [
                json.loads(line.rstrip(","))
                for line in lines[start:start + len(points)]
            ] == points
            assert lines[start + len(points)].strip() == "]"
            frames.add(len(lines) - len(points))
        assert len(frames) == 1, frames


class TestTiersOption:
    def test_fast_and_cyclesim_rows_pair_up(self, tmp_path, capsys):
        """``--tiers fast,cyclesim`` prices every point on both tiers:
        the rows pair up at equal coordinates, the cycle tier's measured
        run within the fast model's 0.2-5x bound (``test_fastmodel``)."""
        out_json = tmp_path / "sweep.json"
        assert run_cli(
            "sweep", "--models", "tiny_resnet",
            "--strategies", "generic,dp",
            "--input-sizes", "8", "--num-classes", "10",
            "--preset", "small", "--no-cache", "--quiet",
            "--tiers", "fast,cyclesim", "--json", str(out_json),
        ) == 0
        assert "cyclesim" in capsys.readouterr().out  # the tier band
        rows = json.loads(out_json.read_text())["points"]
        assert len(rows) == 4
        metrics = ("cycles", "time_ms", "energy_mj", "tops",
                   "throughput_inf_s", "energy_per_inf_mj", "goodput_inf_s",
                   "energy_groups_mj", "report")
        for fast, cycle in zip(rows[::2], rows[1::2]):
            assert (fast["tier"], cycle["tier"]) == ("fast", "cyclesim")
            for key in set(fast) - set(metrics) - {"tier"}:
                assert fast[key] == cycle[key], key
            assert cycle["cycles"] > 0
            assert 0.2 < fast["cycles"] / cycle["cycles"] < 5.0


@pytest.fixture
def fault_plan_file(tmp_path):
    from repro.faults import (
        FaultPlan, ReplicaCrash, RetryPolicy, save_fault_plan,
    )

    path = tmp_path / "plan.json"
    save_fault_plan(
        FaultPlan(
            events=(ReplicaCrash(replica=1, at_cycle=200),),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=10),
        ),
        path,
    )
    return str(path)


class TestServeFaults:
    def test_serve_with_fault_plan(self, fault_plan_file, tmp_path, capsys):
        out_json = tmp_path / "serve.json"
        assert run_cli(
            "serve", "tiny_mlp", "--preset", "small", "--strategy",
            "generic", "--input-size", "8", "--num-classes", "10",
            "--tier", "fast", "--batch", "6", "--replicas", "3",
            "--faults", fault_plan_file, "--json", str(out_json),
        ) == 0
        out = capsys.readouterr().out
        assert "faults: crash(r1@200)" in out
        assert "conservation" in out
        assert "goodput" in out
        payload = json.loads(out_json.read_text())
        assert payload["faults"] is not None
        report = payload["report"]
        assert report["submitted"] == \
            report["completed"] + report["dropped"]
        assert report["goodput_inf_per_s"] > 0

    def test_faults_imply_fleet_even_with_one_replica(self, tmp_path,
                                                      capsys):
        from repro.faults import FaultPlan, ReplicaSlowdown, save_fault_plan

        plan = tmp_path / "slow.json"
        save_fault_plan(
            FaultPlan(events=(ReplicaSlowdown(replica=0, factor=2.0),)),
            plan,
        )
        assert run_cli(
            "serve", "tiny_mlp", "--preset", "small", "--strategy",
            "generic", "--input-size", "8", "--num-classes", "10",
            "--tier", "fast", "--batch", "4", "--faults", str(plan),
        ) == 0
        assert "conservation" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["serve", "watch"])
    @pytest.mark.parametrize("replicas", ["1", "3"])
    def test_plan_naming_an_absent_replica_exits_2(
        self, verb, replicas, tmp_path, capsys
    ):
        """A crash on a replica the fleet does not have would inject
        nothing and report a clean run; it is a one-line error."""
        from repro.faults import FaultPlan, ReplicaCrash, save_fault_plan

        plan = tmp_path / "absent.json"
        save_fault_plan(
            FaultPlan(events=(ReplicaCrash(replica=7, at_cycle=200),)), plan
        )
        assert run_cli(
            verb, "tiny_mlp", "--preset", "small", "--strategy",
            "generic", "--input-size", "8", "--num-classes", "10",
            "--tier", "fast", "--batch", "4", "--replicas", replicas,
            "--faults", str(plan),
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: fault event crash(r7@200) names replica 7, but the "
            f"fleet has {replicas} replica(s), 0..{int(replicas) - 1}\n"
        )

    def test_sweep_fault_plans_axis(self, fault_plan_file, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--models", "tiny_mlp", "--strategies", "generic",
            "--input-sizes", "8", "--num-classes", "10", "--preset",
            "small", "--batch", "6", "--replicas", "3", "--fault-plans",
            f"none,{fault_plan_file}", "--no-cache", "--quiet",
            "--csv", str(out_csv),
        ) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "good/s" in out  # fault columns appear in the table
        header, first, second = out_csv.read_text().splitlines()[:3]
        assert "fault_plan" in header and "goodput_inf_s" in header
        assert "crash" in second and "crash" not in first


class TestErrorHygiene:
    """Every CLI verb turns typed errors into one-line nonzero exits."""

    @pytest.mark.parametrize("argv", [
        ("run", "no_such_model", "--preset", "small"),
        ("run", "missing.artifact", "--preset", "small"),
        ("compile", "no_such_model", "--preset", "small", "-o", "x.artifact"),
        ("inspect", "missing.artifact"),
        ("serve", "no_such_model", "--preset", "small"),
        ("serve", "missing.artifact", "--preset", "small"),
        ("serve", "tiny_mlp", "--preset", "small", "--input-size", "8",
         "--num-classes", "10", "--tier", "fast",
         "--faults", "missing_plan.json"),
        ("sweep", "--models", "no_such_model", "--preset", "small",
         "--no-cache", "--quiet"),
        ("sweep", "--models", "tiny_mlp", "--preset", "small",
         "--fault-plans", "missing_plan.json", "--no-cache", "--quiet"),
        # non-finite arrival rates: NaN used to traceback out of
        # int(round(nan)), inf was accepted and reported as "inf inf/s"
        ("serve", "tiny_cnn", "--preset", "small", "--poisson", "nan",
         "--batch", "4"),
        ("serve", "tiny_cnn", "--preset", "small", "--tier", "fast",
         "--rate", "nan", "--batch", "4"),
        ("serve", "tiny_cnn", "--preset", "small", "--tier", "fast",
         "--poisson", "inf", "--batch", "4"),
        ("serve", "tiny_cnn", "--preset", "small", "--tier", "fast",
         "--rate", "inf", "--batch", "4"),
        ("sweep", "--models", "tiny_cnn", "--arrival-rates", "nan",
         "--mg-sizes", "8", "--flit-sizes", "8", "--no-cache"),
        ("sweep", "--models", "tiny_cnn", "--arrival-rates", "inf",
         "--mg-sizes", "8", "--flit-sizes", "8", "--no-cache"),
        # negative seeds used to traceback out of numpy's default_rng
        ("run", "tiny_mlp", "--preset", "small", "--seed", "-1"),
        ("serve", "tiny_mlp", "--preset", "small", "--tier", "fast",
         "--arrival-seed", "-1", "--poisson", "100"),
        # counts below one used to be served as one input / one replica
        ("run", "tiny_mlp", "--preset", "small", "--batch", "0"),
        ("run", "tiny_mlp", "--preset", "small", "--batch", "-2"),
        ("serve", "tiny_mlp", "--preset", "small", "--tier", "fast",
         "--replicas", "0"),
        ("watch", "tiny_mlp", "--preset", "small", "--tier", "fast",
         "--replicas", "0", "--snapshot", "-"),
        # a negative count used to be watched as an empty session, exit 0
        ("watch", "tiny_mlp", "--preset", "small", "--tier", "fast",
         "--batch", "-1", "--snapshot", "-"),
        ("watch", "tiny_mlp", "--preset", "small", "--tier", "fast",
         "--replicas", "2", "--batch", "-1", "--snapshot", "-"),
        # a negative worker count used to run serially and exit 0
        ("sweep", "--models", "tiny_mlp", "--preset", "small",
         "--input-sizes", "8", "--num-classes", "10", "--no-cache",
         "--quiet", "--workers", "-1"),
        ("compare", "--models", "tiny_mlp", "--preset", "small",
         "--input-size", "8", "--num-classes", "10", "--no-cache",
         "--workers", "-1"),
        # a tier is checked by its axis rule, not by argparse
        ("sweep", "--models", "tiny_mlp", "--preset", "small",
         "--no-cache", "--quiet", "--tiers", "slow"),
        # a cyclesim point that does not fit names itself
        ("sweep", "--models", "resnet18", "--input-sizes", "112",
         "--strategies", "generic", "--tiers", "cyclesim", "--no-cache",
         "--quiet"),
    ])
    def test_bad_input_exits_nonzero_with_message(self, argv, capsys):
        code = run_cli(*argv)
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_malformed_fault_plan_is_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"events": [{"type": "meteor_strike"}]}')
        assert run_cli(
            "serve", "tiny_mlp", "--preset", "small", "--input-size", "8",
            "--num-classes", "10", "--tier", "fast", "--faults", str(bad),
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "meteor_strike" in err

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_report_top_below_one(self, top, tmp_path, capsys):
        """``--top -2`` used to print "top -2 by tops:" over a table
        missing its last two rows, and ``--top 0`` an empty table."""
        results = tmp_path / "r.json"
        assert run_cli(
            "sweep", "--models", "tiny_mlp", "--strategies", "generic,dp",
            "--input-sizes", "8", "--num-classes", "10", "--preset",
            "small", "--no-cache", "--quiet", "--json", str(results),
        ) == 0
        capsys.readouterr()
        assert run_cli("report", str(results), "--top", top) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --top must be >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text", [
        # well-formed JSON of the wrong shape used to traceback:
        # TypeError on a non-object payload, AttributeError on rows or
        # sections that are not objects
        "[]",
        '"points"',
        '{"points": "x"}',
        '{"points": ["x"]}',
        '{"points": [], "spec": "x"}',
        '{"points": [], "stats": [1]}',
        # a row without a required column, or with a number as a
        # string, used to traceback out of the table (exit 1)
        json.dumps({"points": [{
            "model": "tiny_cnn", "strategy": "dp", "input_size": 8,
            "mg_size": 2, "flit_bytes": 8, "time_ms": 0.1,
            "energy_mj": 1.0, "tops": 2.0,
        }]}),
        json.dumps({"points": [{
            "model": "tiny_cnn", "strategy": "dp", "input_size": 8,
            "mg_size": 2, "flit_bytes": 8, "cycles": "12", "time_ms": 0.1,
            "energy_mj": 1.0, "tops": 2.0,
        }]}),
    ])
    def test_misshapen_results_file_is_one_line_without_numpy(
        self, text, tmp_path
    ):
        """``report`` rejects the file where it reads it -- and is the
        verb that must do so without importing numpy."""
        bad = tmp_path / "r.json"
        bad.write_text(text)
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "code = main(sys.argv[1:]); "
             "assert 'numpy' not in sys.modules, 'report imported numpy'; "
             "sys.exit(code)",
             "report", str(bad)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot read sweep results")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_malformed_trace_is_one_line(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("0 100 not_a_cycle")
        assert run_cli(
            "serve", "tiny_mlp", "--preset", "small", "--input-size", "8",
            "--num-classes", "10", "--tier", "fast", "--trace", str(trace),
        ) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("size", [2 ** 31, 10 ** 15])
    def test_scratchpad_overlapping_the_global_window(
        self, size, tmp_path, capsys
    ):
        """Local addresses are ``[0, size)`` and global ones start at
        ``GLOBAL_BASE``: 2 GiB used to die in ``MemorySystem`` with a
        NumPy allocation traceback (64 x 2 GiB of zeros), 10**15 later
        as an out-of-range immediate."""
        data = arch_to_dict(small_test_arch())
        data["chip"]["core"]["local_memory"]["size_bytes"] = size
        big = tmp_path / "big.json"
        big.write_text(json.dumps(data))
        start = time.perf_counter()
        assert run_cli("run", "tiny_mlp", "--arch", str(big)) == 2
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert str(size) in err and str(GLOBAL_BASE) in err

    @pytest.mark.parametrize("block, key, raw", [
        # a string int used to end in a TypeError traceback, exit 1
        ("noc", "flit_bytes", '"8"'),
        ("energy", "cim_mac_pj", '"x"'),
        # 8.5 and true used to be accepted as ints
        ("noc", "flit_bytes", "8.5"),
        ("noc", "flit_bytes", "true"),
        # NaN passed `nan < 0` and was written out as `"total_energy_mj":
        # NaN`, which is not JSON
        ("energy", "cim_mac_pj", "NaN"),
        ("energy", "static_mw", "Infinity"),
        ("noc", None, "8"),
    ])
    def test_mistyped_arch_leaf_is_one_line(
        self, block, key, raw, tmp_path, capsys
    ):
        data = arch_to_dict(small_test_arch())
        parent = data["chip"] if block == "noc" else data
        path = f"chip.{block}" if block == "noc" else block
        if key is None:
            parent[block] = "@"
        else:
            parent[block][key] = "@"
            path = f"{path}.{key}"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace('"@"', raw))
        out = tmp_path / "out.json"
        assert run_cli(
            "serve", "tiny_cnn", "--tier", "fast", "--arch", str(bad),
            "--json", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: expected ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()
