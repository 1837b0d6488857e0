#!/usr/bin/env python3
"""The repo's benchmark: six CLI workloads, end to end and per layer.

    python3 benchmarks/perf/run.py --workload NAME --seed S --seconds T --trace 0|1

``--trace 0`` (default) is the end-to-end pass: a closed loop with one
client that runs the workload's ``python -m repro ...`` commands one at
a time, each a fresh subprocess reaped with ``os.wait4`` (wall, CPU,
``ru_maxrss``), for ``T`` seconds after three timed set-ups.  The Poisson
streams inside the serving workloads are simulated-time open loops at
0.8x saturation: model input, not host load.  Host-time metrics are
normalised to a reference host speed by a calibration kernel sampled
between phases (hostcalib.py); raw seconds are printed beside them.

``--trace 1`` is the per-layer pass: the same set-up and a few timed
iterations, then the workload replayed in-process through the layers'
public functions under a span recorder (layers.py).  Raw seconds.

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  Without ``--workload`` every workload runs in
turn.  ``--smoke`` runs both passes of every workload at toy scale,
``--check-determinism`` proves the simulated statistics depend on the
seed and nothing else, ``--out FILE`` keeps results and spans as JSON
for compare.py.  See README.md beside this file.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]  # repro itself is imported lazily

from hostcalib import REFERENCE_S, samples  # noqa: E402
from metrics import PER_LAYER, UNITS, summarize  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

#: Set-ups timed per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Timed iterations a run makes at least, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: Children get a fixed hash seed: one source of run-to-run variance
#: less (--check-determinism flips it to show nothing depends on it).
HASH_SEED = "0"


# ---------------------------------------------------------------------------
# Host: fingerprint and the noise guard
# ---------------------------------------------------------------------------

def host_fingerprint() -> dict:
    import numpy as np

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


class HostSpeed:
    """Calibration-kernel samples taken between timed phases.

    ``normalise`` is called once after each phase, in order: it samples
    the kernel again and scales the phase's raw seconds by reference
    kernel time / kernel time around the phase.  ``finish`` is the noise
    guard: it warns on stderr when the box, not the code, is likely to
    have moved what normalisation cannot repair.
    """

    def __init__(self):
        self.kernel_s = [samples()]
        self.loadavg1 = [os.getloadavg()[0]]

    def normalise(self, raw_s: float) -> float:
        self.kernel_s.append(samples())
        around = statistics.median(self.kernel_s[-2] + self.kernel_s[-1])
        return raw_s * REFERENCE_S / around

    def finish(self) -> dict:
        if len(self.kernel_s) == 1:
            self.kernel_s.append(samples())
        self.loadavg1.append(os.getloadavg()[0])
        first = statistics.median(self.kernel_s[0])
        last = statistics.median(self.kernel_s[-1])
        nproc = os.cpu_count() or 1
        if max(self.loadavg1) > nproc:
            print(f"warning: load average {self.loadavg1[0]:.2f} -> "
                  f"{self.loadavg1[1]:.2f} exceeds nproc={nproc}; host-time "
                  f"metrics of this run are suspect", file=sys.stderr)
        if abs(last - first) / first > 0.10:
            print(f"warning: host calibration drifted "
                  f"{abs(last - first) / first:.0%} within the run "
                  f"({first:.4f}s -> {last:.4f}s)", file=sys.stderr)
        return {"calib_s": [first, last], "loadavg1": self.loadavg1,
                "reference_s": REFERENCE_S}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def child_env(hash_seed: str = HASH_SEED) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    return env


class ChildResult(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_kib: int
    ok: bool


def run_child(argv: Sequence[str], env: Dict[str, str], cwd: Path,
              timeout_s: float) -> ChildResult:
    """Run one command to completion; wall, CPU and peak RSS from wait4.

    A child that outlives ``timeout_s`` is killed and counts as failed.
    Whatever happens here, the child is reaped before this returns.
    """
    with open(cwd / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        reaped = False

        def kill():
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:  # interrupted: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
            proc.returncode = 0  # reaped here; keep Popen from re-waiting
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = (cwd / "stderr.log").read_text(errors="replace")[-400:]
        print(f"warning: {' '.join(argv[:6])}... exited {code}: {tail}",
              file=sys.stderr)
    return ChildResult(wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss, code == 0)


class Iteration:
    """One pass over a list of commands, run one at a time."""

    def __init__(self, commands: List[Command], tmp: Path,
                 env: Dict[str, str]):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_kib = 0
        self.json_bytes = 0
        self.docs: List[Optional[dict]] = []
        self.commands = len(commands)
        for command in commands:
            command.out.unlink(missing_ok=True)
            child = run_child(
                [sys.executable, "-m", "repro", *command.argv], env, tmp,
                timeout_s=10 * command.expect_s,
            )
            self.wall_s += child.wall_s
            self.cpu_s += child.cpu_s
            self.rss_kib = max(self.rss_kib, child.rss_kib)
            self.docs.append(_load_json(command) if child.ok else None)
            if command.out.exists():
                self.json_bytes += command.out.stat().st_size

    @property
    def ok(self) -> bool:
        return all(doc is not None for doc in self.docs)


def _load_json(command: Command) -> Optional[dict]:
    try:
        return json.loads(command.out.read_text())
    except (OSError, ValueError):
        return None


def set_up(workload: Workload, tmp: Path, seed: int,
           env: Dict[str, str]) -> float:
    """Temp dir, fixture files and the workload's untimed warm-up
    commands (``repro --help`` fills .pyc and page cache; sweep_warm's
    is the cold populate).  Returns its wall seconds."""
    start = time.perf_counter()
    tmp.mkdir()
    workload.fixtures(tmp, seed)
    workload.setup_done(Iteration(workload.warm_up(tmp, seed), tmp, env).docs)
    return time.perf_counter() - start


def timed_iterations(workload: Workload, tmp: Path, seed: int,
                     env: Dict[str, str], seconds: float, at_least: int,
                     host: HostSpeed) -> List[Iteration]:
    """Iterate until another iteration would end more than half past the
    deadline (and ``at_least`` are done)."""
    iterations: List[Iteration] = []
    start = time.perf_counter()
    while True:
        iteration = Iteration(
            workload.commands(tmp, seed, len(iterations)), tmp, env)
        iteration.norm_wall_s = host.normalise(iteration.wall_s)
        iterations.append(iteration)
        elapsed = time.perf_counter() - start
        if (len(iterations) >= at_least
                and elapsed + 0.5 * elapsed / len(iterations) > seconds):
            return iterations


# ---------------------------------------------------------------------------
# The two passes
# ---------------------------------------------------------------------------

def _metric(name: str, samples: List[float], value: Optional[float] = None):
    entry = summarize(samples)
    entry["value"] = entry["median"] if value is None else value
    entry["unit"] = UNITS[name]
    return entry


def _sim_stats(workload: Workload, iteration: Iteration) -> Dict[str, float]:
    """Simulated statistics of one iteration (seed ``S`` exactly)."""
    cycle_ns = 1.0  # both presets clock at 1 GHz; asserted in the trace pass
    return workload.sim(iteration.docs, cycle_ns) if iteration.ok else {}


def _verdicts(workload: Workload, iterations: List[Iteration]) -> List[bool]:
    return [v for it in iterations for v in workload.iteration_checks(it.docs)]


def _result(workload, seed, mode, verdicts, metrics, **extra) -> dict:
    return {"workload": workload.name, "seed": seed, "mode": mode,
            "attempted": len(verdicts), "failed": verdicts.count(False),
            "metrics": metrics, **extra}


#: What an end-to-end pass leaves for a trace pass to reuse: the last
#: set-up's temp dir and the timed iterations run in it.
Measured = Tuple[Path, List[Iteration]]


def end_to_end(workload: Workload, scratch: Path, seed: int, seconds: float,
               smoke: bool, host: HostSpeed):
    """Timed set-ups, then the closed loop.  Returns (result, Measured)."""
    env = child_env()
    setup_raw, setup_s = [], []
    for k in range(1 if smoke else SETUPS):
        tmp = scratch / f"{workload.name}-e2e-{k}"
        setup_raw.append(set_up(workload, tmp, seed, env))
        setup_s.append(host.normalise(setup_raw[-1]))
    iterations = timed_iterations(
        workload, tmp, seed, env, seconds, 1 if smoke else MIN_ITERATIONS, host)

    verdicts = _verdicts(workload, iterations)
    verdicts += workload.final_checks(iterations[-1].docs, seed)
    walls = [it.norm_wall_s for it in iterations]
    rates = [workload.work(it.docs) / it.norm_wall_s
             for it in iterations if it.ok] or [0.0]
    rss = [it.rss_kib / 1024 for it in iterations]
    cycles = _sim_stats(workload, iterations[0]).get("cycles", 0)
    metrics = {
        "setup_s": _metric("setup_s", setup_s),
        "wall_s": _metric("wall_s", walls),
        "work_per_s": _metric("work_per_s", rates),
        "peak_rss_mib": _metric("peak_rss_mib", rss),
        "sim_cycles": _metric("sim_cycles", [cycles]),
    }
    raw = {"setup_s": summarize(setup_raw),
           "wall_s": summarize([it.wall_s for it in iterations])}
    return (_result(workload, seed, "e2e", verdicts, metrics, raw=raw,
                    work_unit=workload.work_unit),
            (tmp, iterations))


def cli_timings(env: Dict[str, str], cwd: Path, repeats: int) -> Dict[str, float]:
    """Interpreter + import + argparse cost every command pays."""
    def best_wall(*args: str) -> float:
        return min(
            run_child([sys.executable, *args], env, cwd, timeout_s=30).wall_s
            for _ in range(repeats))

    return {
        "cli.import_s": best_wall("-c", "import repro") - best_wall("-c", "pass"),
        "cli.startup_s": best_wall("-m", "repro", "--help"),
    }


def traced(workload: Workload, scratch: Path, seed: int, seconds: float,
           smoke: bool, host: HostSpeed,
           measured: Optional[Measured] = None,
           cli: Optional[Dict[str, float]] = None) -> dict:
    """The per-layer pass; ``measured``/``cli`` reuse what the caller has
    already paid for (the smoke run shares them across passes)."""
    env = child_env()
    if measured is None:
        tmp = scratch / f"{workload.name}-trace"
        set_up(workload, tmp, seed, env)
        measured = (tmp, timed_iterations(
            workload, tmp, seed, env, seconds / 3, 1 if smoke else 2, host))
    tmp, iterations = measured
    # One cold in-process replay is set against the least disturbed
    # subprocess iteration, in raw seconds on both sides.
    wall_s = min(it.wall_s for it in iterations)
    if cli is None:
        cli = cli_timings(env, tmp, 1 if smoke else 3)

    from layers import _preset_arch, trace_workload

    if _preset_arch(workload.preset).chip.cycle_ns != 1.0:
        raise RuntimeError("sim_* conversions assume a 1 GHz preset")
    values, recorder = trace_workload(workload, tmp, seed)

    sim = _sim_stats(workload, iterations[0])
    values.update(cli)
    values.update({
        "cli.child_cpu_s": statistics.median(it.cpu_s for it in iterations),
        "cli.json_bytes": iterations[0].json_bytes,
        "trace.unattributed_share": 1 - (
            recorder.on_path_total()
            + iterations[0].commands * cli["cli.startup_s"]
        ) / wall_s,
        "host.calib_s": statistics.median(host.kernel_s[-1]),
        "host.loadavg1": os.getloadavg()[0],
        "sim_energy_mj": sim.get("energy_mj", 0),
        "sim_p99_latency_ms": sim.get("p99_ms", 0),
        "sim_goodput_inf_s": sim.get("goodput_inf_s", 0),
    })
    values.setdefault("fast_cycle_abs_log_err", 0)
    metrics = {name: _metric(name, [values[name]]) for name, _, _ in PER_LAYER}
    return _result(workload, seed, "trace", _verdicts(workload, iterations),
                   metrics, wall_s=wall_s, spans=recorder.spans)


# ---------------------------------------------------------------------------
# Determinism self-check
# ---------------------------------------------------------------------------

def check_determinism(names: Sequence[str], scratch: Path, seed: int,
                      smoke: bool) -> int:
    """Same seed twice and once with the hash seed flipped: simulated
    statistics bit-identical.  Seed + 1: serve_fleet's p99 moves, so the
    seed does reach the program's inputs."""
    failures = 0
    for name in names:
        workload = WORKLOADS[name](smoke=smoke)
        stats = []
        for k, (s, hash_seed) in enumerate(
                ((seed, "0"), (seed, "0"), (seed, "1"), (seed + 1, "0"))):
            env = child_env(hash_seed)
            tmp = scratch / f"{name}-det-{k}"
            set_up(workload, tmp, s, env)
            stats.append(_sim_stats(workload, Iteration(
                workload.commands(tmp, s, 0), tmp, env)))
        same = bool(stats[0]) and stats[0] == stats[1] == stats[2]
        moved = name != "serve_fleet" or stats[3]["p99_ms"] != stats[0]["p99_ms"]
        print(f"{name:<14s} same seed x2 + flipped PYTHONHASHSEED: "
              f"{'bit-identical' if same else 'DIFFER'} {stats[0]}"
              + ("" if name != "serve_fleet" else
                 f"; seed+1 p99 {'moves' if moved else 'DOES NOT MOVE'}"))
        failures += (not same) + (not moved)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def print_result(result: dict) -> None:
    print(f"\n== {result['workload']} [{result['mode']}] seed {result['seed']}"
          f": {result['attempted'] - result['failed']}/{result['attempted']}"
          f" checks passed, failed_share "
          f"{result['failed'] / result['attempted']:.3f}")
    for name, entry in result["metrics"].items():
        spread = ("" if entry["n"] == 1 else
                  f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
                  f"  min {entry['min']:.6g}")
        print(f"  {name:<40s}{entry['value']:>16.6g} {entry['unit']:<10s}"
              f"n={entry['n']}{spread}")
    for name, entry in result.get("raw", {}).items():
        print(f"  raw {name:<36s}{entry['median']:>16.6g} s         "
              f"n={entry['n']}  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
              f"  min {entry['min']:.6g}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    })


def run_isolated(name: str, args, out: Path) -> List[dict]:
    """One (workload, pass) in a process of its own, as the driver runs
    it: nothing an earlier workload imported or cached carries over, and
    the harness stays small beside the children it measures."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]
    lines = subprocess.run(argv, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    print("\n".join(lines[:-1]))  # the table; result lines print at the end
    return json.loads(out.read_text())["results"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all six in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement window per run (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 = per-layer pass instead of the end-to-end one")
    parser.add_argument("--smoke", action="store_true",
                        help="toy scale, one iteration; without --workload, "
                             "both passes of every workload")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--out", metavar="FILE",
                        help="write results and spans as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found: the benchmark measures the "
              f"repository it sits in", file=sys.stderr)
        return 2

    parent = ROOT / ".perf_tmp"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as scratch_name:
            scratch = Path(scratch_name)
            if args.check_determinism:
                names = [args.workload] if args.workload else list(WORKLOADS)
                return check_determinism(names, scratch, args.seed, args.smoke)
            host = HostSpeed()
            if args.smoke and not args.workload:
                # Both passes of every workload in this one process, the
                # trace pass reusing the end-to-end pass's iteration.
                cli = None
                results = []
                for name, cls in WORKLOADS.items():
                    workload = cls(smoke=True)
                    result, measured = end_to_end(
                        workload, scratch, args.seed, 0.0, True, host)
                    cli = cli or cli_timings(child_env(), measured[0], 1)
                    results += [result, traced(
                        workload, scratch, args.seed, 0.0, True, host,
                        measured, cli)]
            elif args.workload:
                workload = WORKLOADS[args.workload](smoke=args.smoke)
                seconds = 0.0 if args.smoke else args.seconds
                if args.trace:
                    results = [traced(workload, scratch, args.seed, seconds,
                                      args.smoke, host)]
                else:
                    results = [end_to_end(workload, scratch, args.seed,
                                          seconds, args.smoke, host)[0]]
            else:
                results = [
                    result for name in WORKLOADS
                    for result in run_isolated(
                        name, args, scratch / f"{name}.json")
                ]
            noise = host.finish()
            for result in results:
                result.setdefault("host", noise)
                if args.workload or args.smoke:
                    print_result(result)
    finally:
        try:
            parent.rmdir()  # unless another run is using it
        except OSError:
            pass

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": host_fingerprint(), "results": results}, indent=1) + "\n")
    print()
    for result in results:
        print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
