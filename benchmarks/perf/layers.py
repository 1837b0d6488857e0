"""The ``--trace 1`` pass: replay a workload's work in-process through
the layers' public functions, one span per call.

No file under ``src/`` is instrumented; every span wraps one public
call made from here.  Two kinds of span:

- **on-path** spans replay, in a fresh process and in the CLI's order,
  the calls the workload's commands make.  Their durations plus
  ``cli.startup_s`` are what ``trace.unattributed_share`` sets against
  the measured ``wall_s``.
- **probe** spans run afterwards and decompose or complement an on-path
  span (one DP plan taken layer by layer, the interpreter against the
  engine, a warm second submit).  They see process caches the on-path
  spans left warm, so they are never summed into the attribution.

A layer a workload does not exercise reports 0 for its metrics.
"""

import asyncio
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple

from metrics import LAYERS


class Recorder:
    """In-memory span log: name, start, end, parent, workload id."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, on_path: bool = False):
        record = {
            "name": name,
            "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "on_path": on_path,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def on_path_total(self) -> float:
        """Summed duration of the top-level on-path spans (nested spans
        partition their parent, so this is the sum of self times)."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["on_path"] and s["parent"] is None)


class NullRecorder:
    """Same interface, records nothing: the overhead baseline."""

    @contextmanager
    def span(self, name: str, on_path: bool = False):
        yield None


def span_cost_s(samples: int = 5000) -> float:
    """Seconds one recorded span costs over a null one."""
    def loop(recorder) -> float:
        start = time.perf_counter()
        for _ in range(samples):
            with recorder.span("calibration"):
                pass
        return time.perf_counter() - start

    loop(Recorder("warmup"))
    return max(0.0, loop(Recorder("calibration")) - loop(NullRecorder())) / samples


def _preset_arch(preset: str):
    from repro.config import default_arch, small_test_arch

    return small_test_arch() if preset == "small" else default_arch()


def _report_text(payload: dict) -> str:
    """What the CLI's ``--json`` writer produces."""
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Compiler layers, one graph at a time
# ---------------------------------------------------------------------------

def _plan_layers(rec, m, graph, arch, strategy, on_path, closure_limit=None):
    """CG-level compilation of one graph, a span per layer."""
    from repro.compiler import CostModel, condense
    from repro.compiler.closures import DEFAULT_CLOSURE_LIMIT, closure_masks
    from repro.compiler.partition import dp_partition, greedy_partition
    from repro.compiler.plan import ExecutionPlan, assign_cores_and_rows
    from repro.compiler.strategies import build_geometries

    with rec.span("compiler.frontend.condense", on_path):
        cgraph = condense(graph)
    m["compiler.frontend.nodes"] += len(cgraph)
    with rec.span("compiler.geometry.build", on_path):
        geometries = build_geometries(cgraph, arch)
    cost = CostModel(arch)
    limit = DEFAULT_CLOSURE_LIMIT if closure_limit is None else closure_limit
    if strategy == "dp":
        with rec.span("compiler.partition.dp", on_path):
            partition = dp_partition(
                cgraph, geometries, arch, cost, closure_limit=limit)
        # dp_partition enumerates closures first; measured again on its
        # own so dp_self_s can subtract it.
        with rec.span("compiler.closures.enumerate"):
            masks = closure_masks(cgraph.dep_list(), limit)
        m["compiler.closures.masks"] += len(masks)
        with rec.span("compiler.partition.greedy"):
            greedy_partition(cgraph, geometries, arch, cost, duplicate=False)
    else:
        with rec.span("compiler.partition.greedy", on_path):
            partition = greedy_partition(
                cgraph, geometries, arch, cost,
                duplicate=strategy == "duplication")
    m["compiler.partition.stages"] += len(partition.stages)
    with rec.span("compiler.plan.assign_layout", on_path):
        stages = assign_cores_and_rows(cgraph, geometries, partition, arch)
        plan = ExecutionPlan(
            graph=graph, cgraph=cgraph, arch=arch, strategy=strategy,
            geometries=geometries, stages=stages, partition=partition,
        )
    return plan


def _codegen_layers(rec, m, plan, on_path):
    """OP-level code generation of one plan -> CompiledModel."""
    from repro.compiler import CompiledModel
    from repro.compiler.codegen.lowering import (
        ProgramGenerator, build_global_image)
    from repro.compiler.plan import layout_global_memory
    from repro.isa import default_registry

    with rec.span("compiler.plan.assign_layout", on_path):
        layout_global_memory(plan)
    with rec.span("compiler.codegen.lower", on_path):
        programs = ProgramGenerator(plan).generate()
    with rec.span("compiler.codegen.image", on_path):
        image = build_global_image(plan)
    compiled = CompiledModel(plan=plan, programs=programs, global_image=image,
                             registry=default_registry())
    m["compiler.codegen.static_instructions"] += compiled.total_instructions()
    m["compiler.codegen.image_bytes"] += len(image)
    return compiled


def _build_graph(rec, m, model, kwargs, on_path):
    from repro.graph.models import get_model

    with rec.span("graph.build", on_path):
        graph = get_model(model, **kwargs)
    m["graph.operators"] += len(graph.operators)
    return graph


def _sharded_plan_layers(rec, m, graph, arch, strategy, chips, closure_limit):
    """Probe: the fast tier's plan of one point, every shard."""
    from repro.compiler import shard_graph

    if chips == 1:
        return None, [_plan_layers(rec, m, graph, arch, strategy, False,
                                   closure_limit)]
    sharding = shard_graph(graph, chips)
    return sharding, [
        _plan_layers(rec, m, shard.graph, arch, strategy, False, closure_limit)
        for shard in sharding.shards
    ]


def _fast_analysis(rec, sharding, plans):
    from repro.sim.fastmodel import analyze_plan, analyze_sharded

    with rec.span("sim.fastmodel.analyze"):
        if sharding is None:
            return analyze_plan(plans[0])
        return analyze_sharded(sharding, plans)


def _compiler_seconds(rec, m) -> None:
    m["graph.build_s"] = rec.total("graph.build")
    m["compiler.frontend.condense_s"] = rec.total("compiler.frontend.condense")
    m["compiler.geometry.build_s"] = rec.total("compiler.geometry.build")
    m["compiler.closures.enumerate_s"] = rec.total("compiler.closures.enumerate")
    m["compiler.partition.dp_s"] = rec.total("compiler.partition.dp")
    m["compiler.partition.dp_self_s"] = max(
        0.0, m["compiler.partition.dp_s"] - m["compiler.closures.enumerate_s"])
    m["compiler.partition.greedy_s"] = rec.total("compiler.partition.greedy")
    m["compiler.plan.assign_layout_s"] = rec.total("compiler.plan.assign_layout")
    m["compiler.codegen.lower_s"] = rec.total("compiler.codegen.lower")
    m["compiler.codegen.image_s"] = rec.total("compiler.codegen.image")
    m["sim.fastmodel.analyze_s"] = rec.total("sim.fastmodel.analyze")


# ---------------------------------------------------------------------------
# Cycle simulator
# ---------------------------------------------------------------------------

def _chip_run(compiled, data, engine=None):
    """One single-chip execution, validation off: build the simulator,
    write the input, run, read every graph output."""
    from repro.serve import Deployment

    result = Deployment(compiled, engine=engine).run(data, validate=False)
    return result.report, result.outputs


def _engine_shares(m, stats) -> None:
    def share(part, whole):
        return part / whole if whole else 0.0

    iters = stats["loop_iterations_batched"] + stats["loop_iterations_stepped"]
    m["sim.blockengine.fallback_instructions"] = stats["fallback_instructions"]
    m["sim.blockengine.batched_iter_share"] = share(
        stats["loop_iterations_batched"], iters)
    m["sim.blockengine.template_hit_share"] = share(
        stats["template_hits"],
        stats["template_hits"] + stats["template_misfits"]
        + stats["template_builds"])
    m["sim.blockengine.noc_batch_success_share"] = share(
        stats["noc_batch_successes"], stats["noc_batch_attempts"])
    m["sim.blockengine.noc_contention_bailouts"] = (
        stats["noc_batch_contention_bailouts"])


def _interp_probe(rec, m, compiled, data, cold_report) -> None:
    """Interpreter against a cache-warm engine run of the same program,
    as benchmarks/test_bench_cyclesim.py pairs them."""
    with rec.span("sim.chip.run_warm"):
        _chip_run(compiled, data)
    with rec.span("sim.chip.interp_run"):
        interp_report, _ = _chip_run(compiled, data, engine="interp")
    if interp_report.cycles != cold_report.cycles:
        raise RuntimeError("interpreter and engine disagree on cycles")
    m["sim.chip.interp_run_s"] = rec.total("sim.chip.interp_run")
    m["sim.blockengine.speedup_vs_interp"] = (
        m["sim.chip.interp_run_s"] / rec.total("sim.chip.run_warm"))


def _chip_rates(rec, m, report) -> None:
    m["sim.chip.run_s"] = rec.total("sim.chip.run")
    m["sim.chip.instr_per_s"] = report.instructions / m["sim.chip.run_s"]
    m["sim.chip.cycles_per_s"] = report.cycles / m["sim.chip.run_s"]


def _fast_ratios(m, fast, cycle_report) -> None:
    m["sim.fastmodel.cycle_ratio"] = fast.cycles / cycle_report.cycles
    m["sim.fastmodel.energy_ratio"] = (
        fast.total_energy_mj / cycle_report.total_energy_mj)


def _artifact_probe(rec, m, tmp: Path, smoke: bool) -> None:
    """Save/load of a 2-chip resnet18@64 compile.  No workload runs the
    artifact path yet; the number is recorded (in the live_session pass,
    the one with time to spare) so an artifact change has something to
    ask a workload for."""
    from repro import compile_model, load_artifact, save_artifact

    model, kwargs = (_FLEET_MODEL if smoke else
                     ("resnet18", {"input_size": 64, "num_classes": 100}))
    arch = _preset_arch("small" if smoke else "default")
    compiled = compile_model(model, arch, "dp", chips=2, **kwargs)
    path = tmp / "probe.artifact"
    with rec.span("artifact.save"):
        save_artifact(compiled, path)
    with rec.span("artifact.load"):
        load_artifact(path, arch)
    m["artifact.save_s"] = rec.total("artifact.save")
    m["artifact.load_s"] = rec.total("artifact.load")
    m["artifact.bytes"] = path.stat().st_size


def trace_run_compute(rec, m, wl, tmp, seed):
    import math
    from repro.serve import Deployment
    from repro.sim import blockengine
    from repro.sim.functional import golden_outputs, random_input

    flags = wl.model_flags()
    model = flags[0]
    kwargs = ({"input_size": 8, "num_classes": 10} if wl.smoke
              else {"input_size": 64, "num_classes": 100})
    arch = _preset_arch(wl.preset)

    # On-path: what `repro run` does, layer by layer, process-cold.
    graph = _build_graph(rec, m, model, kwargs, True)
    plan = _plan_layers(rec, m, graph, arch, "dp", True)
    compiled = _codegen_layers(rec, m, plan, True)
    data = random_input(graph, seed=seed)
    blockengine.reset_stats()
    with rec.span("sim.chip.run", True):
        report, outputs = _chip_run(compiled, data)
    stats = dict(blockengine.ENGINE_STATS)
    with rec.span("sim.functional.golden", True):
        golden = golden_outputs(graph, {graph.input_operators[0].output: data})
    for name, expected in golden.items():
        if not (outputs[name].reshape(expected.shape) == expected).all():
            raise RuntimeError(f"traced run diverges from golden on {name}")
    with rec.span("cli.report", True):
        text = str(report) + _report_text({"report": report.to_dict()})
    del text

    # Probes.
    _engine_shares(m, stats)
    _chip_rates(rec, m, report)
    m["sim.functional.golden_s"] = rec.total("sim.functional.golden")
    _interp_probe(rec, m, compiled, data, report)
    fast = _fast_analysis(rec, None, [plan])
    _fast_ratios(m, fast, report)
    m["fast_cycle_abs_log_err"] = abs(math.log(fast.cycles / report.cycles))
    with rec.span("serve.compile"):
        deployment = Deployment(model, arch, strategy="dp", **kwargs)
    with rec.span("serve.cold_submit"):
        deployment.run(seed=seed, validate=True)
    m["serve.compile_s"] = rec.total("serve.compile")
    m["serve.cold_submit_s"] = rec.total("serve.cold_submit")


def trace_run_stream(rec, m, wl, tmp, seed):
    import math
    from repro.serve import Deployment
    from repro.sim import blockengine
    from repro.sim.functional import golden_outputs, random_input

    batch = int(wl.model_flags()[-1])
    arch = _preset_arch(wl.preset)

    # On-path: what `repro serve weight_stream --resident` does.
    blockengine.reset_stats()
    with rec.span("serve.compile", True):
        deployment = Deployment("weight_stream", arch, strategy="dp",
                                input_size=32, num_classes=10,
                                resident_weights=True)
    with rec.span("serve.cold_submit", True):
        report = deployment.submit(batch=batch, seed=seed, validate=True)
    stats = dict(blockengine.ENGINE_STATS)
    with rec.span("cli.report", True):
        text = str(report) + _report_text({"report": report.to_dict()})
    del text
    if not report.validated:
        raise RuntimeError("traced resident session did not validate")

    # Probes: the second submit of the session is the warm path alone.
    with rec.span("serve.warm_submit"):
        deployment.submit(batch=batch, seed=seed, validate=True)
    m["serve.compile_s"] = rec.total("serve.compile")
    m["serve.cold_submit_s"] = rec.total("serve.cold_submit")
    m["serve.warm_submit_s"] = rec.total("serve.warm_submit")
    _engine_shares(m, stats)

    graph = _build_graph(rec, m, "weight_stream",
                         {"input_size": 32, "num_classes": 10}, False)
    plan = _plan_layers(rec, m, graph, arch, "dp", False)
    compiled = _codegen_layers(rec, m, plan, False)
    tensor = graph.input_operators[0].output
    with rec.span("sim.functional.golden"):
        for index in range(batch):
            golden_outputs(graph, {tensor: random_input(graph, seed + index)})
    m["sim.functional.golden_s"] = rec.total("sim.functional.golden")
    data = random_input(graph, seed=seed)
    with rec.span("sim.chip.run"):
        single, _ = _chip_run(compiled, data)
    _chip_rates(rec, m, single)
    _interp_probe(rec, m, compiled, data, single)
    fast = _fast_analysis(rec, None, [plan])
    _fast_ratios(m, fast, single)
    fast_session = Deployment("weight_stream", arch, strategy="dp",
                              tier="fast", input_size=32, num_classes=10,
                              resident_weights=True).submit(batch=batch)
    m["fast_cycle_abs_log_err"] = abs(math.log(
        fast_session.makespan_cycles / report.makespan_cycles))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _sweep_spec(wl):
    """The SweepSpec ``repro sweep`` builds from the workload's flags
    (cli._cmd_sweep), parsed by the CLI's own parser."""
    from repro.cli import build_parser
    from repro.explore import SweepSpec

    args = build_parser().parse_args(("sweep",) + wl.axes())
    return SweepSpec(
        models=tuple(args.models),
        strategies=tuple(args.strategies),
        mg_sizes=tuple(args.mg_sizes) if args.mg_sizes else None,
        flit_sizes=tuple(args.flit_sizes) if args.flit_sizes else None,
        input_sizes=tuple(args.input_sizes),
        num_classes=args.num_classes,
        base_arch=_preset_arch(args.preset),
        closure_limit=args.closure_limit,
        chip_counts=tuple(args.chips),
        batch_sizes=tuple(args.batch),
        arrival_rates=tuple(args.arrival_rates),
        replica_counts=tuple(args.replicas),
        resident_modes=tuple(args.resident_modes),
    )


def _sweep_counts(m, spec) -> None:
    """Planned base analyses against closed-form derivations."""
    points = spec.points()
    bases = {(p.model, p.strategy, p.input_size, p.chips, p.mg_size,
              p.flit_bytes) for p in points}
    m["explore.base_points"] = len(bases)
    m["explore.derived_points"] = len(points) - len(bases)


def _sweep_plan_probe(rec, m, spec) -> None:
    """One point of the sweep's costliest strategy (the last named),
    planned layer by layer."""
    from repro.config import with_flit_bytes, with_mg_size

    first = next(p for p in spec.points()
                 if p.strategy == spec.strategies[-1])
    arch = spec.arch()
    if first.mg_size is not None:
        arch = with_mg_size(arch, first.mg_size)
    if first.flit_bytes is not None:
        arch = with_flit_bytes(arch, first.flit_bytes)
    kwargs = {"input_size": first.input_size, "num_classes": first.num_classes}
    graph = _build_graph(rec, m, first.model, kwargs, False)
    sharding, plans = _sharded_plan_layers(
        rec, m, graph, arch, first.strategy, first.chips, first.closure_limit)
    _fast_analysis(rec, sharding, plans)


def _cold_sweep(rec, m, spec, cache_dir: Path, on_path: bool):
    from repro.explore import run_sweep
    from repro.explore_cache import ResultCache

    with rec.span("explore.cold", on_path):
        result = run_sweep(spec, workers=1, cache=ResultCache(cache_dir))
    m["explore.cold_s"] = rec.total("explore.cold")
    m["explore.points_per_s"] = len(result) / m["explore.cold_s"]
    return result


def trace_sweep_cold(rec, m, wl, tmp, seed):
    from repro.explore import run_sweep

    spec = _sweep_spec(wl)
    result = _cold_sweep(rec, m, spec, tmp / "trace-cold-cache", True)
    with rec.span("cli.report", True):
        text = _report_text(result.to_dict())
    del text
    _sweep_counts(m, spec)

    _sweep_plan_probe(rec, m, spec)
    # Same spec, no cache, one worker against two (2 cores here).
    with rec.span("explore.serial"):
        run_sweep(spec, workers=1)
    with rec.span("explore.pool_w2"):
        run_sweep(spec, workers=2)
    m["explore.pool_speedup_w2"] = (
        rec.total("explore.serial") / rec.total("explore.pool_w2"))


def trace_sweep_warm(rec, m, wl, tmp, seed):
    from repro.explore import run_sweep
    from repro.explore_cache import (
        ResultCache, SweepManifest, sweep_fingerprint)

    spec = _sweep_spec(wl)
    cache = ResultCache(tmp / "warm-cache")  # populated by the set-up
    with rec.span("explore_cache.warm", True):
        result = run_sweep(spec, workers=1, cache=cache)
    with rec.span("cli.report", True):
        text = _report_text(result.to_dict())
    del text
    m["explore_cache.warm_s"] = rec.total("explore_cache.warm")
    m["explore_cache.lookups_per_s"] = len(result) / m["explore_cache.warm_s"]
    m["explore_cache.hit_share"] = result.stats.hit_rate
    m["explore_cache.disk_bytes"] = cache.size_bytes()
    _sweep_counts(m, spec)

    # An interrupted sweep: half the points journalled, all cached.
    keys = [p.cache_key(spec.arch()) for p in spec.points()]
    spec_dict = spec.to_dict()
    manifest = SweepManifest(cache.root, sweep_fingerprint(spec_dict),
                             spec_meta=spec_dict)
    for key in keys[: len(keys) // 2]:
        manifest.mark(key)
    with rec.span("explore_cache.resume"):
        resumed = run_sweep(spec, workers=1, cache=cache)
    if resumed.stats.resumed_points != len(keys) // 2:
        raise RuntimeError("resume probe did not pick the manifest up")
    m["explore_cache.resume_s"] = rec.total("explore_cache.resume")

    _cold_sweep(rec, m, spec, tmp / "trace-cold-cache", False)
    _sweep_plan_probe(rec, m, spec)


# ---------------------------------------------------------------------------
# Fast-tier serving
# ---------------------------------------------------------------------------

_FLEET_MODEL = ("tiny_resnet", {"input_size": 8, "num_classes": 10})


def _fleet(rec, replicas: int, policy: str):
    from repro.serve import Fleet

    model, kwargs = _FLEET_MODEL
    with rec.span("serve.compile", True):
        return Fleet(model, _preset_arch("small"), replicas=replicas,
                     policy=policy, chips=2, strategy="dp", tier="fast",
                     **kwargs)


def _poisson(rec, fleet, rate: float, seed: int, batch: int) -> List[int]:
    from repro.serve import PoissonArrivals

    with rec.span("serve.arrivals", True):
        return PoissonArrivals(rate, seed).release_cycles(
            batch, fleet.arch.chip.cycle_ns)


def _service_profile(rec, m):
    """Per-shard service row + transfer edges of the fleet model, from
    the public planner and fast model (also the compiler-layer probe)."""
    model, kwargs = _FLEET_MODEL
    arch = _preset_arch("small")
    graph = _build_graph(rec, m, model, kwargs, False)
    sharding, plans = _sharded_plan_layers(rec, m, graph, arch, "dp", 2, None)
    fast = _fast_analysis(rec, sharding, plans)
    return list(fast.shard_cycles), list(fast.shard_edges), arch.interchip


def _fault_probe(rec, m, plan, releases, replicas: int, profile) -> None:
    from repro.faults import run_fault_schedule

    row, edges, link = profile
    with rec.span("faults.schedule"):
        schedule = run_fault_schedule(releases, row, edges, link, replicas,
                                      policy="rr", plan=plan)
    schedule.check_conservation()
    attempts = len(schedule.attempts)
    m["faults.schedule_s"] = rec.total("faults.schedule")
    m["faults.req_per_s"] = len(releases) / m["faults.schedule_s"]
    m["faults.attempts"] = attempts
    m["faults.retry_share"] = (attempts - len(releases)) / attempts
    m["faults.drop_share"] = len(schedule.dropped) / len(releases)


def trace_serve_fleet(rec, m, wl, tmp, seed):
    import random
    from repro.faults import load_fault_plan
    from repro.serve import PoissonArrivals
    from repro.sim.multichip import streaming_schedule

    rr_batch, jsq_batch, faulted_batch = wl.batches
    plan = load_fault_plan(tmp / "plan.json")
    reports = []
    for span, replicas, policy, rate, batch, faults in (
        ("serve.rr_submit", 4, "rr", 1600000, rr_batch, None),
        ("serve.jsq_submit", 4, "jsq", 1600000, jsq_batch, None),
        ("serve.faulted_submit", 3, "rr", 1200000, faulted_batch, plan),
    ):
        fleet = _fleet(rec, replicas, policy)
        kwargs = {} if faults is None else {"faults": faults}
        with rec.span(span, True):
            report = fleet.submit(
                batch=batch, arrivals=PoissonArrivals(rate, seed), seed=seed,
                validate=True, **kwargs)
        with rec.span("serve.report_json", True):
            text = str(report) + _report_text({"report": report.to_dict()})
        del text
        reports.append(report)
    m["serve.compile_s"] = rec.total("serve.compile")
    m["serve.rr_submit_s"] = rec.total("serve.rr_submit")
    m["serve.jsq_submit_s"] = rec.total("serve.jsq_submit")
    m["serve.rr_req_per_s"] = rr_batch / m["serve.rr_submit_s"]
    m["serve.jsq_req_per_s"] = jsq_batch / m["serve.jsq_submit_s"]
    m["serve.report_json_s"] = rec.total("serve.report_json")

    profile = _service_profile(rec, m)
    _fault_probe(rec, m, plan, list(reports[2].releases), 3, profile)
    # The bare streaming recurrence at 10^5 seeded releases.
    row, edges, link = profile
    count = 1000 if wl.smoke else 100000
    rng = random.Random(seed)
    cycle, releases = 0, []
    for _ in range(count):
        cycle += rng.randrange(2 * max(row))
        releases.append(cycle)
    with rec.span("sim.multichip.schedule"):
        streaming_schedule([row] * count, edges, link, releases)
    m["sim.multichip.schedule_s"] = rec.total("sim.multichip.schedule")
    m["sim.multichip.releases_per_s"] = count / m["sim.multichip.schedule_s"]


async def _live_session(rec, fleet, releases, seed, faults):
    from repro.runtime import VirtualClock, serve_forever

    clock = VirtualClock()
    handle = await serve_forever(fleet, clock=clock, seed=seed, validate=True,
                                 faults=faults)
    with rec.span("runtime.submit", True):
        for release in releases:
            clock.advance_to(release)
            await handle.submit()
    with rec.span("runtime.drain", True):
        await handle.drain()
    return handle


def trace_live_session(rec, m, wl, tmp, seed):
    from repro.console import console_snapshot, snapshot_json
    from repro.faults import load_fault_plan

    clean_batch, faulted_batch = wl.batches
    plan = load_fault_plan(tmp / "plan.json")
    events = 0
    submit_s = {}
    for batch, faults in ((clean_batch, None), (faulted_batch, plan)):
        fleet = _fleet(rec, 3, "rr")
        releases = _poisson(rec, fleet, 1200000, seed, batch)
        before = rec.total("runtime.submit")
        handle = asyncio.run(_live_session(rec, fleet, releases, seed, faults))
        submit_s[faults is not None] = rec.total("runtime.submit") - before
        with rec.span("console.fold", True):
            text = snapshot_json(console_snapshot(handle, window=64))
        del text
        events += len(handle.events)
    m["serve.compile_s"] = rec.total("serve.compile")
    m["runtime.submit_s"] = rec.total("runtime.submit")
    m["runtime.drain_s"] = rec.total("runtime.drain")
    m["runtime.req_per_s"] = clean_batch / submit_s[False]
    m["runtime.faulted_req_per_s"] = faulted_batch / submit_s[True]
    m["runtime.events"] = events
    m["console.fold_s"] = rec.total("console.fold")

    profile = _service_profile(rec, m)
    _fault_probe(rec, m, plan, releases, 3, profile)
    _artifact_probe(rec, m, tmp, wl.smoke)


TRACERS = {
    "run_compute": trace_run_compute,
    "run_stream": trace_run_stream,
    "sweep_cold": trace_sweep_cold,
    "sweep_warm": trace_sweep_warm,
    "serve_fleet": trace_serve_fleet,
    "live_session": trace_live_session,
}


def trace_workload(wl, tmp: Path, seed: int) -> Tuple[Dict[str, float], Recorder]:
    """Replay ``wl`` in-process; returns (layer metrics, recorder).

    Every name in :data:`metrics.LAYERS` is present; layers the workload
    does not exercise stay 0.  ``trace.*``, ``cli.*`` and ``host.*`` are
    filled in by the caller, which owns the subprocess measurements.
    """
    rec = Recorder(wl.name)
    m: Dict[str, float] = {name: 0 for name, _, _ in LAYERS}
    started = time.perf_counter()
    TRACERS[wl.name](rec, m, wl, tmp, seed)
    _compiler_seconds(rec, m)
    pass_s = time.perf_counter() - started
    m["trace.overhead_share"] = len(rec.spans) * span_cost_s() / pass_s
    return m, rec
