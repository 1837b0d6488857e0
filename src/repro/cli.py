"""Command-line interface: ``python -m repro <command>``.

Eight subcommands expose the serving API and the design-space
exploration engine without writing any Python:

- ``run``     -- compile one model and execute it on the cycle-accurate
  simulator, validating against the golden model (Fig. 2 workflow);
  ``--chips N`` pipeline-shards the model across N chips, ``--batch B``
  streams B inputs through it (throughput mode);
- ``compile`` -- compile once and write a content-addressed
  ``.artifact`` file (:mod:`repro.artifact`): the shippable compile
  product ``run``/``serve`` and :meth:`repro.serve.Deployment.load`
  accept in place of a model name;
- ``inspect`` -- print the manifest of an ``.artifact`` file (digest,
  arch fingerprint, per-chip programs/images) without loading weights
  into a simulator;
- ``serve``   -- deploy one model (compile once) and drive it with a
  stream of inputs under an explicit arrival process (``--rate`` /
  ``--interval`` / ``--poisson`` / ``--trace``), reporting p50/p95/p99
  latency, queueing delay, per-shard utilisation and sustained
  throughput; ``--tier fast`` prices the same schedule analytically;
  ``--replicas R`` round-robins (or ``--policy jsq`` queue-balances)
  the stream across R replicas of the deployment; ``--faults PLAN``
  replays a deterministic fault plan (:mod:`repro.faults`) against the
  fleet, reporting conservation, goodput, drops and retries;
- ``watch``   -- serve a scripted arrival stream (the ``serve`` flags)
  request by request through the async runtime (:mod:`repro.runtime`)
  and print the operator tables -- per-shard utilisation, replica
  health, queue depth, rolling p50/p99 -- as JSON (``--snapshot FILE``
  writes them to a file);
- ``sweep``   -- evaluate a cross-product design space with the fast
  analytical model, in parallel and through the on-disk result cache
  (``--chips`` adds the multi-chip axis, ``--batch`` the streaming
  batch axis, ``--arrival-rates`` the serving axis, ``--replicas``
  the fleet axis, ``--fault-plans`` the availability axis; an
  interrupted sweep resumes mid-cross-product via the sweep manifest);
- ``compare`` -- the Fig. 5 strategy comparison (normalized speed/energy
  per compilation strategy);
- ``report``  -- re-render / convert a saved ``sweep --json`` file
  (``--pareto`` extracts the energy/throughput Pareto front).

Examples::

    python -m repro run tiny_resnet --preset small --chips 2
    python -m repro compile tiny_resnet --preset small --chips 2 \\
        -o tiny_resnet.artifact
    python -m repro inspect tiny_resnet.artifact
    python -m repro serve tiny_resnet.artifact --preset small \\
        --batch 16 --rate 200000 --replicas 4 --policy jsq
    python -m repro sweep --models resnet18 --strategies generic,dp \\
        --mg-sizes 4,8,12,16 --flit-sizes 8,16 --workers 4 --json out.json
    python -m repro compare --models resnet18,mobilenetv2
    python -m repro report out.json --best tops --pareto --csv out.csv

The full flag/environment-variable reference lives in ``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.config import default_arch, load_arch, small_test_arch
from repro.errors import ConfigError, ReproError

# Every other layer is imported by the command that runs it, so a verb
# pays only for what it executes (docs/ARCHITECTURE.md, "Import
# layering"; tests/test_import_layers.py holds each verb to it).
if TYPE_CHECKING:
    from repro.explore_cache import ResultCache

_PRESETS = {"default": default_arch, "small": small_test_arch}

_POINT_COLUMNS = (
    "model", "strategy", "input_size", "num_classes", "chips", "batch",
    "arrival_rate",
    "replicas", "fault_plan", "resident_weights", "load_cycles",
    "mg_size", "flit_bytes", "cycles", "time_ms", "energy_mj", "tops",
    "throughput_inf_s", "energy_per_inf_mj",
    "p50_latency_ms", "p95_latency_ms", "p99_latency_ms",
    "dropped", "retries", "goodput_inf_s", "cached",
)

#: Fallbacks for sweep-result rows written before the column existed
#: (pre-batch files lack batch/throughput/energy-per-inference,
#: pre-serve files lack arrival-rate/latency-percentile columns,
#: pre-fleet files lack the replicas column, pre-fault files lack the
#: fault-plan/dropped/retries/goodput columns, pre-resident files lack
#: the resident-weights/load-cycles columns).
_COLUMN_DEFAULTS = {"chips": 1, "batch": 1, "replicas": 1,
                    "dropped": 0, "retries": 0,
                    "resident_weights": False, "load_cycles": 0}

_BEST_METRICS = (
    "tops", "throughput_inf_s", "energy_mj", "energy_per_inf_mj", "cycles",
)
_ASCENDING_METRICS = ("energy_mj", "energy_per_inf_mj", "cycles")


# ---------------------------------------------------------------------------
# Small argument helpers
# ---------------------------------------------------------------------------

def _split_csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _int_list(value: str) -> List[int]:
    try:
        return [int(item) for item in _split_csv(value)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        )


def _rate_list(value: str) -> List[Optional[float]]:
    """Comma-separated arrival rates; ``none`` keeps back-to-back mode."""
    out: List[Optional[float]] = []
    for item in _split_csv(value):
        if item.lower() == "none":
            out.append(None)
            continue
        try:
            out.append(float(item))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated rates (inf/s) or 'none', "
                f"got {item!r}"
            )
    return out


def _bool_list(value: str) -> List[bool]:
    """Comma-separated booleans (``true``/``false``, ``1``/``0``)."""
    out: List[bool] = []
    for item in _split_csv(value):
        lowered = item.lower()
        if lowered in ("true", "1", "yes", "on"):
            out.append(True)
        elif lowered in ("false", "0", "no", "off"):
            out.append(False)
        else:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated booleans, got {item!r}"
            )
    return out


def _closure_limit(value: str):
    """``64`` | ``none`` | ``model=64,other=none`` -> engine form."""
    items = _split_csv(value)
    if len(items) == 1 and "=" not in items[0]:
        return None if items[0].lower() == "none" else int(items[0])
    limits: Dict[str, Optional[int]] = {}
    for item in items:
        if "=" not in item:
            raise argparse.ArgumentTypeError(
                f"expected model=limit pairs, got {item!r}"
            )
        model, _, limit = item.partition("=")
        limits[model.strip()] = (
            None if limit.strip().lower() == "none" else int(limit)
        )
    return limits


def _resolve_arch(args):
    if getattr(args, "arch", None):
        return load_arch(args.arch)
    return _PRESETS[args.preset]()


def _add_arch_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--arch", metavar="FILE",
        help="JSON architecture configuration file (see repro.config.save_arch)",
    )
    group.add_argument(
        "--preset", choices=sorted(_PRESETS), default="default",
        help="built-in architecture preset (default: the paper's Table I)",
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _optional_cell(row: Dict[str, Any], key: str, fmt: str, width: int) -> str:
    """Format a possibly-missing numeric column (old result files)."""
    value = row.get(key)
    if value is None:
        return f"{'-':>{width}s}"
    return f"{value:>{width}{fmt}}"


def _format_table(rows: Sequence[Dict[str, Any]]) -> str:
    faulted = any(row.get("fault_plan") for row in rows)
    resident = any(row.get("resident_weights") for row in rows)
    header = (
        f"{'model':<16s}{'strat':>7s}{'in':>5s}{'chips':>6s}{'B':>4s}"
        f"{'rate/s':>9s}{'R':>3s}{'MG':>4s}{'flit':>6s}"
        f"{'cycles':>12s}{'ms':>9s}{'E mJ':>9s}{'TOPS':>8s}"
        f"{'inf/s':>11s}{'mJ/inf':>9s}{'p99 ms':>9s}"
        + (f"{'drop':>6s}{'retry':>7s}{'good/s':>11s}" if faulted else "")
        + (f"{'res':>5s}{'load cyc':>10s}" if resident else "")
        + f"{'cache':>7s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        fault_cells = ""
        if faulted:
            fault_cells = (
                f"{row.get('dropped', 0):>6d}{row.get('retries', 0):>7d}"
                f"{_optional_cell(row, 'goodput_inf_s', ',.0f', 11)}"
            )
        resident_cells = ""
        if resident:
            resident_cells = (
                f"{'yes' if row.get('resident_weights') else '-':>5s}"
                f"{row.get('load_cycles', 0):>10,d}"
            )
        lines.append(
            f"{row['model']:<16s}{row['strategy']:>7s}{row['input_size']:>5d}"
            f"{row.get('chips', 1):>6d}{row.get('batch', 1):>4d}"
            f"{_optional_cell(row, 'arrival_rate', ',.0f', 9)}"
            f"{row.get('replicas', 1):>3d}"
            f"{row['mg_size']:>4d}{row['flit_bytes']:>6d}"
            f"{row['cycles']:>12,d}{row['time_ms']:>9.2f}"
            f"{row['energy_mj']:>9.2f}{row['tops']:>8.2f}"
            f"{_optional_cell(row, 'throughput_inf_s', ',.0f', 11)}"
            f"{_optional_cell(row, 'energy_per_inf_mj', '.2f', 9)}"
            f"{_optional_cell(row, 'p99_latency_ms', '.3f', 9)}"
            + fault_cells
            + resident_cells
            + f"{'hit' if row.get('cached') else '-':>7s}"
        )
    return "\n".join(lines)


def _write_csv(rows: Sequence[Dict[str, Any]], path: str) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_POINT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {col: row.get(col, _COLUMN_DEFAULTS.get(col, ""))
                 for col in _POINT_COLUMNS}
            )


def _write_json(payload: Dict[str, Any], path: str) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _build_deployment(args, tier: str = "cyclesim"):
    from repro.serve import Deployment, _is_artifact_path

    resident = getattr(args, "resident", False)
    if _is_artifact_path(args.model):
        # An artifact carries its own graph, sharding and programs; the
        # session arch is cross-checked against its fingerprint.
        return Deployment.load(
            args.model, arch=_resolve_arch(args), tier=tier,
            resident_weights=resident,
        )
    return Deployment(
        args.model,
        arch=_resolve_arch(args),
        chips=args.chips,
        strategy=args.strategy,
        tier=tier,
        input_size=args.input_size,
        num_classes=args.num_classes,
        resident_weights=resident,
    )


def _json_header(args, server) -> Dict[str, Any]:
    """What a run/serve ``--json`` file says was deployed.

    Chips and strategy are read off the deployment, not the flags: an
    artifact carries its own, and ignores ``--input-size`` /
    ``--num-classes`` (written as ``null``).
    """
    from repro.serve import _is_artifact_path

    artifact = _is_artifact_path(args.model)
    return {
        "model": args.model,
        "strategy": server.strategy,
        "input_size": None if artifact else args.input_size,
        "num_classes": None if artifact else args.num_classes,
        "chips": server.num_chips,
    }


def _cmd_run(args) -> int:
    deployment = _build_deployment(args)
    validate = not args.no_validate
    if args.batch != 1:  # submit() rejects a batch below 1
        serve = deployment.submit(
            batch=args.batch, seed=args.seed, validate=validate
        )
        report = serve.stream_report
        validated = serve.validated
    else:
        result = deployment.run(seed=args.seed, validate=validate)
        report = result.report
        validated = result.validated
    print(deployment.summary())
    if validate:
        if args.batch > 1:
            print(
                f"validated : bit-exact vs golden model "
                f"({args.batch} inputs, each in isolation)"
            )
        else:
            print("validated : bit-exact vs golden model")
    print()
    print(report)
    if args.json:
        _write_json(
            {
                **_json_header(args, deployment),
                "batch": args.batch,
                "validated": validated,
                "report": report.to_dict(),
            },
            args.json,
        )
        print(f"\nwrote {args.json}")
    return 0


def _cmd_compile(args) -> int:
    from repro.artifact import inspect_artifact, save_artifact
    from repro.workflow import compile_model

    model = args.model
    if model.endswith(".json"):
        from repro.graph.onnx_like import load_graph

        model = load_graph(model)
    compiled = compile_model(
        model,
        arch=_resolve_arch(args),
        strategy=args.strategy,
        chips=args.chips,
        input_size=args.input_size,
        num_classes=args.num_classes,
    )
    digest = save_artifact(compiled, args.output)
    info = inspect_artifact(args.output)
    print(
        f"compiled  : {args.model} ({args.strategy}, "
        f"{args.chips} chip{'s' if args.chips != 1 else ''})"
    )
    print(f"artifact  : {args.output} ({info['file_bytes']:,d} bytes)")
    print(f"digest    : sha256:{digest}")
    print(f"arch      : {info['arch_fingerprint']}")
    return 0


def _cmd_inspect(args) -> int:
    from repro.artifact import inspect_artifact

    info = inspect_artifact(args.artifact)
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    model = info["model"]
    print(f"artifact  : {info['path']} ({info['file_bytes']:,d} bytes)")
    print(f"format    : v{info['format_version']}")
    print(f"digest    : sha256:{info['digest']}")
    print(f"arch      : {info['arch_fingerprint']}")
    print(
        f"model     : {model['name']} ({model['strategy']}, "
        f"{model['chips']} chip{'s' if model['chips'] != 1 else ''})"
    )
    for index, chip in enumerate(info["chips"]):
        print(
            f"  chip {index}  : {chip['num_instructions']:,d} instructions, "
            f"{chip['image_bytes']:,d} B image, "
            f"{chip['global_tensors']} global tensors, "
            f"{chip['fast_cycles']:,d} fast-model cycles"
        )
    if info["transfers"]:
        print(
            f"transfers : {info['transfers']} inter-chip edges, "
            f"{info['interchip_bytes']:,d} B per inference"
        )
    if info["isa_extensions"]:
        print(f"isa ext   : {', '.join(info['isa_extensions'])}")
    return 0


def _read_trace(path: str) -> List[int]:
    """Release cycles from a trace file: JSON array or whitespace ints."""
    text = Path(path).read_text().strip()
    try:
        if not text:
            return []
        if text.startswith("["):
            return [int(c) for c in json.loads(text)]
        return [int(token) for token in text.split()]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"malformed arrival trace {path!r}: {exc}")


def _cmd_serve(args) -> int:
    plan = None
    if args.faults is not None:
        from repro.faults import load_fault_plan

        plan = load_fault_plan(args.faults)
    arrivals, batch = _watch_arrivals(args)
    server = _build_server(args, plan)
    print(server.summary())
    if plan is not None:
        print(f"  faults: {plan.describe()} [{plan.fingerprint()}]")
    print()
    fault_kwargs = {} if plan is None else {"faults": plan}
    if batch == 0:
        report = server.run_trace([], **fault_kwargs)
    else:
        report = server.submit(
            batch=batch, arrivals=arrivals, seed=args.seed,
            validate=not args.no_validate, **fault_kwargs,
        )
    if report.validated:
        print(
            f"validated : bit-exact vs golden model "
            f"({report.batch} inputs, each in isolation)"
        )
        print()
    print(report)
    if args.json:
        _write_json(
            {
                **_json_header(args, server),
                "replicas": args.replicas,
                "faults": plan.fingerprint() if plan is not None else None,
                "resident": args.resident,
                "report": report.to_dict(),
            },
            args.json,
        )
        print(f"\nwrote {args.json}")
    return 0


def _build_server(args, plan):
    """Deployment or Fleet from serve/watch-style arguments."""
    from repro.sim.multichip import check_fleet

    check_fleet(args.policy, args.replicas)
    if args.replicas > 1 or plan is not None:
        from repro.serve import Fleet, _is_artifact_path

        if _is_artifact_path(args.model):
            return Fleet(
                args.model, arch=_resolve_arch(args),
                replicas=args.replicas, policy=args.policy, tier=args.tier,
                resident_weights=args.resident,
            )
        return Fleet(
            args.model, arch=_resolve_arch(args),
            replicas=args.replicas, policy=args.policy,
            chips=args.chips, strategy=args.strategy, tier=args.tier,
            input_size=args.input_size, num_classes=args.num_classes,
            resident_weights=args.resident,
        )
    return _build_deployment(args, tier=args.tier)


def _watch_arrivals(args):
    """(arrivals, batch) from watch-style arrival flags."""
    from repro.serve import (
        BackToBack,
        FixedInterval,
        FixedRate,
        PoissonArrivals,
        TraceArrivals,
        check_batch,
    )

    if args.trace is not None:
        trace = _read_trace(args.trace)
        return TraceArrivals(trace), len(trace)
    # Both verbs serve ``--batch 0`` as the empty stream.
    batch = args.batch
    check_batch(batch, 0)
    if args.poisson is not None:
        return PoissonArrivals(args.poisson, seed=args.arrival_seed), batch
    if args.rate is not None:
        return FixedRate(args.rate), batch
    if args.interval is not None:
        return FixedInterval(args.interval), batch
    return BackToBack(), batch


def _cmd_watch(args) -> int:
    from repro.console import headless_watch, snapshot_json

    plan = None
    if args.faults is not None:
        from repro.faults import load_fault_plan

        plan = load_fault_plan(args.faults)
    arrivals, batch = _watch_arrivals(args)
    server = _build_server(args, plan)
    releases = arrivals.release_cycles(batch, server.arch.chip.cycle_ns)

    snapshot = headless_watch(
        server, releases, seed=args.seed, validate=not args.no_validate,
        faults=plan, window=args.window,
    )
    text = snapshot_json(snapshot)
    if args.snapshot == "-":
        print(text)
    else:
        Path(args.snapshot).write_text(text + "\n")
        print(f"wrote {args.snapshot}")
    return 0


def _build_cache(args) -> Optional[ResultCache]:
    from repro.explore_cache import ResultCache, default_cache_dir

    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def _check_workers(args) -> None:
    if args.workers < 0:
        raise ConfigError("--workers must be >= 0")


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(done, total, point):
        tag = "cache hit" if point.cached else "evaluated"
        print(
            f"[{done:>3d}/{total}] {point.model:<16s}{point.strategy:>12s}"
            f"  chips={point.chips:<2d}B={point.batch:<3d}"
            f"MG={point.mg_size:<3d}flit={point.flit_bytes:<3d}"
            f" TOPS={point.tops:6.2f}  ({tag})",
            flush=True,
        )

    return progress


def _fault_plans(entries: List[str]):
    """``plan.json`` / ``none`` entries -> FaultPlan axis tuple."""
    if all(entry.lower() == "none" for entry in entries):
        return (None,) * len(entries)  # the default axis: no repro.faults
    from repro.faults import load_fault_plan

    return tuple(
        None if entry.lower() == "none" else load_fault_plan(entry)
        for entry in entries
    )


def _cmd_sweep(args) -> int:
    from repro.explore import SweepSpec, run_sweep

    _check_workers(args)
    spec = SweepSpec(
        models=tuple(args.models),
        strategies=tuple(args.strategies),
        mg_sizes=tuple(args.mg_sizes) if args.mg_sizes else None,
        flit_sizes=tuple(args.flit_sizes) if args.flit_sizes else None,
        input_sizes=tuple(args.input_sizes),
        num_classes=args.num_classes,
        base_arch=_resolve_arch(args),
        closure_limit=args.closure_limit,
        chip_counts=tuple(args.chips),
        batch_sizes=tuple(args.batch),
        arrival_rates=tuple(args.arrival_rates),
        replica_counts=tuple(args.replicas),
        fault_plans=_fault_plans(args.fault_plans),
        resident_modes=tuple(args.resident_modes),
    )
    cache = _build_cache(args)
    result = run_sweep(
        spec,
        workers=args.workers,
        cache=cache,
        progress=_progress_printer(args.quiet),
        resume=not args.no_resume,
    )
    payload = result.to_dict()
    rows = payload["points"]
    print()
    print(_format_table(rows))
    stats = result.stats
    print(
        f"\n{stats.total_points} points in {stats.wall_time_s:.1f}s "
        f"({stats.workers} worker{'s' if stats.workers != 1 else ''}): "
        f"{stats.evaluated} evaluated, {stats.cache_hits} cache hits "
        f"({100 * stats.hit_rate:.0f}%)"
    )
    if stats.resumed_points:
        print(
            f"resumed: {stats.resumed_points} points completed by a "
            f"previous interrupted run of this sweep"
        )
    if cache is not None:
        print(f"cache: {cache.root} ({len(cache)} entries)")
    checks = []
    if args.spot_check:
        from repro.explore import spot_check

        checks = spot_check(
            result,
            n=args.spot_check,
            input_size=args.spot_input_size,
            num_classes=min(args.num_classes, 10),
        )
        print(
            f"\ncycle-accurate spot check of the top {len(checks)} "
            f"point{'s' if len(checks) != 1 else ''} "
            f"(at {args.spot_input_size} px, bit-exact vs golden model):"
        )
        for chk in checks:
            d = chk.to_dict()
            print(
                f"  {d['model']:<16s}{d['strategy']:>6s}  MG={d['mg_size']:<3d}"
                f"flit={d['flit_bytes']:<3d} cycle-sim {d['cycles']:>12,d}  "
                f"fast model {d['fast_cycles']:>12,d}  "
                f"ratio {d['cycle_ratio']:.2f}  "
                f"{'validated' if d['validated'] else 'UNVALIDATED'}"
            )
    if args.json:
        if checks:
            payload["spot_checks"] = [chk.to_dict() for chk in checks]
        _write_json(payload, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        _write_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_compare(args) -> int:
    from repro.explore import strategy_comparison

    _check_workers(args)
    cache = _build_cache(args)
    results = strategy_comparison(
        args.models,
        arch=_resolve_arch(args),
        strategies=tuple(args.strategies),
        input_size=args.input_size,
        num_classes=args.num_classes,
        workers=args.workers,
        cache=cache,
    )
    baseline = args.strategies[0]
    print(
        f"normalized speed / energy ({baseline} = 1.00), "
        f"input {args.input_size}x{args.input_size}"
    )
    print(f"{'model':<16s}" + "".join(f"{s:>22s}" for s in args.strategies))
    for model, by_strategy in results.items():
        base = by_strategy[baseline].report
        cells = []
        for strategy in args.strategies:
            report = by_strategy[strategy].report
            speed = base.cycles / report.cycles
            energy = report.total_energy_mj / base.total_energy_mj
            cells.append(f"{speed:7.2f}x /{energy:6.2f}E")
        print(f"{model:<16s}" + "".join(f"{c:>22s}" for c in cells))
    if args.json:
        _write_json(
            {
                model: {
                    strategy: point.to_dict()
                    for strategy, point in by_strategy.items()
                }
                for model, by_strategy in results.items()
            },
            args.json,
        )
        print(f"wrote {args.json}")
    return 0


def _pareto_rows(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Non-dominated (energy_mj minimised, tops maximised) rows.

    The same :func:`repro.explore.pareto_filter` backing
    :meth:`SweepResult.pareto_front`, applied to the JSON row
    dictionaries a saved sweep file carries.
    """
    from repro.explore import pareto_filter

    return pareto_filter(list(rows), lambda r: (r["energy_mj"], r["tops"]))


def _read_results(path: str) -> Dict[str, Any]:
    """A ``sweep --json`` payload, shape-checked where it is read."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    rows = payload["points"]
    if not (isinstance(rows, list)
            and all(isinstance(row, dict) for row in rows)):
        raise ValueError("'points' must be a list of objects")
    for section in ("spec", "stats"):
        if not isinstance(payload.get(section, {}), dict):
            raise ValueError(f"{section!r} must be an object")
    return payload


def _cmd_report(args) -> int:
    if args.top < 1:
        raise ConfigError("--top must be >= 1")
    try:
        payload = _read_results(args.results)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read sweep results {args.results!r}: {exc}",
              file=sys.stderr)
        return 2
    rows = payload["points"]
    print(_format_table(rows))
    spec = payload.get("spec", {})
    stats = payload.get("stats", {})
    if spec:
        print(
            f"\nsweep of {spec.get('num_points', len(rows))} points over "
            f"models={spec.get('models')} strategies={spec.get('strategies')}"
        )
    if stats:
        print(
            f"executed with {stats.get('workers')} worker(s) in "
            f"{stats.get('wall_time_s', 0.0):.1f}s, "
            f"{stats.get('cache_hits', 0)} cache hits"
        )
    if not rows:
        # An empty sweep file is well-formed (e.g. a filtered export):
        # there is nothing to rank or filter, but it is not an error.
        print("\n(no points)")
        if args.csv:
            _write_csv(rows, args.csv)
            print(f"wrote {args.csv}")
        return 0
    if any(args.best not in row for row in rows):
        print(
            f"error: results file predates the {args.best!r} column; "
            f"re-run the sweep to rank by it",
            file=sys.stderr,
        )
        return 2
    reverse = args.best not in _ASCENDING_METRICS
    ranked = sorted(rows, key=lambda r: r[args.best], reverse=reverse)
    print(f"\ntop {min(args.top, len(ranked))} by {args.best}:")
    print(_format_table(ranked[: args.top]))
    if args.pareto:
        front = _pareto_rows(rows)
        print(
            f"\nenergy/throughput Pareto front "
            f"({len(front)}/{len(rows)} points non-dominated):"
        )
        print(_format_table(front))
    if args.csv:
        _write_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _VerbParser(argparse.ArgumentParser):
    """A subcommand parser that declares its flags when first selected.

    Flag help quotes the model zoo and the default cache directory, so
    declaring every verb's flags up front made every verb import both.
    ``python -m repro --help`` lists the verbs without declaring any,
    and a verb never declares another's.
    """

    def __init__(self, *args, declare, **kwargs):
        super().__init__(*args, **kwargs)
        self._declare = declare

    def parse_known_args(self, args=None, namespace=None):
        if self._declare is not None:
            declare, self._declare = self._declare, None
            declare(self)
        return super().parse_known_args(args, namespace)


def _zoo_names() -> str:
    # The registry resolves names without importing a builder.
    from repro.graph.models import available_models

    return ", ".join(available_models())


def _declare_run(run: argparse.ArgumentParser) -> None:
    run.add_argument(
        "model",
        help=f"model zoo name ({_zoo_names()}) "
             f"or a compiled .artifact file",
    )
    _add_arch_options(run)
    run.add_argument("--strategy", default="dp",
                     choices=("generic", "duplication", "dp"))
    run.add_argument("--chips", type=int, default=1, metavar="N",
                     help="pipeline-shard the model across N identical "
                          "chips (default 1: single chip)")
    run.add_argument("--batch", type=int, default=1, metavar="B",
                     help="stream B independent inputs through the "
                          "configuration (throughput mode: a multi-chip "
                          "pipeline overlaps inputs across chips, one chip "
                          "replays them sequentially; default 1)")
    run.add_argument("--input-size", type=int, default=32,
                     help="input resolution (cycle sim; keep small)")
    run.add_argument("--num-classes", type=int, default=10)
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the random input tensor")
    run.add_argument("--no-validate", action="store_true",
                     help="skip the golden-model output check")
    run.add_argument("--json", metavar="FILE", help="write the report as JSON")
    run.set_defaults(func=_cmd_run)


def _declare_compile(compile_: argparse.ArgumentParser) -> None:
    compile_.add_argument(
        "model",
        help=f"model zoo name ({_zoo_names()}) "
             f"or a graph JSON file (see repro.graph.save_graph)",
    )
    compile_.add_argument("-o", "--output", required=True, metavar="FILE",
                          help="artifact file to write (convention: "
                               "model.artifact)")
    _add_arch_options(compile_)
    compile_.add_argument("--strategy", default="dp",
                          choices=("generic", "duplication", "dp"))
    compile_.add_argument("--chips", type=int, default=1, metavar="N",
                          help="pipeline-shard across N chips (default 1)")
    compile_.add_argument("--input-size", type=int, default=32,
                          help="input resolution baked into the artifact "
                               "(zoo models only)")
    compile_.add_argument("--num-classes", type=int, default=10)
    compile_.set_defaults(func=_cmd_compile)


def _declare_inspect(inspect_: argparse.ArgumentParser) -> None:
    inspect_.add_argument("artifact", help="artifact file to inspect")
    inspect_.add_argument("--json", action="store_true",
                          help="emit the manifest as JSON")
    inspect_.set_defaults(func=_cmd_inspect)


def _add_serving_flags(parser, batch_default: int) -> None:
    """The serving surface shared by ``serve`` and ``watch``."""
    parser.add_argument(
        "model",
        help=f"model zoo name ({_zoo_names()}) "
             f"or a compiled .artifact file",
    )
    _add_arch_options(parser)
    parser.add_argument("--strategy", default="dp",
                        choices=("generic", "duplication", "dp"))
    parser.add_argument("--chips", type=int, default=1, metavar="N",
                        help="pipeline-shard the deployment across N "
                             "chips")
    parser.add_argument("--replicas", type=int, default=1, metavar="R",
                        help="serve through a fleet of R identical "
                             "replicas fed from one arrival stream "
                             "(default 1)")
    parser.add_argument("--policy", choices=("rr", "jsq"), default="rr",
                        help="fleet dispatch policy: round-robin or "
                             "join-shortest-queue (with --replicas > 1)")
    parser.add_argument("--batch", type=int, default=batch_default,
                        metavar="B",
                        help=f"number of inputs to submit (default "
                             f"{batch_default}; ignored with --trace, "
                             f"which sets it)")
    arrival = parser.add_mutually_exclusive_group()
    arrival.add_argument("--rate", type=float, default=None,
                         metavar="INF_S",
                         help="fixed-rate arrivals in inferences/second "
                              "(default: back-to-back)")
    arrival.add_argument("--interval", type=int, default=None,
                         metavar="CYC",
                         help="fixed arrival interval in cycles")
    arrival.add_argument("--poisson", type=float, default=None,
                         metavar="INF_S",
                         help="Poisson arrivals at a mean rate "
                              "(seeded by --arrival-seed)")
    arrival.add_argument("--trace", metavar="FILE", default=None,
                         help="recorded arrival trace: JSON array or "
                              "whitespace-separated release cycles")
    parser.add_argument("--arrival-seed", type=int, default=0,
                        help="seed for --poisson arrival draws")
    parser.add_argument("--faults", metavar="FILE", default=None,
                        help="JSON fault plan (repro.faults."
                             "save_fault_plan) to replay "
                             "deterministically against the fleet: "
                             "crashes, slowdowns, link degradation, "
                             "transient failures with retries/deadlines")
    parser.add_argument("--resident", action="store_true",
                        help="open a resident-weights session: weights "
                             "load once per shard on the first "
                             "submission, later inputs replay only "
                             "activation traffic (bit-identical "
                             "outputs; needs a full compilation, not a "
                             ".artifact)")
    parser.add_argument("--tier", choices=("cyclesim", "fast"),
                        default="cyclesim",
                        help="cyclesim = exact execution + bit-exact "
                             "validation; fast = analytical pricing of "
                             "the same schedule (paper-scale models)")
    parser.add_argument("--input-size", type=int, default=32,
                        help="input resolution (keep small on cyclesim)")
    parser.add_argument("--num-classes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the random input tensors")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip the golden-model output checks")


def _declare_serve(serve: argparse.ArgumentParser) -> None:
    _add_serving_flags(serve, batch_default=8)
    serve.add_argument("--json", metavar="FILE",
                       help="write the serving report as JSON")
    serve.set_defaults(func=_cmd_serve)


def _declare_watch(watch: argparse.ArgumentParser) -> None:
    _add_serving_flags(watch, batch_default=16)
    watch.add_argument("--snapshot", metavar="FILE", nargs="?", const="-",
                       default="-",
                       help="write the console tables as JSON to FILE "
                            "instead of stdout ('-' or no value = stdout, "
                            "the default)")
    watch.add_argument("--window", type=int, default=64, metavar="N",
                       help="rolling window (completions) for the "
                            "p50/p99 latency columns (default 64)")
    watch.set_defaults(func=_cmd_watch)


def _declare_sweep(sweep: argparse.ArgumentParser) -> None:
    from repro.explore_cache import default_cache_dir

    sweep.add_argument("--models", type=_split_csv, required=True,
                       metavar="M[,M...]")
    sweep.add_argument("--strategies", type=_split_csv, default=["dp"],
                       metavar="S[,S...]")
    sweep.add_argument("--mg-sizes", type=_int_list, default=None,
                       metavar="N[,N...]",
                       help="macro-group sizes to sweep (default: base arch)")
    sweep.add_argument("--flit-sizes", type=_int_list, default=None,
                       metavar="N[,N...]",
                       help="NoC flit widths to sweep (default: base arch)")
    sweep.add_argument("--input-sizes", type=_int_list, default=[224],
                       metavar="N[,N...]")
    sweep.add_argument("--chips", type=_int_list, default=[1],
                       metavar="N[,N...]",
                       help="chip counts to sweep (multi-chip pipeline "
                            "sharding; default: single chip)")
    sweep.add_argument("--batch", type=_int_list, default=[1],
                       metavar="B[,B...]",
                       help="streaming batch sizes to sweep (throughput "
                            "mode; default: single-shot latency)")
    sweep.add_argument("--arrival-rates", type=_rate_list, default=[None],
                       metavar="R[,R...]",
                       help="arrival rates (inferences/s) to sweep through "
                            "the serving queueing law; 'none' = "
                            "back-to-back (the default)")
    sweep.add_argument("--replicas", type=_int_list, default=[1],
                       metavar="R[,R...]",
                       help="fleet replica counts to sweep (round-robin "
                            "dispatch across R identical replicas; "
                            "default: single deployment)")
    sweep.add_argument("--fault-plans", type=_split_csv, default=["none"],
                       metavar="F[,F...]",
                       help="fault-plan JSON files to sweep as an "
                            "availability axis; 'none' = fault-free "
                            "serving (the default)")
    sweep.add_argument("--resident-modes", type=_bool_list, default=[False],
                       metavar="B[,B...]",
                       help="resident-weights modes to sweep "
                            "(e.g. 'false,true'): true prices a resident "
                            "serving session -- warm per-input replay after "
                            "a run-once weight-load phase (default: reload "
                            "per input)")
    sweep.add_argument("--num-classes", type=int, default=1000)
    sweep.add_argument("--closure-limit", type=_closure_limit, default=None,
                       metavar="N|model=N,...",
                       help="DP closure enumeration cap (int, 'none', or "
                            "per-model model=N pairs)")
    _add_arch_options(sweep)
    sweep.add_argument("--workers", type=int, default=1,
                       help="process-pool size (1 = serial)")
    sweep.add_argument("--cache-dir", metavar="DIR",
                       help=f"result cache location (default: {default_cache_dir()})")
    sweep.add_argument("--no-cache", action="store_true",
                       help="evaluate every point, bypassing the cache")
    sweep.add_argument("--no-resume", action="store_true",
                       help="ignore (and do not write) the sweep-level "
                            "resume manifest")
    sweep.add_argument("--spot-check", type=int, default=0, metavar="N",
                       help="re-run the best N points on the cycle-accurate "
                            "simulator to bound fast-model error")
    sweep.add_argument("--spot-input-size", type=int, default=32, metavar="PX",
                       help="input resolution for --spot-check re-runs "
                            "(default 32; keep small)")
    sweep.add_argument("--json", metavar="FILE",
                       help="write full results (readable by 'report')")
    sweep.add_argument("--csv", metavar="FILE", help="write results as CSV")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")
    sweep.set_defaults(func=_cmd_sweep)


def _declare_compare(compare: argparse.ArgumentParser) -> None:
    compare.add_argument("--models", type=_split_csv, required=True,
                         metavar="M[,M...]")
    compare.add_argument("--strategies", type=_split_csv,
                         default=["generic", "duplication", "dp"],
                         metavar="S[,S...]",
                         help="first strategy is the normalization baseline")
    compare.add_argument("--input-size", type=int, default=224)
    compare.add_argument("--num-classes", type=int, default=1000)
    _add_arch_options(compare)
    compare.add_argument("--workers", type=int, default=1)
    compare.add_argument("--cache-dir", metavar="DIR")
    compare.add_argument("--no-cache", action="store_true")
    compare.add_argument("--json", metavar="FILE")
    compare.set_defaults(func=_cmd_compare)


def _declare_report(report: argparse.ArgumentParser) -> None:
    report.add_argument("results", help="JSON file written by 'sweep --json'")
    report.add_argument("--best", default="tops",
                        choices=_BEST_METRICS,
                        help="metric for the ranked summary")
    report.add_argument("--top", type=int, default=5,
                        help="how many top points to list")
    report.add_argument("--pareto", action="store_true",
                        help="list the energy/throughput Pareto front "
                             "(non-dominated energy_mj vs tops points)")
    report.add_argument("--csv", metavar="FILE", help="convert points to CSV")
    report.set_defaults(func=_cmd_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "CIMFlow reproduction: compile, simulate and explore DNN "
            "workloads on digital CIM architectures."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_VerbParser
    )
    sub.add_parser(
        "run",
        help="compile + cycle-accurately simulate one model (Fig. 2 workflow)",
        declare=_declare_run,
    )
    sub.add_parser(
        "compile",
        help="compile once and write a content-addressed .artifact file",
        declare=_declare_compile,
    )
    sub.add_parser(
        "inspect",
        help="print the manifest of a compiled .artifact file",
        declare=_declare_inspect,
    )
    sub.add_parser(
        "serve",
        help="deploy one model and stream inputs through it under an "
             "arrival process (latency percentiles, utilisation)",
        declare=_declare_serve,
    )
    sub.add_parser(
        "watch",
        help="serve a scripted arrival stream through the async runtime "
             "and print the operator tables as JSON (--snapshot FILE "
             "writes them to a file)",
        declare=_declare_watch,
    )
    sub.add_parser(
        "sweep",
        help="fast-model design-space sweep (parallel, cached)",
        declare=_declare_sweep,
    )
    sub.add_parser(
        "compare",
        help="normalized strategy comparison (Fig. 5)",
        declare=_declare_compare,
    )
    sub.add_parser(
        "report",
        help="re-render or convert a saved 'sweep --json' results file",
        declare=_declare_report,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # Every typed framework error (and plain file-system failure on
        # user-supplied paths) exits nonzero with a one-line message --
        # a raw traceback from a CLI verb is always a bug.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
