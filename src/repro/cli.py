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
  latency, per-replica utilisation, conservation and sustained
  throughput (one ``--json`` key set at every replica count);
  ``--tier fast`` prices the same schedule analytically;
  ``--replicas R`` round-robins (or ``--policy jsq`` queue-balances)
  the stream across R replicas of the deployment; ``--faults PLAN``
  replays a deterministic fault plan (:mod:`repro.faults`) against the
  fleet, reporting drops and retries;
- ``watch``   -- serve a scripted arrival stream (the ``serve`` flags)
  request by request through the async runtime (:mod:`repro.runtime`)
  and print the operator tables -- per-shard utilisation, replica
  health, queue depth, rolling p50/p99 -- as JSON (``--snapshot FILE``
  writes them to a file);
- ``sweep``   -- evaluate a cross-product design space with the fast
  analytical model, in parallel and through the on-disk result cache
  (one flag per sweep axis; an interrupted sweep resumes
  mid-cross-product via the sweep manifest);
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
from contextlib import nullcontext
from dataclasses import MISSING
from functools import lru_cache
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.config import default_arch, load_arch, small_test_arch
from repro.errors import ConfigError, ReproError

# Every other layer is imported by the command that runs it, so a verb
# pays only for what it executes (docs/ARCHITECTURE.md, "Import
# layering"; tests/test_import_layers.py holds each verb to it).
if TYPE_CHECKING:
    from repro.explore_cache import ResultCache

_PRESETS = {"default": default_arch, "small": small_test_arch}


# ---------------------------------------------------------------------------
# Small argument helpers
# ---------------------------------------------------------------------------

def _split_csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _list_of(parse, expected: str):
    """A comma-separated flag value, each item read by ``parse``."""

    def parse_list(value: str) -> List[Any]:
        out = []
        for item in _split_csv(value):
            try:
                out.append(parse(item))
            except (KeyError, ValueError):
                raise argparse.ArgumentTypeError(
                    f"expected comma-separated {expected}, got {item!r}"
                ) from None
        return out

    return parse_list


def _or_none(parse):
    """``parse``, reading ``none`` as ``None``."""
    return lambda item: None if item.strip().lower() == "none" else parse(item)


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}
_int_list = _list_of(int, "integers")
_rate_list = _list_of(_or_none(float), "rates (inf/s) or 'none'")
_bool_list = _list_of(lambda item: _BOOLS[item.lower()], "booleans")


def _closure_limit(value: str):
    """``64`` | ``none`` | ``model=64,other=none`` -> engine form."""
    limit = _or_none(int)
    items = _split_csv(value)
    if len(items) == 1 and "=" not in items[0]:
        return limit(items[0])
    limits: Dict[str, Optional[int]] = {}
    for item in items:
        model, pair, text = item.partition("=")
        if not pair:
            raise argparse.ArgumentTypeError(
                f"expected model=limit pairs, got {item!r}"
            )
        limits[model.strip()] = limit(text)
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

class _Column(NamedTuple):
    """One column of a sweep result row: its value in a row written
    before it existed (``MISSING``: none, such a row is malformed) and,
    if the table shows it, its band, header, width and format spec, or
    the word a true ``flag`` shows as."""

    name: str
    default: Any = MISSING
    band: Optional[int] = None
    label: str = ""
    width: int = 0
    fmt: str = "d"
    align: str = ">"
    flag: str = ""


#: The table's bands, left to right, each in CSV order: the column
#: whose value off its default in some row shows the band (``None``:
#: always shown).
_BANDS = (None, "fault_plan", "resident_weights", "tier", None)

#: What a shown cell must hold, by the type letter of its format spec.
_CELL_TYPES = {"d": (int, "an integer"), "f": ((int, float), "a number"),
               "s": (str, "a string")}


@lru_cache(maxsize=None)
def _columns() -> Tuple[_Column, ...]:
    """The column table, in CSV order, read by the CSV writer, the
    table and ``report``'s row check.  A coordinate added after the
    first results format defaults to its axis's value (a row without
    ``num_classes`` does not say: an empty cell)."""
    from repro.explore import AXES

    axis = {a.name: a.default for a in AXES}
    C = _Column
    return (
        C("model", MISSING, 0, "model", 16, "s", align="<"),
        C("strategy", MISSING, 0, "strat", 7, "s"),
        C("input_size", MISSING, 0, "in", 5),
        C("num_classes", None),
        C("chips", axis["chips"], 0, "chips", 6),
        C("batch", axis["batch"], 0, "B", 4),
        C("arrival_rate", axis["arrival_rate"], 0, "rate/s", 9, ",.0f"),
        C("replicas", axis["replicas"], 0, "R", 3),
        C("fault_plan", axis["fault_plan"]),
        C("resident_weights", axis["resident_weights"], 2, "res", 5, "s",
          flag="yes"),
        C("tier", axis["tier"], 3, "tier", 10, "s"),
        C("load_cycles", 0, 2, "load cyc", 10, ",d"),
        C("mg_size", MISSING, 0, "MG", 4),
        C("flit_bytes", MISSING, 0, "flit", 6),
        C("cycles", MISSING, 0, "cycles", 12, ",d"),
        C("time_ms", MISSING, 0, "ms", 9, ".2f"),
        C("energy_mj", MISSING, 0, "E mJ", 9, ".2f"),
        C("tops", MISSING, 0, "TOPS", 8, ".2f"),
        C("throughput_inf_s", None, 0, "inf/s", 11, ",.0f"),
        C("energy_per_inf_mj", None, 0, "mJ/inf", 9, ".2f"),
        C("p50_latency_ms", None), C("p95_latency_ms", None),
        C("p99_latency_ms", None, 0, "p99 ms", 9, ".3f"),
        C("dropped", 0, 1, "drop", 6),
        C("retries", 0, 1, "retry", 7),
        C("goodput_inf_s", None, 1, "good/s", 11, ",.0f"),
        C("cached", None, 4, "cache", 7, "s", flag="hit"),
    )


def _format_table(rows: Sequence[Dict[str, Any]]) -> str:
    default = {col.name: col.default for col in _columns()}
    shown_bands = [
        when is None
        or any(row.get(when, default[when]) != default[when] for row in rows)
        for when in _BANDS
    ]
    shown = sorted(
        (col for col in _columns()
         if col.band is not None and shown_bands[col.band]),
        key=attrgetter("band"),
    )
    # Format specs are built once per table, not once per cell.
    header = "".join(
        format(col.label, f"{col.align}{col.width}s") for col in shown
    )
    cells = [
        (col.name, col.default, f"{col.align}{col.width}{col.fmt}",
         format("-", f">{col.width}s"),
         (None, col.flag) if col.flag else None)
        for col in shown
    ]
    lines = [header, "-" * len(header)]
    for row in rows:
        get = row.get
        lines.append("".join([
            dash if (value := get(name, default) if flag is None
                     else flag[bool(get(name))]) is None
            else format(value, spec)
            for name, default, spec, dash, flag in cells
        ]))
    return "\n".join(lines)


def _write_csv(rows: Sequence[Dict[str, Any]], path: str) -> None:
    import csv

    blank = {
        col.name: "" if col.default is MISSING else col.default
        for col in _columns()
    }
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(blank), extrasaction="ignore")
        writer.writeheader()
        writer.writerows({**blank, **row} for row in rows)


def _write_json(payload: Any, path: Optional[str] = None) -> None:
    """Write ``payload`` as one JSON document to ``path`` (stdout if
    ``None``), streamed entry by entry.

    Each entry of the top-level container, and of every container
    directly under it, sits on its own line indented by two spaces; any
    value below that is one ``json.dumps`` line, so a sweep point or a
    serving report's per-request list is one line.  ``indent=`` is
    avoided on purpose: CPython runs an indented dump on its pure-Python
    encoder (the C encoder only takes ``indent=None``), about 2.5x this
    writer's time on a 600-point, 1 MB sweep file, and it builds the
    whole document as one string before anything is written.  The
    parsed document is ``json.loads(json.dumps(payload))``, key order
    and key coercion included; ``python -m json.tool FILE``
    pretty-prints a file.
    """
    def emit(value, depth):
        if (depth > 1 or not isinstance(value, (dict, list, tuple))
                or not value):
            write(json.dumps(value))
            return
        pad = "\n" + "  " * (depth + 1)
        if isinstance(value, dict):
            # a one-entry dump writes the key as json.dumps coerces it
            entries = [(json.dumps({key: 0})[1:-4] + ": ", item)
                       for key, item in value.items()]
            brackets = "{}"
        else:
            entries, brackets = [("", item) for item in value], "[]"
        write(brackets[0])
        for index, (key, item) in enumerate(entries):
            write(("," if index else "") + pad + key)
            emit(item, depth + 1)
        write(pad[:-2] + brackets[1])

    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        write = fh.write
        emit(payload, 0)
        write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _build_server(args, tier=None):
    """The server a run/serve/watch command line describes.

    ``run`` passes its one ``tier`` and gets a one-replica
    :class:`~repro.serve.Deployment`; ``serve`` / ``watch`` read
    ``--tier`` / ``--resident`` / ``--replicas`` / ``--policy``.  An
    artifact carries its own graph, sharding and programs, so it takes
    no compile keywords; the session arch is cross-checked against its
    fingerprint.
    """
    from repro.serve import Deployment, _is_artifact_path

    kwargs = {}
    if not _is_artifact_path(args.model):
        kwargs.update(
            chips=args.chips, strategy=args.strategy,
            input_size=args.input_size, num_classes=args.num_classes,
        )
    arch = _resolve_arch(args)
    if tier is not None:
        return Deployment(args.model, arch, tier=tier, **kwargs)
    return Deployment(
        args.model, arch, replicas=args.replicas, policy=args.policy,
        tier=args.tier, resident_weights=args.resident, **kwargs,
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
    deployment = _build_server(args, tier="cyclesim")
    validate = not args.no_validate
    served = deployment.submit(
        batch=args.batch, seed=args.seed, validate=validate
    ).replica_reports[0]
    report = served.stream_report
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
                "validated": served.validated,
                "report": report.to_dict(),
            },
            args.json,
        )
        print(f"\nwrote {args.json}")
    return 0


def _cmd_compile(args) -> int:
    from repro.artifact import inspect_artifact, save_artifact
    from repro.compiler.pipeline import compile_model

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
        _write_json(info)
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
    server = _build_server(args)
    print(server.summary())
    if plan is not None:
        print(f"  faults: {plan.describe()} [{plan.fingerprint()}]")
    print()
    if batch == 0:
        report = server.run_trace([], faults=plan)
    else:
        report = server.submit(
            batch=batch, arrivals=arrivals, seed=args.seed,
            validate=not args.no_validate, faults=plan,
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


def _watch_arrivals(args):
    """(arrivals, batch) from watch-style arrival flags."""
    from repro.arrivals import (
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
    server = _build_server(args)
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


def _progress_printer(quiet: bool, spec):
    """Label each point with the coordinates its sweep varies."""
    if quiet:
        return None
    from repro.explore import AXES

    varied = [
        axis.name for axis in AXES if axis.metadata["plural"]
        and len(getattr(spec, axis.metadata["plural"]) or ()) > 1
    ] or ["model"]

    def progress(done, total, point):
        tag = "cache hit" if point.cached else "evaluated"
        coords = point.coordinates("describe")
        label = " ".join(f"{name}={coords[name]}" for name in varied)
        print(
            f"[{done:>3d}/{total}] {label}  TOPS={point.tops:6.2f}  ({tag})",
            flush=True,
        )

    return progress


def _fault_plans(entries: List[str]):
    """``plan.json`` / ``none`` entries -> FaultPlan axis tuple."""
    if all(entry.lower() == "none" for entry in entries):
        return (None,) * len(entries)  # the default axis: no repro.faults
    from repro.faults import load_fault_plan

    return tuple(map(_or_none(load_fault_plan), entries))


def _sweep_spec(args):
    """The :class:`SweepSpec` the flags describe, axis by axis: a flag's
    dest is the axis's plural, or its name (``--chips``, ``--batch``)."""
    from repro.explore import AXES, SweepSpec

    fields: Dict[str, Any] = {}
    for axis in AXES:
        field = axis.metadata["plural"] or axis.name
        value = getattr(args, field if hasattr(args, field) else axis.name)
        if field == "fault_plans":
            value = _fault_plans(value)
        if axis.metadata["plural"]:
            value = tuple(value) if value else None
        fields[field] = value
    return SweepSpec(base_arch=_resolve_arch(args), **fields)


def _cmd_sweep(args) -> int:
    from repro.explore import run_sweep

    _check_workers(args)
    spec = _sweep_spec(args)
    cache = _build_cache(args)
    result = run_sweep(
        spec,
        workers=args.workers,
        cache=cache,
        progress=_progress_printer(args.quiet, spec),
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
    if args.json:
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


def _read_results(path: str) -> Dict[str, Any]:
    """A ``sweep --json`` payload, shape-checked where it is read: each
    row has the required columns, each shown cell its format's type."""
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
    shown = [
        (col, *_CELL_TYPES[col.fmt[-1]]) for col in _columns()
        if col.band is not None and not col.flag
    ]
    for index, row in enumerate(rows):
        for col, types, kind in shown:
            value = row.get(col.name, col.default)
            if value is MISSING:
                raise ValueError(f"row {index} has no {col.name!r}")
            if value is not col.default and (
                    isinstance(value, bool) or not isinstance(value, types)):
                raise ValueError(
                    f"row {index}: {col.name!r} must be {kind}, "
                    f"got {value!r}"
                )
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
    elif any(row.get(args.best) is None for row in rows):
        print(
            f"error: results file predates the {args.best!r} column; "
            f"re-run the sweep to rank by it",
            file=sys.stderr,
        )
        return 2
    else:
        from repro.explore import PARETO, pareto_filter, rank

        ranked = rank(rows, args.best, itemgetter)
        print(f"\ntop {min(args.top, len(ranked))} by {args.best}:")
        print(_format_table(ranked[: args.top]))
        if args.pareto:
            front = pareto_filter(rows, itemgetter(*PARETO))
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
    sweep.add_argument("--tiers", type=_split_csv, default=["fast"],
                       metavar="T[,T...]",
                       help="tiers that price each point: fast = the "
                            "analytical model (the default); cyclesim = "
                            "exact execution of one input, validated "
                            "bit-exactly, continued by the same serving "
                            "law ('fast,cyclesim' pairs the rows)")
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
    from repro.explore import RANKINGS

    report.add_argument("results", help="JSON file written by 'sweep --json'")
    report.add_argument("--best", default="tops", choices=tuple(RANKINGS),
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
