"""The import law: a CLI verb loads only the layers it executes.

One table, one subprocess per row: the child runs ``repro.cli.main(argv)``
on tiny_resnet ``--preset small`` and prints ``sorted(sys.modules)``; the
row names module prefixes that must be *absent*.  Set membership repeats
exactly, unlike a start-up time budget.  ``docs/ARCHITECTURE.md``
("Import layering") has the verb -> layers table these rows pin and the
three rules that keep it true.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBE = """
import json, sys
import repro
argv = json.loads(sys.argv[1])
code = 0
if argv is not None:
    from repro.cli import main
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits after printing --help
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

MODEL = ("--preset", "small", "--input-size", "8", "--num-classes", "10")
SWEEP = (
    "sweep", "--models", "tiny_resnet", "--strategies", "generic,dp",
    "--preset", "small", "--input-sizes", "8", "--num-classes", "10",
    "--batch", "1,4", "--quiet",
)
#: A cold sweep over the serving axes: rate, fleet and resident points
#: are priced by the fast model's closed-form continuation.
SERVING_SWEEP = (
    "sweep", "--models", "tiny_resnet", "--strategies", "generic,dp",
    "--preset", "small", "--input-sizes", "8", "--num-classes", "10",
    "--arrival-rates", "none,500000", "--replicas", "1,2",
    "--resident-modes", "false,true", "--quiet",
)

#: Verbs that touch no model: no numpy, compiler, graph IR, serving
#: stack, simulator tier, event loop or process pool.
LIGHT = (
    "numpy", "repro.compiler", "repro.graph", "repro.faults", "repro.serve",
    "repro.runtime", "repro.sim.chip", "repro.sim.core",
    "repro.sim.blockengine", "repro.sim.fastmodel", "asyncio",
    "multiprocessing",
)
#: Fast-tier verbs plan and price but never generate or execute code.
NO_CYCLE_TIER = (
    "repro.sim.chip", "repro.sim.core", "repro.sim.blockengine",
    "repro.sim.memory", "repro.sim.noc", "repro.isa",
    "repro.compiler.codegen", "repro.artifact", "repro.console", "asyncio",
)
#: Planning reads shapes: a cold sweep point draws no weight and loads
#: no array library.
PLANS_FROM_SHAPES = ("numpy",) + NO_CYCLE_TIER
#: ... and its serving continuation needs arrivals and percentiles, not
#: the serving stack.
PRICES_SERVING_FROM_SHAPES = ("repro.serve",) + PLANS_FROM_SHAPES
#: The cycle tier needs nearly every layer -- but not the sweep engine,
#: the async runtime or a process pool.
NO_SWEEP_NO_RUNTIME = (
    "repro.explore", "repro.explore_cache", "repro.runtime", "repro.console",
    "asyncio", "multiprocessing",
)

#: row -> (argv with {json} / {cache} substituted, absent prefixes)
ROWS = {
    "help": (("--help",), LIGHT),
    "sweep_cold": (
        SWEEP + ("--cache-dir", "{cache}", "--json", "{json}"),
        PLANS_FROM_SHAPES,
    ),
    "sweep_warm": (
        SWEEP + ("--cache-dir", "{cache}", "--json", "{warm_json}"), LIGHT,
    ),
    "sweep_serving_cold": (
        SERVING_SWEEP + ("--no-cache",), PRICES_SERVING_FROM_SHAPES,
    ),
    "report": (("report", "{json}", "--pareto"), LIGHT),
    "compare": (
        (
            "compare", "--models", "tiny_resnet", "--preset", "small",
            "--input-size", "8", "--num-classes", "10", "--no-cache",
        ),
        PLANS_FROM_SHAPES,
    ),
    "serve_fast": (
        ("serve", "tiny_resnet") + MODEL + (
            "--tier", "fast", "--chips", "2", "--replicas", "2",
            "--batch", "16", "--poisson", "1000000",
        ),
        NO_CYCLE_TIER,
    ),
    "run": (("run", "tiny_resnet") + MODEL, NO_SWEEP_NO_RUNTIME),
}


def _child(script, *args):
    """The last stdout line of ``script`` run in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc


def _modules(argv):
    result, proc = _child(_PROBE, json.dumps(argv))
    assert result["code"] == 0, proc.stdout + proc.stderr
    return result["modules"]


def _loaded(modules, prefixes):
    return [
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


def test_bare_import_loads_config_errors_and_utils_only():
    modules = _modules(None)
    assert _loaded(modules, ("numpy",)) == []
    assert [
        name for name in modules
        if name.startswith("repro.")
        and name.split(".")[1] not in ("errors", "config", "utils")
    ] == []


@pytest.fixture(scope="module")
def cold_sweep(tmp_path_factory):
    """The ``sweep_cold`` row, run once: the warm sweep and ``report``
    rows read the cache and the result file it wrote."""
    root = tmp_path_factory.mktemp("import_layers")
    paths = {
        "cache": str(root / "cache"),
        "json": str(root / "cold.json"),
        "warm_json": str(root / "warm.json"),
    }
    argv, _ = ROWS["sweep_cold"]
    return paths, _modules([arg.format(**paths) for arg in argv])


@functools.lru_cache(maxsize=None)
def serving_sweep_modules():
    """The ``sweep_serving_cold`` row's modules, run once per session:
    ``tests/test_laws.py`` reads every source file on the same list."""
    argv, _ = ROWS["sweep_serving_cold"]
    return tuple(_modules(list(argv)))


def _sweep_stats(path):
    return json.loads(Path(path).read_text())["stats"]


@pytest.mark.parametrize("row", ROWS)
def test_verb_loads_only_its_layers(row, cold_sweep):
    paths, cold_modules = cold_sweep
    argv, absent = ROWS[row]
    if row == "sweep_cold":
        modules = cold_modules
        assert _sweep_stats(paths["json"])["cache_hits"] == 0
    elif row == "sweep_serving_cold":
        modules = serving_sweep_modules()
    else:
        modules = _modules([arg.format(**paths) for arg in argv])
    assert _loaded(modules, absent) == []
    if row == "sweep_warm":
        stats = _sweep_stats(paths["warm_json"])
        assert stats["cache_hits"] == stats["total_points"] > 0


_API_PROBE = """
import json, sys
from repro.config import default_arch
from repro.explore import evaluate_fast
point = evaluate_fast("vgg19", default_arch(), "generic", input_size=224)
print(json.dumps({"cycles": point.cycles, "modules": sorted(sys.modules)}))
"""


def test_fast_tier_api_prices_a_paper_scale_model_without_numpy():
    """vgg19@224 has 144 M parameters; pricing it draws none of them."""
    result, _ = _child(_API_PROBE)
    assert result["cycles"] == 4_593_555
    assert _loaded(result["modules"], PLANS_FROM_SHAPES) == []
