"""System laws as tests: each one a structural check that fails on a
violation, run with the rest of tier-1.

Hold each simulated byte once.  A chip simulator owns its global
activation window and borrows the compiled image's parameter segment
read-only (``sim/memory.py``); nothing writes the parameters, whichever
engine path issues the write; and a macro-group register borrows the
parameter bytes it was loaded from, aliasing neither the activation
window nor a scratchpad.

Serve through one kernel, once.  The admission recurrence is spelled
out in ``sim/multichip.py`` alone; ``PipelineState.admit`` is called
from there alone (the one fleet step, faulted or not), and neither
``serve.py`` nor ``runtime.py`` folds a second admission path; a live
request is admitted in place, with no scheduler task and no dataclass
record.

Plan from shapes.  No module a cold sweep imports -- serving axes
included -- imports NumPy when it is itself imported (parameters are
drawn on first read, and the serving continuation reads the NumPy-free
``repro.arrivals``); and the duplication greedy prices the one trial
that can win, with no set of ``blocked`` trials known to fail before
they are priced.

Say it once, and use it.  Every definition under ``src/repro`` is named
somewhere besides its own ``def`` line, or is public API; every built-in
opcode is rendered from one definition; an instruction is made at one
intern site; and what a process-cold ``repro run`` prints does not
depend on the engine.
"""

import ast
import dataclasses
import gc
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.config import small_test_arch
from repro.config.arch import GLOBAL_BASE
from repro.errors import SimulationError
from repro.isa import ProgramBuilder
from repro.sim import ChipSimulator
from repro.sim import blockengine as be
from repro.sim.functional import random_input

#: Bytes a chip may allocate beyond its scratchpads and activation window
#: (cores, register files, NoC and ledger state).
_EPSILON = 256 * 1024


def test_chip_allocates_its_activation_window_not_its_parameters(resnet18_32):
    compiled = resnet18_32
    ChipSimulator.from_compiled(compiled)  # decode + block programs, once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = ChipSimulator.from_compiled(compiled)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    mem = sim.memory
    scratchpads = sum(local.nbytes for local in mem.locals)
    assert mem.activation_bytes == compiled.activation_bytes()
    assert mem.parameters.nbytes > 8 * _EPSILON  # the law has teeth
    assert grown - scratchpads <= mem.activation_bytes + _EPSILON
    assert np.shares_memory(mem.parameters, compiled.global_image)
    assert not mem.parameters.flags.writeable


def test_registers_borrow_the_parameters(resnet18_32, monkeypatch):
    """Every ``CIM_LOAD`` of a compiled model borrows its register from
    the parameter segment: a read-only view of exactly its rows x cols
    bytes, aliasing neither the activation window nor any scratchpad."""
    compiled = resnet18_32
    borrow = be._EXEC_GLOBALS["_cr"]
    loads = []

    def spy(core, addr, rows, cols):
        register = borrow(core, addr, rows, cols)
        loads.append((register, rows, cols))
        return register

    monkeypatch.setitem(be._EXEC_GLOBALS, "_cr", spy)
    sim = ChipSimulator.from_compiled(compiled)
    sim.memory.write_global(
        compiled.input_address(), random_input(compiled.graph, seed=0)
    )
    sim.run()
    mem = sim.memory
    kept = [entry for core in sim.cores for entry in core.mgs
            if entry is not None]
    assert loads and kept
    assert sum(register.nbytes for register, _, _ in loads) == (
        sim.acct.cim_load_bytes
    )
    for register, rows, cols in loads + kept:
        assert np.shares_memory(register, mem.parameters)
        assert not register.flags.writeable
        assert register.nbytes == rows * cols
        assert not np.shares_memory(register, mem.activations)
        assert not any(np.shares_memory(register, local)
                       for local in mem.locals)


_SPLIT = 512


def _parameter_write(mnemonic: str, looped: bool):
    """A core-0 program writing 8 bytes (or a word) into the parameter
    segment, straight-line or from inside a counted loop."""
    b = ProgramBuilder()
    b.li(4, GLOBAL_BASE + _SPLIT + 64)
    b.li(5, 0)
    b.li(3, 8)

    def body():
        if mnemonic == "MEM_CPY":
            b.emit("MEM_CPY", rs=5, rt=4, rd=3)
        else:
            b.emit("MEM_ST", rs=4, rt=3, offset=0)
        b.emit("SC_ADDI", rs=4, rt=4, imm=8)

    if looped:
        b.li(1, 0)
        b.li(2, 6)
        with b.loop(1, 2):
            body()
    else:
        body()
    b.halt()
    return {0: b.finalize()}


@pytest.mark.parametrize("mnemonic", ["MEM_CPY", "MEM_ST"])
@pytest.mark.parametrize("path", ["interpreter", "block", "loop"])
def test_parameter_segment_is_read_only(path, mnemonic):
    """A simulated write into the parameter segment raises on every
    engine path instead of corrupting the weights later inputs read."""
    be._BP_CACHE.clear()
    be.reset_stats()
    image = np.arange(1024, dtype=np.int64).astype(np.uint8)
    pristine = image.copy()
    sim = ChipSimulator(
        small_test_arch(),
        _parameter_write(mnemonic, looped=path == "loop"),
        global_image=image,
        activation_bytes=_SPLIT,
        engine="interp" if path == "interpreter" else "block",
    )
    try:
        with pytest.raises(SimulationError, match="read-only parameter"):
            sim.run()
        stats = dict(be.ENGINE_STATS)
    finally:
        be._BP_CACHE.clear()
    assert np.array_equal(image, pristine)
    assert (stats["loop_entries"] > 0) == (path == "loop")


# ---------------------------------------------------------------------------
# Plan from shapes
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def _import_time_numpy(source: str):
    """Line numbers of the ``numpy`` imports a module runs when it is
    imported: its top level and class bodies, through ``if`` / ``try`` /
    ``with`` blocks -- not function bodies, not ``if TYPE_CHECKING:``."""
    lines = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def _source(module: str) -> Path:
    """The source file of a ``repro`` module or package."""
    path = SRC.joinpath(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def test_no_module_a_cold_sweep_imports_imports_numpy():
    # The module list is the one the import law's ``sweep_serving_cold``
    # row records (one child process per session for both tests).
    from test_import_layers import serving_sweep_modules

    modules = [
        name for name in serving_sweep_modules()
        if name.split(".")[0] == "repro"
    ]
    # The law has teeth: the planner, the fast model and the serving
    # continuation are all on the path.
    assert {
        "repro.compiler.mapping", "repro.sim.fastmodel", "repro.arrivals",
        "repro.faults", "repro.sim.multichip",
    } <= set(modules)
    offenders = {
        name: lines for name in modules
        if (lines := _import_time_numpy(_source(name).read_text()))
    }
    assert offenders == {}


def test_duplication_greedy_keeps_no_blocked_set():
    source = (SRC / "repro" / "compiler" / "mapping.py").read_text()
    assert "blocked" not in source


@pytest.mark.parametrize("source, lines", [
    ("import numpy as np\n", [1]),
    ("from numpy.random import default_rng\n", [1]),
    ("import os\ntry:\n    import numpy\nexcept ImportError:\n    pass\n",
     [3]),
    ("class Table:\n    import numpy\n", [2]),
    ("def draw():\n    import numpy as np\n", []),
    ("if TYPE_CHECKING:\n    import numpy as np\n", []),
    ("from .numpy import helper\n", []),
])
def test_import_time_numpy_check_sees_a_violation(source, lines):
    assert _import_time_numpy(source) == lines


# ---------------------------------------------------------------------------
# Serve through one kernel, once
# ---------------------------------------------------------------------------

REPRO = SRC / "repro"


def _grep(root: Path, pattern: str, *names: str, suffixes=(), flags=0):
    """``grep -rn``: the ``(path, line)`` of every line matching
    ``pattern`` in the files and trees ``names`` under ``root`` (the
    whole of ``root`` if none), paths relative to ``root``; ``suffixes``
    is ``--include`` (byte-compiled caches are copies, not sources)."""
    regex = re.compile(pattern, flags)
    anywhere = re.compile(pattern, flags | re.M)
    found = []
    for name in names or ("",):
        top = root / name
        for path in sorted(top.rglob("*")) if top.is_dir() else [top]:
            if (not path.is_file() or "__pycache__" in path.parts
                    or suffixes and path.suffix not in suffixes):
                continue
            text = path.read_text(errors="replace")
            if anywhere.search(text):  # most files: one scan, no split
                rel = path.relative_to(root).as_posix()
                found += [(rel, line) for line in text.splitlines()
                          if regex.search(line)]
    return found


def _files_with(root: Path, pattern: str, names=()):
    """``grep -rlE``: the files :func:`_grep` finds, sorted."""
    return sorted({path for path, _ in _grep(root, pattern, *names)})


def _kernel_files(root: Path):
    """Where the admission recurrence (its ``prev_finish``) is written."""
    return _files_with(root, r"prev_finish")


def _admitting_files(root: Path):
    """Files that call ``.admit(``: as text, the way a grep reads them,
    or as an AST call site, whatever the spacing."""
    found = set(_files_with(root, r"\.admit\("))
    for name in _files_with(root, r"\badmit\b"):  # what could call it
        if name.endswith(".py") and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "admit"
            for node in ast.walk(ast.parse((root / name).read_text()))
        ):
            found.add(name)
    return sorted(found)


def _second_admission_paths(root: Path):
    """A serving module that folds the kernel a second time."""
    return _files_with(
        root, r"streaming_schedule|def _dispatch|def _admit_unfaulted",
        ["serve.py", "runtime.py"],
    )


def _scheduler_hops(root: Path):
    """A task or scheduler between a live request and its admission."""
    return _files_with(root, r"create_task|_scheduler", ["runtime.py"])


def _request_records():
    """The six records a request builds."""
    from repro import runtime
    from repro.sim import multichip

    return [
        runtime.RequestAdmitted, runtime.RequestCompleted,
        runtime.RequestDropped, runtime.ReplicaStateChanged,
        runtime.RequestCompletion, multichip.AttemptRecord,
    ]


def _dataclass_records(records):
    return [r.__name__ for r in records if dataclasses.is_dataclass(r)]


def test_one_admission_kernel():
    assert _kernel_files(REPRO) == ["sim/multichip.py"]


def test_admit_once():
    assert _admitting_files(REPRO) == ["sim/multichip.py"]
    assert _second_admission_paths(REPRO) == []


def test_a_request_costs_its_admission():
    assert _scheduler_hops(REPRO) == []
    assert _dataclass_records(_request_records()) == []


def _tree(root: Path, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_one_admission_kernel_sees_a_violation(tmp_path):
    root = _tree(tmp_path, {
        "sim/multichip.py": "prev_finish = [0]\n",
        "serve.py": "# a second copy\nprev_finish = [0]\n",
        "__pycache__/serve.pyc": "prev_finish",
    })
    assert _kernel_files(root) == ["serve.py", "sim/multichip.py"]


def test_admit_once_sees_a_violation(tmp_path):
    root = _tree(tmp_path, {
        "faults.py": "state.admit(release)\n",
        "sim/multichip.py": "state.admit(release)\n",
        "console.py": "state . admit (release)\n",
        "serve.py": "from repro.sim.multichip import streaming_schedule\n",
        "runtime.py": "def _dispatch(self):\n    pass\n",
    })
    # faults.py builds the step's constructor data; calling the kernel
    # there is a second admission path, like console.py's.
    assert _admitting_files(root) == [
        "console.py", "faults.py", "sim/multichip.py",
    ]
    assert _second_admission_paths(root) == ["runtime.py", "serve.py"]


def test_a_request_costs_its_admission_sees_a_violation(tmp_path):
    root = _tree(tmp_path, {
        "runtime.py": "asyncio.get_running_loop().create_task(work())\n",
    })
    assert _scheduler_hops(root) == ["runtime.py"]

    @dataclasses.dataclass(frozen=True)
    class RequestAdmitted:
        request: int

    assert _dataclass_records(
        [RequestAdmitted, *_request_records()[1:]]
    ) == ["RequestAdmitted"]


# ---------------------------------------------------------------------------
# Grep laws: each a set of clauses over the source tree
# ---------------------------------------------------------------------------

REPO = SRC.parent


def _only(actual, expected, clause: str):
    """No violation when ``actual == expected``, else the clause."""
    return [] if actual == expected else [f"{clause}: {actual!r}"]


def _none(found, clause: str):
    return _only(found, [], clause)


def _paths(found):
    return [path for path, _ in found]


def _sed(text: str, start: str, end: str):
    """The lines ``sed -n '/start/,/end/p'`` prints: from each line
    matching ``start`` through the next line after it matching ``end``."""
    lines, inside = [], False
    for line in text.splitlines():
        if inside or re.search(start, line):
            lines.append(line)
            inside = not (inside and re.search(end, line))
    return lines


def _read(root: Path, name: str) -> str:
    return (root / name).read_text()


def _one_integer_gemm(root: Path):
    """Every matrix product of the simulator and the golden model is
    ``graph/quantize.int_matmul`` (exact float32 BLAS): no int32-cast
    operand of ``@`` and no einsum comes back; the one einsum left is
    ``functional._dwconv``'s, which is not a matrix product."""
    sim = "src/repro/sim"
    return (
        _none(_grep(root, r"astype\(np\.int32\) @|@ .*astype\(np\.int32\)",
                    sim), "int32 matmul")
        + _only(_paths(_grep(root, r"np.einsum\(", sim)),
                [f"{sim}/functional.py"], "einsum")
        + _only(_files_with(root, r"np\.(matmul|dot|tensordot)\(",
                            ["src/repro"]),
                ["src/repro/graph/quantize.py"], "BLAS entry points")
    )


def _one_golden_pass_per_group(root: Path):
    """A served batch is checked by ``functional.golden_batch`` in
    byte-bounded groups, so ``Deployment._validate`` never runs the
    golden model per input; the golden model keeps one conv and one
    GEMM kernel (batch-major: a single input is a batch of one)."""
    functional = _read(root, "src/repro/sim/functional.py")
    validate = _sed(_read(root, "src/repro/serve.py"),
                    r"def _validate\(", r"^    def ")
    return (
        _none([line for line in validate if "golden_outputs(" in line],
              "per-input golden run")
        + _only(re.findall(r"^def \w*(?:conv|gemm)\w*", functional, re.M),
                ["def _conv", "def _dwconv", "def _gemm"], "kernels")
        + _only(sum("int_matmul(" in line
                    for line in functional.splitlines()),
                2, "int_matmul calls")
    )


def _no_content_digests(root: Path):
    """In-process caches key on the decoded code itself; nothing renders
    a program into a SHA-256 (artifacts hash their bytes)."""
    return _none(_grep(root, "content_digest", "src/repro",
                       suffixes=(".py",)), "content digest")


def _one_execution_path(root: Path):
    """A single chip is a one-shard pipeline (``serve.py`` never asks
    which product it holds), ``Deployment`` is the one entry point (the
    workflow shims stay deleted), and one input is a one-input
    submission: ``serve.py`` checks no input outside ``_validate``'s
    grouped golden pass, the chip pipeline has no one-input ``run``, and
    ``repro run`` submits."""
    shims = (r"run_workflow|_simulate_impl|_run_single_chip|run_streaming"
             r"|execute_resident_stream")
    simulator = _sed(_read(root, "src/repro/sim/multichip.py"),
                     r"^class MultiChipSimulator\b", r"^\S")
    cmd_run = _sed(_read(root, "src/repro/cli.py"),
                   r"^def _cmd_run\(", r"^\S")
    return (
        _none(_grep(root, r"isinstance\(self.compiled", "src/repro/serve.py"),
              "product test")
        + _none(_grep(root, shims, "src", "examples", "README.md", "docs",
                      suffixes=(".py", ".md")), "workflow shim")
        + _none(_grep(root, r"golden_outputs\(", "src/repro/serve.py"),
                "per-input golden check")
        + _none([line for line in simulator if "def run(" in line],
                "one-input simulator run")
        + _none([line for line in cmd_run if ".run(" in line],
                "run command fork")
    )


def _one_affine_walk(root: Path):
    """The block engine's batch planner is one concrete walk per loop
    entry (``_walk``, driven by ``_plan_entry``; the symbolic template
    layer stays deleted), and ``repro watch`` has one mode (the Textual
    dashboard stays deleted)."""
    return (
        _none(_grep(root, r"_PlanTemplate|_build_template|_TemplateUnfit"
                    r"|_e_combine", "src/repro/sim/blockengine.py"),
              "symbolic planner")
        + _none(_grep(root, r"import textual|from textual|run_watch_app",
                      "src/repro", suffixes=(".py",), flags=re.I),
                "dashboard")
    )


def _one_byte_per_weight(root: Path):
    """A macro-group register is int8 (no float32 register in the
    simulator), and ``_emit_instr``'s ``CIM_LOAD`` makes it only through
    ``_cim_register`` (bound as ``_cr``: a borrowed parameter view, else
    one owned copy), never by a ``copy=True`` read; tile boxes carry no
    array, and tile bytes are cut straight into the image (no per-tile
    copy in geometry, no ``tobytes`` round trip in lowering);
    ``tests/test_memory_law.py`` holds the counts."""
    geometry = "src/repro/compiler/geometry.py"
    load = _sed(_read(root, "src/repro/sim/blockengine.py"),
                r"elif op == int\(Op\.CIM_LOAD\)", r"elif op ==")
    made = [line.strip() for line in load if "mgs[_g] =" in line]
    return (
        _none(_grep(root, r"astype\(np\.float32\)", "src/repro/sim/core.py",
                    "src/repro/sim/blockengine.py"), "float32 register")
        + _none(_grep(root, r"tobytes\(\)|ascontiguousarray\(matrix",
                      geometry, "src/repro/compiler/codegen/lowering.py"),
                "tile copy")
        + _none(_grep(root, r"\bdata:", geometry), "tile array")
        + _none([line.strip() for line in load if "copy=True" in line]
                + [line for line in made if "_cr(" not in line]
                + ([] if made else ["no register"]), "register copy")
    )


def _sweep_spec_plural_keywords(source: str):
    """``SweepSpec(...)`` calls passing a swept plural by keyword."""
    from repro.explore import AXES

    plurals = {axis.metadata["plural"] for axis in AXES} - {None}
    return [
        keyword.arg
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and "SweepSpec" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for keyword in node.keywords if keyword.arg in plurals
    ]


def _one_axis_table(root: Path):
    """Every sweep coordinate is declared once, as a ``PointSpec`` field
    (``explore.AXES``): nothing copies coordinates field by field or
    loops over a ``SweepSpec`` plural by name, a serial sweep is the
    pool path with a pool of one, and the CLI builds its spec and rows
    from the declarations (``tests/test_explore_sweep.py::TestAxisLaw``
    holds every coordinate to the law)."""
    explore = "src/repro/explore.py"
    cli = "src/repro/cli.py"
    return (
        _none(_grep(root, r"(chips|batch|arrival_rate|replicas|fault_plan"
                          r"|resident_weights)=\(?(pspec|self)\.", explore),
              "coordinate copy")
        + _none(_grep(root, r"for \w+ in self\.(chip_counts|batch_sizes"
                            r"|arrival_rates|replica_counts|fault_plans"
                            r"|resident_modes)", explore), "plural loop")
        + _none(_grep(root, "_evaluate_spec", explore), "second evaluator")
        + _none(_sweep_spec_plural_keywords(_read(root, cli)),
                "plural keyword")
        + _none(_grep(root, r"_POINT_COLUMNS|_BEST_METRICS"
                            r"|_ASCENDING_METRICS", cli), "column list")
    )


def _one_fast_tier_price(root: Path):
    """A model's analytical cost is one ``fastmodel.analyze_pipeline``
    call (a fast sweep point and the fast Deployment alike): the
    resident and sharded twins stay deleted, ``analyze_plan`` is the one
    reader of an artifact plan's stored report, and the sweep's base
    analysis does not fork on residency."""
    base = _sed(_read(root, "src/repro/explore.py"),
                r"^def _analyze_base\(", r"^def ")
    return (
        _none(_grep(root, r"analyze_plan_resident|analyze_sharded_resident"
                          r"|_fast_shard_reports|_resident_fast",
                    "src/repro"), "pricing twin")
        + _only(_paths(_grep(root, re.escape('"fast_report", None)'),
                             "src/repro")),
                ["src/repro/sim/fastmodel.py"], "stored-report reader")
        + _none([line for line in base
                 if re.search(r"if .*resident_weights", line)],
                "resident fork")
    )


def _one_sweep_path(root: Path):
    """The cycle tier reaches a sweep as its ``tier`` coordinate: the
    spot check's second evaluation stays deleted, and ``explore.py``
    opens a ``Deployment`` only in ``_analyze_base``.  Every point's
    stream is priced by the fleet step (``serve_fleet``): the sweep
    keeps no serving law of its own."""
    explore = _read(root, "src/repro/explore.py")
    base = _sed(explore, r"^def _analyze_base\(", r"^def ")

    def opened(lines):
        return [line for line in lines if "Deployment(" in line]

    return (
        _none(_grep(root, r"spot_check|SpotCheckResult|spot_input_size",
                    "src/repro", suffixes=(".py",)), "spot check")
        + _only(opened(explore.splitlines()), opened(base),
                "deployment outside the base")
        + _none(_grep(root, r"stream_batched|serve_arrivals|load_done",
                      "src/repro/explore.py"), "second serving law")
    )


def _scoped_nodes(root: Path, names):
    """``(path, scope, node)`` of every AST node of the Python files
    ``names`` under ``root``; ``scope`` is the dotted name of the
    classes and functions the node sits in (``""`` at module level)."""
    for rel in names:
        if not rel.endswith(".py"):
            continue
        stack = [(ast.parse(_read(root, rel)), "")]
        while stack:
            node, scope = stack.pop()
            yield rel, scope, node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                scope = f"{scope}.{node.name}".lstrip(".")
            stack += [(child, scope) for child in ast.iter_child_nodes(node)]


_EDGE = ["src_chip", "dst_chip", "nbytes"]


_CODEGEN = {"ProgramGenerator", "build_global_image", "layout_global_memory"}
_CODEGEN_SITES = {f"src/repro/compiler/pipeline.py:{scope}" for scope in
                  ("generate", "CompiledModel.resident_segments")}


def _one_pipeline_builder(root: Path):
    """Every tier plans a model's chips through
    ``compiler.pipeline.plan_chips`` (the workflow module stays deleted,
    the planner is called from the pipeline module only), a compile
    product states its own transfer edges (an ``(x.src_chip,
    x.dst_chip, x.nbytes)`` tuple is built in
    ``MultiChipModel.transfer_edges`` alone), OP-level code generation
    (layout, lowering, image) is called from ``generate`` alone, with
    ``CompiledModel.resident_segments`` the one exception, and the
    serving and artifact layers enter the flow through those passes, not
    through ``compile_model`` or a private generator.  All are AST call
    sites, whatever the spacing or names."""
    planner, edges, codegen, bypass = [], [], [], []
    # What could hold one, as text; then the AST decides.
    names = _files_with(
        root, r"\bplan_graph\b|\bsrc_chip\b|ProgramGenerator"
              r"|build_global_image|layout_global_memory|compile_model"
              r"|_generate", ["src/repro"])
    for path, scope, node in _scoped_nodes(root, names):
        called = isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        if called == "plan_graph":
            planner.append(path)
        elif called in _CODEGEN:
            codegen.append(f"{path}:{scope}")
        elif called and (called == "compile_model"
                         or called.startswith("_generate")) and path in (
                "src/repro/serve.py", "src/repro/artifact.py"):
            bypass.append(f"{path}:{scope}")
        elif isinstance(node, ast.Tuple) and [
                getattr(element, "attr", None) for element in node.elts
        ] == _EDGE:
            edges.append(f"{path}:{scope}")
    return (
        _only((root / "src/repro/workflow.py").exists(), False,
              "workflow module")
        + _none(_grep(root, r"repro\.workflow", "src", "tests", "examples",
                      "docs", "README.md"), "workflow import")
        + _none([path for path in planner
                 if path != "src/repro/compiler/pipeline.py"],
                "planner call")
        + _only(edges,
                ["src/repro/compiler/pipeline.py:"
                 "MultiChipModel.transfer_edges"], "transfer edges")
        + _none([site for site in codegen if site not in _CODEGEN_SITES],
                "codegen call")
        + _none(bypass, "compile bypass")
    )


def _one_server(root: Path):
    """A fleet is a ``Deployment`` with R replicas: ``Fleet`` is the
    same class under a second name, not a wrapper, so nothing reads a
    ``.deployment`` attribute, no serving call hands the server to
    another object (``server=``), and the CLI builds every server
    through one builder."""
    return (
        _only(len(_grep(root, r"^Fleet = Deployment$",
                        "src/repro/serve.py")), 1, "fleet alias")
        + _none(_grep(root, r"\.deployment\b", "src/repro",
                      suffixes=(".py",)), "fleet wrapper")
        + _none(_grep(root, r"\bserver=", "src/repro/serve.py",
                      "src/repro/runtime.py"), "server parameter")
        + _none(_grep(root, r"def _build_deployment\b", "src/repro/cli.py"),
                "second builder")
    )


def _one_serving_report(root: Path):
    """Every server is a ``Deployment`` and every submission returns a
    ``FleetReport``: no ``Fleet`` class, no ``engine_needed`` deciding
    whether a report carries its availability block, and no consumer
    forking on the server's or the report's type."""
    consumers = ("src/repro/serve.py", "src/repro/runtime.py",
                 "src/repro/console.py", "src/repro/cli.py")
    return (
        _none(_grep(root, r"^\s*class Fleet\b", "src/repro",
                    suffixes=(".py",)), "fleet class")
        + _none(_grep(root, r"\bdef engine_needed\b", "src/repro",
                      suffixes=(".py",)), "engine needed")
        + _none(_grep(root, r"isinstance\([^)]*\bFleet\b", *consumers),
                "server type fork")
        + _none(_grep(root, r"hasattr\(report\b", *consumers),
                "report probe")
        + _none(_grep(root, r"getattr\(\w+,\s*[\"']replica_reports",
                      *consumers), "replica fallback")
    )


def _cli_imports_by_verb(root: Path):
    """``cli.py`` imports a layer in the command that runs it
    (``tests/test_import_layers.py`` holds every verb to its row)."""
    return _none(_grep(root, r"^from repro\.(explore|graph\.models|serve"
                             r"|faults|runtime|artifact|console)",
                       "src/repro/cli.py"), "top-level layer import")


def _one_json_writer(root: Path):
    """``cli.py`` encodes a JSON document only inside ``_write_json``:
    no ``indent=`` in a ``json`` call (CPython runs it on the
    pure-Python encoder), no ``json.dump`` to a file handle (the same
    encoder, chunk by chunk), and no encoder call anywhere else.  All
    are AST call sites, whatever the spacing or import spelling."""
    indented, to_file, outside = [], [], []
    for _, scope, node in _scoped_nodes(root, ["src/repro/cli.py"]):
        called = isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        if called not in ("dump", "dumps"):
            continue
        if any(keyword.arg == "indent" for keyword in node.keywords):
            indented.append(scope)
        elif called == "dump":
            to_file.append(scope)
        elif scope.split(".")[0] != "_write_json":
            outside.append(scope)
    return (
        _none(indented, "indented dump")
        + _none(to_file, "file dump")
        + _none(outside, "second writer")
    )


_KEPT_HANDLERS = ["_h_halt", "_h_barrier", "_h_recv", "_h_extension"]


def _one_opcode_definition(root: Path):
    """Every built-in opcode is rendered from ``blockengine._emit_instr``:
    ``core.py`` hand-writes only the handlers that hand control to the
    chip or to an extension, the accountant keeps no per-op-kind tally
    twin, and the int8 elementwise formulas live in the kernel table.
    The emitter, the planner's walk and batched replay read one vector
    table: ``requantize`` and ``cmul_i8`` are each called once, inside
    ``_VEC``, and no plan op is tagged per vector op."""
    core = _read(root, "src/repro/sim/core.py")
    engine = _read(root, "src/repro/sim/blockengine.py")
    table = "\n".join(_sed(engine, r"^_VEC = \{", r"^\}"))
    calls = [(len(re.findall(call, engine)), len(re.findall(call, table)))
             for call in (r"requantize\(", r"cmul_i8\(")]
    return (
        _only(re.findall(r"^def (_h_\w+)", core, re.M), _KEPT_HANDLERS,
              "hand-written handler")
        + _none(_grep(root, r"def (cim_mvm|cim_load|vector_op|scalar_op)\(",
                      "src/repro/sim/energy.py"), "tally twin")
        + _only(len(re.findall(r"saturate_i8\(", engine)), 1,
                "elementwise twin")
        + _only(calls, [(1, 1), (1, 1)], "vector kernel twin")
        + _none(re.findall(r"[\"'](qnt|add32|acc32|cmul|bin|un)[\"']",
                           engine), "per-op plan tag")
    )


def _compile_loops_only(root: Path):
    """The block engine compiles loop blocks and nothing else: straight-
    line code runs on the interpreter's handlers, with no heat counter,
    promotion or straight-line rendering beside them."""
    engine = _read(root, "src/repro/sim/blockengine.py")
    return (
        _none(re.findall(r"_HOT_RUNS|block_promotions|cold_block_instructions",
                         engine), "hot tier")
        + _none(re.findall(r"[\"']line[\"']", engine), "line block")
    )


def _one_copy_issue(root: Path):
    """A copy is issued in one place: the copy-charge twin stays deleted,
    the engine reserves NoC links only in ``issue_copy`` (every copy with
    a global end) and ``SEND``'s rendering, and the emitter and the walk
    read S_Regs only through their declarations."""
    engine = _read(root, "src/repro/sim/blockengine.py")
    transfer = re.compile(r"noc\.transfer\(")
    owners = (_sed(engine, r"^def issue_copy\(", r"^    return ")
              + _sed(engine, r"^    elif op == int\(Op\.SEND\):",
                     r"^    elif "))
    readers = sum((_sed(engine, rf"^def {name}\(", r"^def ")[:-1]
                   for name in ("_emit_instr", "_emit_vec", "_walk")), [])
    return (
        _none(re.findall(r"charge_copy_energy|\b_ce\b", engine),
              "copy charge")
        + _only([line for line in engine.splitlines()
                 if transfer.search(line)],
                [line for line in owners if transfer.search(line)],
                "NoC transfer")
        + _none([line for line in readers
                 if re.search(r"\b(s|sregs)\[\d+\]", line)],
                "literal S_Reg")
    )


def _one_instruction_constructor(root: Path):
    """An instruction is a value made in one place: ``Instruction(`` is
    called only at the registry's intern site, whose one table also
    holds each instruction's decoded tuple (no ``registry.decoded`` beside
    it), and ``translate_program`` looks that tuple up rather than read
    ``.fields``."""
    core = _read(root, "src/repro/sim/core.py")
    translate = "\n".join(
        _sed(core, r"^def translate_program\(", r"^    return code$"))
    return (
        _only(_paths(_grep(root, r"(?<![\w\"'])Instruction\(", "src/repro",
                           suffixes=(".py",))),
              ["src/repro/isa/extension.py"], "constructor call")
        + _none(_grep(root, r"registry\.decoded\b", "src/repro",
                      suffixes=(".py",)), "decoded table")
        + _none(re.findall(r"\.fields\b", translate), "field read")
    )


def _one_codegen_loop(root: Path):
    """Lowering writes each idiom once: a loop label and its back branch
    are made only in the counted-loop helper (which owns the S_Reg
    cache's loop-head rule), and no code reaches through the emitter to
    a wrapped builder."""
    lowering = _read(root, "src/repro/compiler/codegen/lowering.py")
    loop = re.compile(r"new_label\(|place_label\(|[\"']BLT[\"']")
    helper = _sed(lowering, r"^    def counted\(", r"^\S|^    (@|def )")[:-1]
    return (
        _only([line for line in lowering.splitlines() if loop.search(line)],
              [line for line in helper if loop.search(line)], "loop idiom")
        + _none(re.findall(r"\.builder\.", lowering), "builder reach")
    )


def _names_in(node):
    """The identifiers and attribute names inside an AST node."""
    return " ".join(getattr(n, "id", None) or getattr(n, "attr", None) or ""
                    for n in ast.walk(node))


def _one_more_replica(node):
    """``<replicas...> + 1`` or ``<replicas...> += 1``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        counted, step = node.left, node.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        counted, step = node.target, node.value
    else:
        return False
    return getattr(step, "value", None) == 1 and "replica" in _names_in(counted)


def _one_stage_latency(root: Path):
    """A candidate stage is priced by one law: a node's latency (its load
    plus its rows per replica times its row cycles) is written only in
    ``cost.node_latency``, and the duplication greedy (a loop that tries
    one more replica) only in ``mapping.grant_replicas``, which the DP
    and ``optimal_mapping`` both run.  Both are AST sites, whatever the
    spacing or names."""
    latency, greedy = set(), set()
    names = _files_with(root, r"load|replica", ["src/repro"])
    for path, scope, node in _scoped_nodes(root, names):
        site = f"{path}:{scope}"
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)):
            sides = (node.left, node.right)
            if any("load" in _names_in(side) for side in sides) and any(
                    isinstance(side, ast.BinOp)
                    and isinstance(side.op, ast.Mult)
                    and "row" in _names_in(side) for side in sides):
                latency.add(site)
        elif isinstance(node, (ast.While, ast.For)) and any(
                map(_one_more_replica, ast.walk(node))):
            greedy.add(site)
    return (
        _none(sorted(latency - {"src/repro/compiler/cost.py:node_latency"}),
              "node latency")
        + _none(sorted(greedy
                       - {"src/repro/compiler/mapping.py:grant_replicas"}),
                "duplication greedy")
    )


_W = "work" "flow"  # spelled apart: the pipeline law greps this file
#: law -> (its check, a tree breaking each of its clauses once, the
#: clauses it breaks)
GREP_LAWS = {
    "one_integer_gemm": (_one_integer_gemm, {
        "src/repro/sim/core.py": "acc = a.astype(np.int32) @ b\n",
        "src/repro/sim/chip.py": "y = np.einsum('ij,jk', a, b)\n",
        "src/repro/sim/functional.py": "y = np.einsum('c,c', a, b)\n",
        "src/repro/graph/quantize.py": "y = np.matmul(a, b)\n",
        "src/repro/compiler/lowering.py": "y = np.dot(a, b)\n",
    }, ["int32 matmul", "einsum", "BLAS entry points"]),
    "one_golden_pass_per_group": (_one_golden_pass_per_group, {
        "src/repro/serve.py": (
            "class D:\n    def _validate(self):\n"
            "        return golden_outputs(x)\n    def run(self):\n"
            "        pass\n"
        ),
        "src/repro/sim/functional.py": (
            "def _conv(x):\n    return int_matmul(a, b)\n"
            "def _gemm(x):\n    return int_matmul(a, b)\n"
            "def _gemm_one(x):\n    return int_matmul(a, b)\n"
        ),
    }, ["per-input golden run", "kernels", "int_matmul calls"]),
    "no_content_digests": (_no_content_digests, {
        "src/repro/sim/blockengine.py": "key = content_digest(code)\n",
    }, ["content digest"]),
    "one_execution_path": (_one_execution_path, {
        "src/repro/serve.py": (
            "if isinstance(self.compiled, Model):\n"
            "    golden = golden_outputs(graph, feeds)\n"
        ),
        "docs/GUIDE.md": "Call `run_workflow(model)`.\n",
        "src/repro/sim/multichip.py": (
            "class MultiChipSimulator:\n"
            "    def run(self) -> MultiChipReport:\n"
            "        pass\n"
        ),
        "src/repro/cli.py": (
            "def _cmd_run(args) -> int:\n"
            "    result = deployment.run(seed=args.seed)\n"
        ),
    }, ["product test", "workflow shim", "per-input golden check",
        "one-input simulator run", "run command fork"]),
    "one_affine_walk": (_one_affine_walk, {
        "src/repro/sim/blockengine.py": (
            "t = _build_template(core, inst, delta)\n"
        ),
        "src/repro/console.py": "from Textual.app import App\n",
    }, ["symbolic planner", "dashboard"]),
    "one_byte_per_weight": (_one_byte_per_weight, {
        "src/repro/sim/core.py": "reg = tile.astype(np.float32)\n",
        "src/repro/compiler/codegen/lowering.py": "raw = tile.tobytes()\n",
        "src/repro/compiler/geometry.py": "    data: np.ndarray\n",
        "src/repro/sim/blockengine.py": (
            "    elif op == int(Op.CIM_LOAD):\n"
            "        em.read(rs, 1, \"_n\", \"_x\", copy=True)\n"
            "        em.w(\"mgs[_g] = (_x.reshape(_rw, _cl), _rw, _cl)\")\n"
            "    elif op == int(Op.CIM_CFG):\n"
        ),
    }, ["float32 register", "tile copy", "tile array", "register copy"]),
    "one_axis_table": (_one_axis_table, {
        "src/repro/explore.py": (
            "p = PointSpec(chips=pspec.chips)\n"
            "for b in self.batch_sizes:\n    pass\n"
            "def _evaluate_spec(spec):\n    pass\n"
        ),
        "src/repro/cli.py": (
            "from repro import explore\n"
            "spec = explore.SweepSpec(models=m, chip_counts=(1,))\n"
            "_BEST_METRICS = ('tops',)\n"
        ),
    }, ["coordinate copy", "plural loop", "second evaluator",
        "plural keyword", "column list"]),
    "one_fast_tier_price": (_one_fast_tier_price, {
        "src/repro/sim/fastmodel.py": "def _resident_fast(plan):\n    pass\n",
        "src/repro/serve.py": "r = getattr(plan, \"fast_report\", None)\n",
        "src/repro/explore.py": (
            "def _analyze_base(pspec, arch):\n"
            "    if pspec.resident_weights:\n        pass\n"
            "def _derive_report():\n    pass\n"
        ),
    }, ["pricing twin", "stored-report reader", "resident fork"]),
    "one_pipeline_builder": (_one_pipeline_builder, {
        f"src/repro/{_W}.py": "",
        "tests/test_old.py": f"from repro.{_W} import run\n",
        # spellings the text clauses these replaced did not see
        "src/repro/serve.py": "plans = plan_graph (graph, arch)\n",
        "src/repro/faults.py": (
            "edges = [(tr.src_chip, tr.dst_chip, tr.nbytes)]\n"
        ),
        "src/repro/compiler/pipeline.py": (
            "def compile_graph(graph, arch):\n"
            "    return lowering.ProgramGenerator(plan).generate()\n"
        ),
        "src/repro/artifact.py": (
            "def load_artifact(path):\n"
            "    return _generate_chips(arch, planned)\n"
        ),
    }, ["workflow module", "workflow import", "planner call",
        "transfer edges", "codegen call", "compile bypass"]),
    "one_sweep_path": (_one_sweep_path, {
        "src/repro/cli.py": "spot = args.spot_input_size\n",
        "src/repro/explore.py": (
            "def _analyze_base(pspec, arch):\n"
            "    run = Deployment(graph, arch).submit()\n"
            "def spot(point):\n"
            "    run = Deployment(graph, arch).submit()\n"
            "releases = [max(r, load_done) for r in releases]\n"
        ),
    }, ["spot check", "deployment outside the base", "second serving law"]),
    "one_json_writer": (_one_json_writer, {
        "src/repro/cli.py": (
            "def _write_json(payload, path):\n"
            "    Path(path).write_text(json.dumps(payload, indent=2))\n"
            "    json.dump(payload, fh)\n"
            "def _cmd_inspect(args):\n"
            "    print(dumps (info))\n"
        ),
    }, ["indented dump", "file dump", "second writer"]),
    "one_opcode_definition": (_one_opcode_definition, {
        "src/repro/sim/core.py": (
            "def _h_halt(core, t):\n    pass\n"
            "def _h_vec(core, t):\n    pass\n"
        ),
        "src/repro/sim/energy.py": "    def vector_op(self, n):\n",
        "src/repro/sim/blockengine.py": (
            "y = saturate_i8(a + b)\ny = saturate_i8(a - b)\n"
            "_VEC = {\n    1: lambda x: cmul_i8(x, x),\n}\n"
            "y = requantize(acc, params)\n"
            "ops.append((\"qnt\", a, b, n))\n"
        ),
    }, ["hand-written handler", "tally twin", "elementwise twin",
        "vector kernel twin", "per-op plan tag"]),
    "cli_imports_by_verb": (_cli_imports_by_verb, {
        "src/repro/cli.py": "from repro.serve import Deployment\n",
    }, ["top-level layer import"]),
    "one_server": (_one_server, {
        "src/repro/serve.py": (
            "class Fleet:\n"
            "    arch = property(lambda self: self.deployment.arch)\n"
        ),
        "src/repro/runtime.py": "report = dep._serve(None, server=fleet)\n",
        "src/repro/cli.py": "def _build_deployment(args):\n    pass\n",
    }, ["fleet alias", "fleet wrapper", "server parameter",
        "second builder"]),
    "one_serving_report": (_one_serving_report, {
        "src/repro/serve.py": "class Fleet(Deployment):\n    pass\n",
        "src/repro/faults.py": "def engine_needed(faults, retry):\n    pass\n",
        "src/repro/runtime.py": "if isinstance(server, Fleet):\n    pass\n",
        "src/repro/console.py": (
            "if hasattr(report, \"dropped_indices\"):\n    pass\n"
        ),
        "src/repro/cli.py": (
            "served = getattr(report, \"replica_reports\", [report])[0]\n"
        ),
    }, ["fleet class", "engine needed", "server type fork", "report probe",
        "replica fallback"]),
    "compile_loops_only": (_compile_loops_only, {
        "src/repro/sim/blockengine.py": (
            "_HOT_RUNS = 16\n"
            "shape = (instrs, \"loop\" if is_loop else \"line\", term)\n"
        ),
    }, ["hot tier", "line block"]),
    "one_copy_issue": (_one_copy_issue, {
        "src/repro/sim/blockengine.py": (
            "def issue_copy(core, nbytes, src_global, start):\n"
            "    arrival = chip.noc.transfer(src, dst, nbytes, start)\n"
            "    return arrival\n"
            "def _emit_instr(em, f):\n"
            "    em.w(\"_ce(core, 4, _sg, False, _t)\")\n"
            "    em.w(\"_v = noc.transfer(cid, _d, _n, _t)\")\n"
            "def _walk(core, inst, delta):\n"
            "    chunk = invariant(sregs[13])\n"
            "def _exec_batch(core, ops, m):\n"
            "    pass\n"
        ),
    }, ["copy charge", "NoC transfer", "literal S_Reg"]),
    "one_instruction_constructor": (_one_instruction_constructor, {
        "src/repro/isa/extension.py": "instr = Instruction(mnemonic, fields)\n",
        "src/repro/isa/program.py": "instr = Instruction(mnemonic, fields)\n",
        "src/repro/sim/core.py": (
            "intern = registry.decoded.setdefault\n"
            "def translate_program(program, registry):\n"
            "    f = instr.fields\n"
            "    return code\n"
        ),
    }, ["constructor call", "decoded table", "field read"]),
    "one_codegen_loop": (_one_codegen_loop, {
        "src/repro/compiler/codegen/lowering.py": (
            "class _Emitter(ProgramBuilder):\n"
            "    def counted(self, n):\n"
            "        head = self.program.new_label(\"loop\")\n"
            "\n"
            "    def _gap(self, e):\n"
            "        e.builder.program.place_label(head)\n"
            "        e.emit(\"BLT\", rs=R_XCNT, rt=R_XBND, target=head)\n"
        ),
    }, ["loop idiom", "builder reach"]),
    "one_stage_latency": (_one_stage_latency, {
        "src/repro/sim/fastmodel.py": (
            "def busy(load, rows, row_cost):\n"
            "    return load + rows * row_cost\n"
        ),
        "src/repro/compiler/partition.py": (
            "def price(replicas, trial):\n"
            "    while trial(replicas[0] + 1):\n"
            "        pass\n"
        ),
    }, ["node latency", "duplication greedy"]),
}


@pytest.mark.parametrize("law", GREP_LAWS)
def test_grep_law_holds(law):
    check, _, _ = GREP_LAWS[law]
    assert check(REPO) == []


@pytest.mark.parametrize("law", GREP_LAWS)
def test_grep_law_sees_a_violation_of_each_clause(law, tmp_path):
    check, files, clauses = GREP_LAWS[law]
    found = check(_tree(tmp_path, files))
    assert [violation.split(":")[0] for violation in found] == clauses, found


# ---------------------------------------------------------------------------
# Every definition is reachable
# ---------------------------------------------------------------------------

def _definitions(tree):
    """A module's top-level functions and classes, and their methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds[:2]):
                        yield f"{node.name}.{item.name}", item


def _unreachable(root: Path, public=()):
    """Definitions under ``src/repro`` whose name no ``.py`` file under
    ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` holds as a
    word on any line but the one defining it (a body counts: an override
    reaches its base through ``super()``), unless the name is public API
    or a dunder."""
    lines = {}
    sources = {}
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).as_posix()
            sources[rel] = text = path.read_text()
            for number, line in enumerate(text.splitlines(), 1):
                for word in set(re.findall(r"\w+", line)):
                    lines.setdefault(word, []).append((rel, number))
    found = []
    for rel, text in sources.items():
        if not rel.startswith("src/repro/"):
            continue
        for qualname, node in _definitions(ast.parse(text)):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in public):
                continue
            if all(at == (rel, node.lineno) for at in lines[name]):
                found.append(f"{rel}:{qualname}")
    return found


def test_every_definition_is_reachable():
    from test_public_api import PUBLIC_API

    assert _unreachable(REPO, PUBLIC_API) == []


def test_every_definition_is_reachable_sees_a_violation(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/box.py": (
            "def used():\n    pass\n"
            "def orphan():\n    pass\n"
            "def exported():\n    pass\n"
            "class Box:\n"
            "    def __len__(self):\n        return 0\n"
            "    def unread(self):\n        pass\n"
        ),
        "tests/test_box.py": "from repro.box import used, Box\n",
        "docs/GUIDE.md": "Call `orphan()` or `Box().unread()`.\n",
    })
    assert _unreachable(root, ["exported"]) == [
        "src/repro/box.py:orphan", "src/repro/box.py:Box.unread",
    ]


# ---------------------------------------------------------------------------
# Cold engine identity
# ---------------------------------------------------------------------------

def test_cold_run_json_is_engine_independent(tmp_path):
    """What one process-cold ``repro run`` prints does not depend on the
    engine: the case the tiered block engine splits (loops compiled,
    straight-line blocks on the rendered handlers), compared whole."""
    outputs = []
    for engine in ("block", "interp"):
        out = tmp_path / f"cold_{engine}.json"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(SRC), REPRO_SIM_ENGINE=engine)
        subprocess.run(
            [sys.executable, "-m", "repro", "run", "tiny_resnet",
             "--preset", "small", "--input-size", "8", "--num-classes", "10",
             "--seed", "3", "--json", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
