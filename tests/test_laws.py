"""System laws as tests: each one a structural check that fails on a
violation, run with the rest of tier-1.

Hold each simulated byte once.  A chip simulator owns its global
activation window and borrows the compiled image's parameter segment
read-only (``sim/memory.py``); nothing writes the parameters, whichever
engine path issues the write; and a macro-group register is its own
array, aliasing neither segment.

Serve through one kernel, once.  The admission recurrence is spelled
out in ``sim/multichip.py`` alone; ``PipelineState.admit`` is called
from there and from the failover engine only, and neither ``serve.py``
nor ``runtime.py`` folds a second admission path; a live request is
admitted in place, with no scheduler task and no dataclass record.

Plan from shapes.  No module a cold sweep imports -- serving axes
included -- imports NumPy when it is itself imported (parameters are
drawn on first read, and the serving continuation reads the NumPy-free
``repro.arrivals``); and the duplication greedy prices the one trial
that can win, with no set of ``blocked`` trials known to fail before
they are priced.
"""

import ast
import dataclasses
import gc
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.config import small_test_arch
from repro.config.arch import GLOBAL_BASE
from repro.errors import SimulationError
from repro.graph.models import get_model
from repro.isa import ProgramBuilder
from repro.sim import ChipSimulator
from repro.sim import blockengine as be
from repro.sim.functional import random_input

#: Bytes a chip may allocate beyond its scratchpads and activation window
#: (cores, register files, NoC and ledger state).
_EPSILON = 256 * 1024


@pytest.fixture(scope="module")
def resnet18_32():
    from repro.config import default_arch

    graph = get_model("resnet18", input_size=32, num_classes=10)
    return compile_graph(graph, default_arch(), "dp")


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


def test_registers_alias_neither_segment(resnet18_32):
    compiled = resnet18_32
    sim = ChipSimulator.from_compiled(compiled)
    sim.memory.write_global(
        compiled.input_address(), random_input(compiled.graph, seed=0)
    )
    sim.run()
    mem = sim.memory
    registers = 0
    for core in sim.cores:
        for entry in core.mgs:
            if entry is None:
                continue
            register = entry[0]
            registers += 1
            assert not np.shares_memory(register, mem.activations)
            assert not np.shares_memory(register, mem.parameters)
            assert not np.shares_memory(register, mem.locals[core.core_id])
    assert registers > 0


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
@pytest.mark.parametrize("path", ["interpreter", "cold", "generated", "loop"])
def test_parameter_segment_is_read_only(path, mnemonic, monkeypatch):
    """A simulated write into the parameter segment raises on every
    engine path instead of corrupting the weights later inputs read."""
    monkeypatch.setattr(be, "_HOT_RUNS", 0 if path == "generated" else 16)
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
    if path == "cold":
        assert stats["block_promotions"] == 0
    elif path == "generated":
        assert stats["block_promotions"] > 0
    elif path == "loop":
        assert stats["loop_entries"] > 0


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


def _files_with(root: Path, pattern: str, names=None):
    """The files under ``root`` whose text matches ``pattern`` -- ``grep
    -rlE`` over the tree (byte-compiled caches are copies, not sources)
    or over ``names`` only -- as sorted paths relative to ``root``."""
    paths = (
        [root / name for name in names] if names is not None
        else root.rglob("*")
    )
    return sorted(
        path.relative_to(root).as_posix() for path in paths
        if path.is_file() and "__pycache__" not in path.parts
        and re.search(pattern, path.read_text(errors="replace"))
    )


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
    """The seven records a request builds."""
    from repro import faults, runtime

    return [
        runtime.RequestAdmitted, runtime.RequestCompleted,
        runtime.RequestDropped, runtime.ReplicaStateChanged,
        runtime.RequestCompletion, faults.AttemptRecord,
        faults.EngineOutcome,
    ]


def _dataclass_records(records):
    return [r.__name__ for r in records if dataclasses.is_dataclass(r)]


def test_one_admission_kernel():
    assert _kernel_files(REPRO) == ["sim/multichip.py"]


def test_admit_once():
    assert _admitting_files(REPRO) == ["faults.py", "sim/multichip.py"]
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
