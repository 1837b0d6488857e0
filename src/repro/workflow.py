"""Out-of-the-box workflow: model + architecture -> compile -> simulate ->
report (Fig. 2), with functional validation against the golden model.

This is the paper's "out-of-the-box workflow for implementing and
evaluating DNN workloads on digital CIM architectures"::

    from repro import run_workflow
    result = run_workflow("resnet18", input_size=32)
    print(result.report)

The one-shot entry points here (:func:`run_workflow` / :func:`simulate`)
are **deprecated shims** over the serving API (:mod:`repro.serve`): a
:class:`~repro.serve.Deployment` compiles once and serves many
submissions, adds continuous-arrival streaming, and is the primary
entry point of the package.  The shims keep their exact legacy
semantics (bit-identical results) and remain supported.

``arch`` may be an :class:`~repro.config.ArchConfig` or a path to a JSON
architecture file (the user-supplied configuration of Fig. 2); the same
workflow is available from the command line as ``python -m repro run``.
With ``chips=N`` the model is pipeline-sharded across ``N`` identical
chips (``python -m repro run --chips N``); outputs remain bit-exact
against the golden model either way.  With ``batch=B`` a stream of
``B`` independent inputs runs through the configuration (``python -m
repro run --batch B``): multi-chip pipelines overlap inputs across
chips (throughput mode), a single chip replays them sequentially, and
every input is validated bit-exactly in isolation.  See
``docs/ARCHITECTURE.md`` for how this cycle-accurate path relates to
the fast-model sweeps in :mod:`repro.explore`, its "Multi-chip
sharding" section for the shard/transfer contract, and "Batched
streaming inference" for the throughput-mode contract.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ArchConfig, default_arch, load_arch
from repro.errors import CompileError, ConfigError, ValidationError
from repro.compiler import (
    CompiledModel,
    MultiChipModel,
    compile_graph,
    compile_sharded,
)
from repro.graph.graph import ComputationGraph
from repro.graph.quantize import as_int8
from repro.sim.chip import ChipSimulator
from repro.sim.functional import random_input
from repro.sim.multichip import MultiChipReport
from repro.sim.report import SimulationReport


@dataclass
class WorkflowResult:
    """Everything one compile+simulate run produces.

    ``compiled`` / ``report`` are the single-chip types for ``chips=1``
    runs and :class:`MultiChipModel` / :class:`MultiChipReport` for
    sharded runs; both expose the same latency/energy surface.

    Batched runs (``batch > 1``) always carry a
    :class:`MultiChipReport` (streamed pipeline for multi-chip,
    sequential replay for one chip) so every configuration reports the
    same throughput / energy-per-inference metrics.  ``outputs`` /
    ``golden`` then describe the first input of the stream;
    ``per_input_outputs`` holds every input's outputs in order.
    """

    compiled: Union[CompiledModel, MultiChipModel]
    report: Union[SimulationReport, MultiChipReport]
    outputs: Dict[str, np.ndarray]
    golden: Optional[Dict[str, np.ndarray]] = None
    validated: bool = False
    batch: int = 1
    per_input_outputs: Optional[List[Dict[str, np.ndarray]]] = None

    @property
    def graph(self) -> ComputationGraph:
        return self.compiled.graph


def _resolve_graph(
    model: Union[str, ComputationGraph], **model_kwargs
) -> ComputationGraph:
    if isinstance(model, ComputationGraph):
        return model
    from repro.graph.models import get_model

    return get_model(model, **model_kwargs)


ArchLike = Union[ArchConfig, str, Path, None]


def _resolve_arch(arch: ArchLike) -> ArchConfig:
    if arch is None:
        return default_arch()
    if isinstance(arch, (str, Path)):
        return load_arch(arch)
    return arch


def compile_model(
    model: Union[str, ComputationGraph],
    arch: ArchLike = None,
    strategy: str = "dp",
    chips: int = 1,
    **model_kwargs,
) -> Union[CompiledModel, MultiChipModel]:
    """Compile a model (zoo name or graph) for an architecture.

    ``arch`` accepts a ready :class:`ArchConfig` or the path of a JSON
    architecture configuration file (``None`` = the paper's Table I).
    With ``chips > 1`` the model is pipeline-sharded across that many
    identical chips and a :class:`MultiChipModel` is returned.
    """
    if chips < 1:
        raise CompileError(f"chip count must be >= 1, got {chips}")
    graph = _resolve_graph(model, **model_kwargs)
    resolved = _resolve_arch(arch)
    if chips > 1:
        return compile_sharded(graph, resolved, chips, strategy=strategy)
    return compile_graph(graph, resolved, strategy=strategy)


def _resolve_batch_inputs(
    graph: ComputationGraph,
    input_data,
    batch: int,
    seed: int,
) -> List[np.ndarray]:
    """Normalise ``input_data`` / ``batch`` into a list of input tensors.

    ``None`` draws ``batch`` reproducible random inputs seeded ``seed``,
    ``seed + 1``, ... (so input ``i`` of a batched run is bit-identical
    to an independent run with ``seed=seed+i``); anything shaped like
    one model input (array or nested list) is a batch of one; a
    sequence of input-shaped arrays -- a list or a stacked ``(B, *input
    shape)`` array -- must match ``batch`` (or sets it when ``batch``
    was left at 1).  Every resolved input is shape-checked against the
    model's input tensor and must hold int8-representable integers
    (:func:`repro.graph.quantize.as_int8`; nothing is silently wrapped).
    """
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    if input_data is None:
        return [random_input(graph, seed=seed + i) for i in range(batch)]
    expected = tuple(graph.tensor(graph.input_operators[0].output).shape)

    if isinstance(input_data, np.ndarray):
        whole = input_data
    else:
        try:
            whole = np.asarray(input_data)
        except ValueError:  # ragged sequence: definitely not one input
            whole = None
    if whole is not None and whole.shape == expected:
        inputs = [whole]  # exactly one model input
    elif isinstance(input_data, np.ndarray):
        # a stacked batch of inputs, or a wrong shape reported below
        stacked = whole.ndim and whole.shape[1:] == expected
        inputs = list(whole) if stacked else [input_data]
    else:  # item by item: each keeps its own dtype for the int8 check
        inputs = [np.asarray(item) for item in input_data]
    if batch == 1 and len(inputs) > 1:
        batch = len(inputs)
    if len(inputs) != batch:
        raise ConfigError(
            f"batch={batch} but {len(inputs)} input arrays were given"
        )
    for index, data in enumerate(inputs):
        if tuple(data.shape) != expected:
            raise ConfigError(
                f"input {index} has shape {tuple(data.shape)}; the model "
                f"input is {expected}"
            )
        inputs[index] = as_int8(data, f"input {index}", ConfigError)
    return inputs


def _input_needs_batch_resolution(
    graph: ComputationGraph, input_data
) -> bool:
    """Should ``input_data`` go through :func:`_resolve_batch_inputs`?

    Any non-array sequence does (lists may be nested single inputs or
    per-input batches).  A plain ndarray normally takes the legacy
    single-input path unchecked -- except a stacked ``(B, *input
    shape)`` array, which is the documented implicit-batch form and
    must resolve like the equivalent list of ``B`` arrays.
    """
    if input_data is None:
        return False
    if not isinstance(input_data, np.ndarray):
        return True
    expected = tuple(graph.tensor(graph.input_operators[0].output).shape)
    shape = tuple(input_data.shape)
    return shape != expected and input_data.ndim >= 1 and shape[1:] == expected


def _run_single_chip(
    compiled: CompiledModel,
    input_data: np.ndarray,
    engine: Optional[str],
) -> Tuple[SimulationReport, Dict[str, np.ndarray]]:
    """One cycle-accurate single-chip execution: write input, run, read
    every graph output (shared by the single-shot and batched paths)."""
    graph = compiled.graph
    input_tensor = graph.input_operators[0].output
    sim = ChipSimulator.from_compiled(compiled, engine=engine)
    sim.memory.write_global(
        compiled.input_address(input_tensor), np.asarray(input_data, np.int8)
    )
    report = sim.run()
    outputs: Dict[str, np.ndarray] = {}
    for name in graph.outputs:
        resolved = compiled.plan.cgraph.resolve(name)
        info = graph.tensor(name)
        raw = sim.memory.read_global(
            compiled.plan.tensor_address[resolved], info.size_bytes
        )
        outputs[name] = raw.reshape(info.shape)
    return report, outputs


def _validate_outputs(
    graph: ComputationGraph,
    outputs: Dict[str, np.ndarray],
    golden: Dict[str, np.ndarray],
    label: str,
) -> None:
    """Bit-exact golden-model check (the execution-result check of Fig. 2)."""
    for name, expected in golden.items():
        got = outputs[name].reshape(expected.shape)
        if not np.array_equal(got, expected):
            bad = int(np.count_nonzero(got != expected))
            raise ValidationError(
                f"{graph.name} [{label}]: output {name!r} differs from "
                f"golden model in {bad}/{expected.size} elements"
            )


def _simulate_impl(
    compiled: Union[CompiledModel, MultiChipModel],
    input_data,
    validate: bool,
    seed: int,
    engine: Optional[str],
    batch: int,
) -> WorkflowResult:
    """Legacy one-shot semantics expressed over a :class:`Deployment`.

    Shared by the deprecated :func:`simulate` / :func:`run_workflow`
    shims and internal callers that must not emit deprecation warnings.
    Batched submissions go through ``Deployment.submit`` with
    back-to-back arrivals, which is bit-identical to the PR-4 batched
    scheduler; the returned :class:`WorkflowResult` is unchanged.
    """
    from repro.serve import Deployment

    deployment = Deployment(compiled, engine=engine)
    if batch != 1 or _input_needs_batch_resolution(compiled.graph, input_data):
        inputs = _resolve_batch_inputs(
            compiled.graph, input_data, batch, seed
        )
        if len(inputs) > 1:
            serve = deployment.submit(inputs, validate=validate)
            return WorkflowResult(
                compiled=compiled,
                report=serve.stream_report,
                outputs=serve.per_input_outputs[0],
                golden=serve.golden,
                validated=serve.validated,
                batch=serve.batch,
                per_input_outputs=list(serve.per_input_outputs),
            )
        input_data = inputs[0]
    return deployment.run(input_data, validate=validate, seed=seed)


def _deprecated(name: str, replacement: str) -> None:
    import warnings

    warnings.warn(
        f"{name} is deprecated; use {replacement} (repro.serve) instead -- "
        f"a Deployment compiles once and serves many submissions",
        DeprecationWarning,
        stacklevel=3,
    )


def simulate(
    compiled: Union[CompiledModel, MultiChipModel],
    input_data: Optional[np.ndarray] = None,
    validate: bool = True,
    seed: int = 0,
    engine: Optional[str] = None,
    batch: int = 1,
) -> WorkflowResult:
    """Simulate a compiled model on the cycle-level simulator.

    .. deprecated::
        ``simulate`` recompiles nothing but still owns no state across
        calls; prefer ``Deployment(compiled).run(...)`` /
        ``Deployment(compiled).submit(...)`` (:mod:`repro.serve`), which
        add continuous-arrival streaming and latency percentiles.  This
        shim keeps the exact legacy semantics and stays supported.

    With ``validate=True`` (the execution-result check of Fig. 2) the
    simulated graph outputs are compared bit-exactly against the golden
    NumPy model; a mismatch raises :class:`ValidationError`.

    ``engine`` selects the execution engine: ``"block"`` (the hot-block
    engine, default) or ``"interp"`` (the legacy per-instruction
    interpreter); ``None`` defers to ``REPRO_SIM_ENGINE``.  Both produce
    bit-identical reports and outputs.

    A :class:`MultiChipModel` (from ``compile_model(..., chips=N)``) is
    routed to the multi-chip pipeline scheduler; the functional contract
    (bit-exact golden validation) is unchanged.

    ``batch=B`` streams ``B`` independent inputs through the
    configuration (throughput mode): a multi-chip pipeline overlaps
    inputs across chips, a single chip replays them sequentially, and
    each input is simulated and validated in full isolation.
    ``input_data`` may then be a sequence of ``B`` arrays (``None``
    draws seeds ``seed .. seed+B-1``).
    """
    _deprecated("simulate()", "Deployment.run()/Deployment.submit()")
    return _simulate_impl(compiled, input_data, validate, seed, engine, batch)


def run_workflow(
    model: Union[str, ComputationGraph],
    arch: ArchLike = None,
    strategy: str = "dp",
    input_data: Optional[np.ndarray] = None,
    validate: bool = True,
    seed: int = 0,
    engine: Optional[str] = None,
    chips: int = 1,
    batch: int = 1,
    **model_kwargs,
) -> WorkflowResult:
    """The one-call pipeline: build/compile/simulate/validate/report.

    .. deprecated::
        ``run_workflow`` recompiles the model on every call; prefer
        ``Deployment(model, arch, chips=N)`` (:mod:`repro.serve`), which
        compiles once and serves many submissions.  This shim keeps the
        exact legacy semantics and stays supported.

    ``chips=N`` pipeline-shards the model across ``N`` identical chips
    (the multi-chip backend); results stay bit-exact vs the golden model.
    ``batch=B`` streams ``B`` independent inputs through the
    configuration (throughput mode): input ``i`` uses seed ``seed + i``
    and validates bit-exactly in isolation.
    """
    _deprecated("run_workflow()", "Deployment")
    compiled = compile_model(model, arch, strategy, chips=chips, **model_kwargs)
    return _simulate_impl(compiled, input_data, validate, seed, engine, batch)
