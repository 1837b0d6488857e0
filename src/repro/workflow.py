"""What a :class:`~repro.serve.Deployment` is built from (Fig. 2).

The paper's "out-of-the-box workflow for implementing and evaluating
DNN workloads on digital CIM architectures" -- model + architecture ->
compile -> simulate -> validated report -- has one entry point,
:class:`repro.serve.Deployment` (``python -m repro run`` on the command
line)::

    from repro import Deployment
    result = Deployment("resnet18", input_size=32).run()
    print(result.report)

This module holds the pieces the deployment calls: model/architecture
resolution and :func:`compile_model` (``arch`` may be an
:class:`~repro.config.ArchConfig` or the path of a JSON architecture
file, the user-supplied configuration of Fig. 2; ``chips=N``
pipeline-shards the model), input resolution for batched submissions,
the bit-exact golden check, and :class:`WorkflowResult`, what
``Deployment.run()`` returns.  See ``docs/ARCHITECTURE.md`` ("One entry
point, one execution path").
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

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
from repro.sim.functional import random_input
from repro.sim.multichip import MultiChipReport
from repro.sim.report import SimulationReport


@dataclass
class WorkflowResult:
    """Everything one ``Deployment.run()`` produces.

    ``compiled`` / ``report`` are the single-chip types for a one-chip
    deployment and :class:`MultiChipModel` / :class:`MultiChipReport`
    for a sharded one; both expose the same latency/energy surface.
    """

    compiled: Union[CompiledModel, MultiChipModel]
    report: Union[SimulationReport, MultiChipReport]
    outputs: Dict[str, np.ndarray]
    golden: Optional[Dict[str, np.ndarray]] = None
    validated: bool = False

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
    closure_limit: Optional[int] = None,
    **model_kwargs,
) -> Union[CompiledModel, MultiChipModel]:
    """Compile a model (zoo name or graph) for an architecture.

    ``arch`` accepts a ready :class:`ArchConfig` or the path of a JSON
    architecture configuration file (``None`` = the paper's Table I).
    With ``chips > 1`` the model is pipeline-sharded across that many
    identical chips and a :class:`MultiChipModel` is returned.
    ``closure_limit`` bounds the DP partitioner's closure enumeration.
    """
    if chips < 1:
        raise CompileError(f"chip count must be >= 1, got {chips}")
    graph = _resolve_graph(model, **model_kwargs)
    resolved = _resolve_arch(arch)
    if chips > 1:
        return compile_sharded(
            graph, resolved, chips, strategy, closure_limit=closure_limit
        )
    return compile_graph(graph, resolved, strategy, closure_limit=closure_limit)


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
