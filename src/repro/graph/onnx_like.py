"""ONNX-like JSON serialisation of computation graphs.

The paper's workflow starts from "a DNN model description in ONNX format".
ONNX protobufs are not available offline, so this module provides the
equivalent interchange surface: a complete, self-describing JSON format
that round-trips graphs (optionally including weights), giving CIMFlow its
"model file in, report out" workflow.
"""

import json
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import ComputationGraph
from repro.graph.ops import Operator, OpKind
from repro.graph.qparams import QuantParams
from repro.graph.shape_inference import infer_output_shape
from repro.graph.tensor import TensorInfo

FORMAT_VERSION = 1


def _array_to_json(array: np.ndarray) -> Dict[str, Any]:
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": array.reshape(-1).tolist(),
    }


def _array_from_json(data: Dict[str, Any]) -> np.ndarray:
    return np.array(data["data"], dtype=data["dtype"]).reshape(data["shape"])


def graph_to_dict(
    graph: ComputationGraph, include_weights: bool = True
) -> Dict[str, Any]:
    """Serialise a graph (and optionally its parameters) to a dictionary."""
    ops = []
    for op in graph.operators:
        entry: Dict[str, Any] = {
            "name": op.name,
            "kind": op.kind.value,
            "inputs": list(op.inputs),
            "output": op.output,
            "attrs": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in op.attrs.items()
            },
        }
        if op.qparams is not None:
            entry["qparams"] = {"qmul": op.qparams.qmul, "qshift": op.qparams.qshift}
        if include_weights and op.weight is not None:
            entry["weight"] = _array_to_json(op.weight)
        if include_weights and op.bias is not None:
            entry["bias"] = _array_to_json(op.bias)
        ops.append(entry)
    return {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "tensors": [
            {"name": t.name, "shape": list(t.shape), "dtype": t.dtype}
            for t in graph.tensors.values()
        ],
        "operators": ops,
        "outputs": list(graph.outputs),
    }


def graph_from_dict(data: Dict[str, Any]) -> ComputationGraph:
    """Reconstruct a graph from :func:`graph_to_dict` output.

    Shapes are re-inferred and checked against the stored tensor table, so
    a corrupted file fails loudly instead of mis-simulating.
    """
    if data.get("format_version") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported model format version {data.get('format_version')!r}"
        )
    graph = ComputationGraph(data.get("name", "graph"))
    for entry in data["tensors"]:
        graph.add_tensor(
            TensorInfo(entry["name"], tuple(entry["shape"]), entry.get("dtype", "int8"))
        )
    for entry in data["operators"]:
        kind = OpKind(entry["kind"])
        qparams = None
        if "qparams" in entry:
            qparams = QuantParams(**entry["qparams"])
        op = Operator(
            name=entry["name"],
            kind=kind,
            inputs=list(entry["inputs"]),
            output=entry["output"],
            attrs=dict(entry.get("attrs", {})),
            weight=_array_from_json(entry["weight"]) if "weight" in entry else None,
            bias=_array_from_json(entry["bias"]) if "bias" in entry else None,
            qparams=qparams,
        )
        input_shapes = [graph.tensor(t).shape for t in op.inputs]
        inferred = infer_output_shape(kind, input_shapes, op.attrs)
        declared = graph.tensor(op.output).shape
        if tuple(inferred) != tuple(declared):
            raise GraphError(
                f"{op.name}: stored shape {declared} contradicts inferred "
                f"{inferred}"
            )
        graph.add_operator(op)
    for tensor in data.get("outputs", []):
        graph.mark_output(tensor)
    graph.validate()
    return graph


def save_graph(
    graph: ComputationGraph,
    path: Union[str, Path],
    include_weights: bool = True,
) -> None:
    """Write a model description file."""
    payload = graph_to_dict(graph, include_weights=include_weights)
    Path(path).write_text(json.dumps(payload))


def load_graph(path: Union[str, Path]) -> ComputationGraph:
    """Read a model description file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed model file {path}: {exc}") from exc
    return graph_from_dict(data)
