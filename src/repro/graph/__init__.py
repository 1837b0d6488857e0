"""DNN computation-graph IR, quantisation, serialisation and model zoo."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "repro.graph.builder": ("GraphBuilder",),
    "repro.graph.graph": ("ComputationGraph",),
    "repro.graph.onnx_like": (
        "graph_from_dict", "graph_to_dict", "load_graph", "save_graph",
    ),
    "repro.graph.ops": ("ELEMENTWISE_KINDS", "MVM_KINDS", "Operator", "OpKind"),
    "repro.graph.qparams": ("QuantParams",),
    "repro.graph.shape_inference": ("infer_output_shape",),
    "repro.graph.tensor": ("TensorInfo",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:  # the table above, spelled out for static tools
    from repro.graph.builder import GraphBuilder
    from repro.graph.graph import ComputationGraph
    from repro.graph.onnx_like import (
        graph_from_dict,
        graph_to_dict,
        load_graph,
        save_graph,
    )
    from repro.graph.ops import ELEMENTWISE_KINDS, MVM_KINDS, Operator, OpKind
    from repro.graph.qparams import QuantParams
    from repro.graph.shape_inference import infer_output_shape
    from repro.graph.tensor import TensorInfo

__all__ = [
    "ComputationGraph",
    "GraphBuilder",
    "Operator",
    "OpKind",
    "MVM_KINDS",
    "ELEMENTWISE_KINDS",
    "TensorInfo",
    "QuantParams",
    "infer_output_shape",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
]
