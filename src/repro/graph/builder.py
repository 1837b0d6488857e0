"""Fluent construction of computation graphs with generated INT8 weights.

:class:`GraphBuilder` performs shape inference as operators are added and
fills in seeded-random INT8 weights / INT32 biases plus deterministic
requantisation parameters, standing in for the trained ONNX models the
paper consumes -- compilation and simulation behaviour depend on
topology and shapes, not on weight values.  The values are therefore
drawn on their first read (:class:`SeededDraws`): planning a graph reads
shapes only and never pays for them.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graph.graph import ComputationGraph
from repro.graph.ops import DeferredArray, Operator, OpKind
from repro.graph.qparams import QuantParams, avgpool_qparams, default_qparams
from repro.graph.shape_inference import infer_output_shape
from repro.graph.tensor import TensorInfo

if TYPE_CHECKING:
    import numpy as np

#: Weights are drawn from this half-open interval so int32 accumulators
#: cannot overflow even at the largest fan-in in the model zoo.
WEIGHT_LOW, WEIGHT_HIGH = -64, 64
BIAS_LOW, BIAS_HIGH = -512, 512


class SeededDraws:
    """The random parameters of one graph: recorded in order, drawn on first read.

    A generator's stream is sequential, so the first read of any recorded
    array draws all of them, in the order they were recorded, from
    ``np.random.default_rng(seed)`` -- the values a builder drawing as it
    went would have produced.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._specs: List[Tuple[int, int, Tuple[int, ...], str]] = []
        self._arrays: Optional[List[np.ndarray]] = None

    def record(
        self, low: int, high: int, shape: Tuple[int, ...], dtype: str
    ) -> DeferredArray:
        """An array of ``integers(low, high, shape, dtype)``, drawn later."""
        self._specs.append((low, high, shape, dtype))
        return DeferredArray(shape, partial(self._array, len(self._specs) - 1))

    def _array(self, index: int) -> np.ndarray:
        if self._arrays is None:
            import numpy as np

            rng = np.random.default_rng(self.seed)
            self._arrays = [
                rng.integers(low, high, size=shape, dtype=dtype)
                for low, high, shape, dtype in self._specs
            ]
        return self._arrays[index]


class GraphBuilder:
    """Builds a :class:`ComputationGraph` operator by operator."""

    def __init__(self, name: str = "graph", seed: int = 0):
        self.graph = ComputationGraph(name)
        self._draws = SeededDraws(seed)
        self._counter = 0

    # --- internals ---------------------------------------------------------
    def _fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}_{self._counter}"

    def _add(
        self,
        kind: OpKind,
        inputs: Sequence[str],
        attrs: Optional[dict] = None,
        name: Optional[str] = None,
        weight: Optional[DeferredArray] = None,
        bias: Optional[DeferredArray] = None,
        qparams: Optional[QuantParams] = None,
    ) -> str:
        attrs = dict(attrs or {})
        name = name or self._fresh(kind.value)
        input_shapes = [self.graph.tensor(t).shape for t in inputs]
        out_shape = infer_output_shape(kind, input_shapes, attrs)
        out_name = f"{name}_out"
        self.graph.add_tensor(TensorInfo(out_name, out_shape))
        op = Operator(
            name=name,
            kind=kind,
            inputs=list(inputs),
            output=out_name,
            attrs=attrs,
            weight=weight,
            bias=bias,
            qparams=qparams,
        )
        self.graph.add_operator(op)
        return out_name

    def _rand_weight(self, shape: Tuple[int, ...]) -> DeferredArray:
        return self._draws.record(WEIGHT_LOW, WEIGHT_HIGH, shape, "int8")

    def _rand_bias(self, n: int) -> DeferredArray:
        return self._draws.record(BIAS_LOW, BIAS_HIGH, (n,), "int32")

    # --- operators ---------------------------------------------------------
    def input(self, shape, name: str = "input") -> str:
        """Declare the graph input tensor."""
        return self._add(OpKind.INPUT, [], {"shape": tuple(shape)}, name=name)

    def conv(
        self,
        x: str,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        name: Optional[str] = None,
    ) -> str:
        """Standard convolution with HWIO int8 weights and int32 bias."""
        in_c = self.graph.tensor(x).shape[-1]
        weight = self._rand_weight((kernel, kernel, in_c, out_channels))
        bias = self._rand_bias(out_channels)
        fan_in = kernel * kernel * in_c
        return self._add(
            OpKind.CONV,
            [x],
            {
                "out_channels": out_channels,
                "kernel": kernel,
                "stride": stride,
                "padding": padding,
            },
            name=name,
            weight=weight,
            bias=bias,
            qparams=default_qparams(fan_in),
        )

    def dwconv(
        self,
        x: str,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        name: Optional[str] = None,
    ) -> str:
        """Depthwise convolution (channel multiplier 1)."""
        channels = self.graph.tensor(x).shape[-1]
        weight = self._rand_weight((kernel, kernel, channels))
        bias = self._rand_bias(channels)
        return self._add(
            OpKind.DWCONV,
            [x],
            {"kernel": kernel, "stride": stride, "padding": padding},
            name=name,
            weight=weight,
            bias=bias,
            qparams=default_qparams(kernel * kernel),
        )

    def gemm(self, x: str, out_features: int, name: Optional[str] = None) -> str:
        """Fully-connected layer over a flat vector."""
        shape = self.graph.tensor(x).shape
        if len(shape) != 1:
            raise GraphError(f"gemm input must be flat, got {shape}; flatten first")
        in_features = shape[0]
        weight = self._rand_weight((in_features, out_features))
        bias = self._rand_bias(out_features)
        return self._add(
            OpKind.GEMM,
            [x],
            {"out_features": out_features},
            name=name,
            weight=weight,
            bias=bias,
            qparams=default_qparams(in_features),
        )

    def relu(self, x: str, name: Optional[str] = None) -> str:
        return self._add(OpKind.RELU, [x], name=name)

    def relu6(self, x: str, name: Optional[str] = None) -> str:
        return self._add(OpKind.RELU6, [x], name=name)

    def silu(self, x: str, name: Optional[str] = None) -> str:
        return self._add(OpKind.SILU, [x], name=name)

    def sigmoid(self, x: str, name: Optional[str] = None) -> str:
        return self._add(OpKind.SIGMOID, [x], name=name)

    def add(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Saturating residual add."""
        return self._add(OpKind.ADD, [a, b], name=name)

    def mul_channel(self, x: str, scale: str, name: Optional[str] = None) -> str:
        """Per-channel Q7 scale (squeeze-excite gating)."""
        return self._add(OpKind.MUL_CHANNEL, [x, scale], name=name)

    def maxpool(
        self, x: str, kernel: int, stride: int, padding: int = 0,
        name: Optional[str] = None,
    ) -> str:
        return self._add(
            OpKind.MAXPOOL,
            [x],
            {"kernel": kernel, "stride": stride, "padding": padding},
            name=name,
        )

    def avgpool(
        self, x: str, kernel: int, stride: int, name: Optional[str] = None
    ) -> str:
        return self._add(
            OpKind.AVGPOOL,
            [x],
            {"kernel": kernel, "stride": stride, "padding": 0},
            name=name,
            qparams=avgpool_qparams(kernel * kernel),
        )

    def global_avgpool(self, x: str, name: Optional[str] = None) -> str:
        h, w, _ = self.graph.tensor(x).shape
        return self._add(
            OpKind.GLOBALAVGPOOL,
            [x],
            name=name,
            qparams=avgpool_qparams(h * w),
        )

    def flatten(self, x: str, name: Optional[str] = None) -> str:
        return self._add(OpKind.FLATTEN, [x], name=name)

    def output(self, tensor: str) -> str:
        """Mark ``tensor`` as a graph output."""
        self.graph.mark_output(tensor)
        return tensor

    def build(self) -> ComputationGraph:
        """Validate and return the finished graph."""
        self.graph.validate()
        return self.graph
