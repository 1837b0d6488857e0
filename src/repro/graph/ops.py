"""Operator nodes of the computation-graph IR.

The operator vocabulary covers everything the paper's benchmark suite
(ResNet18, VGG19, MobileNetV2, EfficientNetB0) needs after BatchNorm
folding: convolutions (standard and depthwise), fully-connected layers,
the elementwise nonlinearities, residual adds, pooling, squeeze-excite
channel scaling, and flatten.

Operators carrying weights (``CONV``, ``DWCONV``, ``GEMM``) are the
MVM-based operators the compiler maps onto CIM macro groups; everything
else executes on the vector unit or is pure data movement.
"""

from __future__ import annotations

import enum
import math
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import GraphError
from repro.graph.qparams import QuantParams

if TYPE_CHECKING:
    import numpy as np


class OpKind(enum.Enum):
    """Operator vocabulary."""

    INPUT = "input"
    CONV = "conv"            # standard convolution (NHWC, square kernel)
    DWCONV = "dwconv"        # depthwise convolution
    GEMM = "gemm"            # fully-connected layer
    RELU = "relu"
    RELU6 = "relu6"
    SILU = "silu"
    SIGMOID = "sigmoid"
    ADD = "add"              # elementwise residual add (two inputs)
    MUL_CHANNEL = "mul_channel"  # x * per-channel scale (squeeze-excite)
    MAXPOOL = "maxpool"
    AVGPOOL = "avgpool"
    GLOBALAVGPOOL = "globalavgpool"
    FLATTEN = "flatten"


#: Operators the compiler maps onto CIM macro groups.
MVM_KINDS = frozenset({OpKind.CONV, OpKind.DWCONV, OpKind.GEMM})

#: Pure elementwise operators fusable into a producer's epilogue.
ELEMENTWISE_KINDS = frozenset(
    {OpKind.RELU, OpKind.RELU6, OpKind.SILU, OpKind.SIGMOID, OpKind.ADD}
)

#: Operators that execute on the vector compute unit as standalone nodes.
VECTOR_KINDS = frozenset(
    {
        OpKind.MAXPOOL,
        OpKind.AVGPOOL,
        OpKind.GLOBALAVGPOOL,
        OpKind.MUL_CHANNEL,
        OpKind.ADD,
        OpKind.RELU,
        OpKind.RELU6,
        OpKind.SILU,
        OpKind.SIGMOID,
    }
)

_REQUIRED_ATTRS = {
    OpKind.CONV: ("out_channels", "kernel", "stride", "padding"),
    OpKind.DWCONV: ("kernel", "stride", "padding"),
    OpKind.GEMM: ("out_features",),
    OpKind.MAXPOOL: ("kernel", "stride"),
    OpKind.AVGPOOL: ("kernel", "stride"),
}


class DeferredArray(NamedTuple):
    """A parameter array known by its shape; ``read()`` returns the values.

    What :class:`~repro.graph.builder.GraphBuilder` hands an operator in
    place of an array it has not drawn yet.
    """

    shape: Tuple[int, ...]
    read: Callable[[], np.ndarray]


class Operator:
    """One node of the computation graph.

    Attributes
    ----------
    name:
        Unique operator name.
    kind:
        Operator vocabulary entry.
    inputs:
        Input tensor names (order matters; e.g. ``ADD`` is ``[a, b]`` and
        ``MUL_CHANNEL`` is ``[x, scale]``).
    output:
        Output tensor name (single-output operators suffice for the suite).
    attrs:
        Kind-specific attributes (kernel / stride / padding / channels).
    weight / bias:
        Parameter arrays for MVM operators.  Conv weights are
        ``(k, k, C_in, C_out)`` int8 (HWIO, matching the NHWC dataflow);
        depthwise weights are ``(k, k, C)``; GEMM weights are
        ``(in_features, out_features)``.  Bias is int32 per output channel.
        Either may be given as a :class:`DeferredArray`, which its first
        read replaces by the values; ``weight_shape``, ``bias_shape`` and
        ``weight_bytes()`` never read values.
    qparams:
        Requantisation parameters for operators producing int8 from int32
        accumulators (MVM ops, average pools).
    """

    def __init__(
        self,
        name: str,
        kind: OpKind,
        inputs: List[str],
        output: str,
        attrs: Optional[Dict[str, Any]] = None,
        weight: Union[np.ndarray, DeferredArray, None] = None,
        bias: Union[np.ndarray, DeferredArray, None] = None,
        qparams: Optional[QuantParams] = None,
    ):
        self.name = name
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.attrs = {} if attrs is None else attrs
        self._weight = weight
        self._bias = bias
        self.qparams = qparams
        for attr in _REQUIRED_ATTRS.get(self.kind, ()):
            if attr not in self.attrs:
                raise GraphError(f"{self.name} ({self.kind.value}): missing attr {attr!r}")
        expected_inputs = 2 if self.kind in (OpKind.ADD, OpKind.MUL_CHANNEL) else (
            0 if self.kind is OpKind.INPUT else 1
        )
        if len(self.inputs) != expected_inputs:
            raise GraphError(
                f"{self.name} ({self.kind.value}): expected {expected_inputs} "
                f"inputs, got {len(self.inputs)}"
            )

    @property
    def weight(self) -> Optional[np.ndarray]:
        if isinstance(self._weight, DeferredArray):
            self._weight = self._weight.read()
        return self._weight

    @property
    def bias(self) -> Optional[np.ndarray]:
        if isinstance(self._bias, DeferredArray):
            self._bias = self._bias.read()
        return self._bias

    @property
    def weight_shape(self) -> Optional[Tuple[int, ...]]:
        """Shape of ``weight`` (``None`` without one); reads no values."""
        return None if self._weight is None else self._weight.shape

    @property
    def bias_shape(self) -> Optional[Tuple[int, ...]]:
        """Shape of ``bias`` (``None`` without one); reads no values."""
        return None if self._bias is None else self._bias.shape

    @property
    def is_mvm(self) -> bool:
        """True when this operator maps onto CIM macro groups."""
        return self.kind in MVM_KINDS

    @property
    def is_elementwise(self) -> bool:
        return self.kind in ELEMENTWISE_KINDS

    def attr(self, name: str, default: Any = None) -> Any:
        return self.attrs.get(name, default)

    def weight_bytes(self) -> int:
        """Parameter footprint in bytes (weights only; bias is int32)."""
        return 0 if self._weight is None else math.prod(self._weight.shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Operator({self.name}, {self.kind.value}, "
            f"in={self.inputs}, out={self.output})"
        )
