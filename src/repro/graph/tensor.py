"""Tensor metadata for the computation-graph IR.

All activations use an NHWC-like layout with the batch dimension fixed at 1
(inference), so feature maps are ``(H, W, C)`` and flat vectors are
``(N,)``.  Channels-innermost matches the digital CIM dataflow: the input
rows broadcast into a macro group are contiguous channel runs.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.errors import GraphError
from repro.utils import prod

#: Supported element types and their byte widths.
DTYPE_BYTES = {"int8": 1, "int32": 4}


@dataclass(frozen=True)
class TensorInfo:
    """Shape and dtype of one tensor in the graph."""

    name: str
    shape: Tuple[int, ...]
    dtype: str = "int8"

    def __post_init__(self):
        if self.dtype not in DTYPE_BYTES:
            raise GraphError(f"unsupported dtype {self.dtype!r}")
        if not self.shape or any(d <= 0 for d in self.shape):
            raise GraphError(f"tensor {self.name}: bad shape {self.shape}")

    @property
    def num_elements(self) -> int:
        return prod(self.shape)

    @property
    def size_bytes(self) -> int:
        return self.num_elements * DTYPE_BYTES[self.dtype]

    @property
    def is_feature_map(self) -> bool:
        """True for (H, W, C) activations, False for flat vectors."""
        return len(self.shape) == 3

    @property
    def row_bytes(self) -> int:
        """Bytes of one H row (the whole tensor for flat vectors)."""
        if self.is_feature_map:
            return self.shape[1] * self.shape[2] * DTYPE_BYTES[self.dtype]
        return self.size_bytes
