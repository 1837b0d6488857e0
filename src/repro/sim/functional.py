"""Golden functional model: exact NumPy execution of a computation graph.

This is the reference for the paper's "Functional Validation / Exec.
Result Check": it executes the INT8 graph with bit-exact semantics shared
with the simulator (:mod:`repro.graph.quantize`), so any divergence
between golden and simulated outputs indicates a compiler or simulator
bug, never numerical noise.  Convolutions and GEMMs go through
:func:`repro.graph.quantize.int_matmul` -- the same exact float32-BLAS
kernel the simulator's ``CIM_MVM`` uses -- so no operand is widened to
int32 here; inputs are checked int8-representable on entry
(:func:`repro.graph.quantize.as_int8`).  Depthwise convolution is the
one int32 ``einsum`` left (it is not a matrix product).
"""

from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigError, GraphError, ValidationError
from repro.graph.graph import ComputationGraph
from repro.graph.ops import Operator, OpKind
from repro.graph.quantize import (
    RELU6_CLIP,
    SIGMOID_LUT,
    SILU_LUT,
    add_i8,
    apply_lut,
    as_int8,
    cmul_i8,
    int_matmul,
    requantize,
)


def _window_view(x: np.ndarray, kernel: int, stride: int, padding: int,
                 pad_value: int) -> np.ndarray:
    """Return (out_h, out_w, k, k, C) windows of an (H, W, C) map."""
    h, w, c = x.shape
    if padding:
        padded = np.full(
            (h + 2 * padding, w + 2 * padding, c), pad_value, dtype=x.dtype
        )
        padded[padding:padding + h, padding:padding + w] = x
        x = padded
        h, w = x.shape[:2]
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    windows = np.empty((out_h, out_w, kernel, kernel, c), dtype=x.dtype)
    for ky in range(kernel):
        for kx in range(kernel):
            windows[:, :, ky, kx, :] = x[
                ky:ky + out_h * stride:stride, kx:kx + out_w * stride:stride, :
            ]
    return windows


def _conv(op: Operator, x: np.ndarray) -> np.ndarray:
    k, s, p = op.attrs["kernel"], op.attrs["stride"], op.attrs["padding"]
    windows = _window_view(x, k, s, p, 0)
    out_h, out_w = windows.shape[:2]
    cols = windows.reshape(out_h * out_w, -1)
    acc = int_matmul(cols, op.weight.reshape(cols.shape[1], -1))
    acc = acc + op.bias.astype(np.int32)[None, :]
    out = requantize(acc, op.qparams)
    return out.reshape(out_h, out_w, -1)


def _dwconv(op: Operator, x: np.ndarray) -> np.ndarray:
    k, s, p = op.attrs["kernel"], op.attrs["stride"], op.attrs["padding"]
    windows = _window_view(x, k, s, p, 0)  # (oh, ow, k, k, C)
    acc = np.einsum(
        "hwklc,klc->hwc",
        windows.astype(np.int32),
        op.weight.astype(np.int32),
        dtype=np.int32,
    )
    acc = acc + op.bias.astype(np.int32)[None, None, :]
    return requantize(acc, op.qparams)


def _gemm(op: Operator, x: np.ndarray) -> np.ndarray:
    acc = int_matmul(x.reshape(-1), op.weight)
    acc = acc + op.bias.astype(np.int32)
    return requantize(acc, op.qparams)


def _maxpool(op: Operator, x: np.ndarray) -> np.ndarray:
    k, s = op.attrs["kernel"], op.attrs["stride"]
    p = op.attrs.get("padding", 0)
    windows = _window_view(x, k, s, p, -128)
    return windows.max(axis=(2, 3)).astype(np.int8)


def _avgpool(op: Operator, x: np.ndarray) -> np.ndarray:
    k, s = op.attrs["kernel"], op.attrs["stride"]
    windows = _window_view(x, k, s, op.attrs.get("padding", 0), 0)
    acc = windows.astype(np.int32).sum(axis=(2, 3))
    return requantize(acc, op.qparams)


def _global_avgpool(op: Operator, x: np.ndarray) -> np.ndarray:
    acc = x.astype(np.int32).sum(axis=(0, 1))
    return requantize(acc, op.qparams)


def execute_graph(
    graph: ComputationGraph, inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Execute the graph; returns every tensor's value by name."""
    values: Dict[str, np.ndarray] = {}
    for op in graph.topological_order():
        if op.kind is OpKind.INPUT:
            if op.output not in inputs:
                raise ValidationError(f"missing input tensor {op.output!r}")
            data = as_int8(
                inputs[op.output], f"input {op.output!r}", ValidationError
            )
            expected = graph.tensor(op.output).shape
            if tuple(data.shape) != tuple(expected):
                raise ValidationError(
                    f"input {op.output!r}: shape {data.shape} != {expected}"
                )
            values[op.output] = data
            continue
        args = [values[name] for name in op.inputs]
        x = args[0]
        if op.kind is OpKind.CONV:
            out = _conv(op, x)
        elif op.kind is OpKind.DWCONV:
            out = _dwconv(op, x)
        elif op.kind is OpKind.GEMM:
            out = _gemm(op, x)
        elif op.kind is OpKind.RELU:
            out = np.maximum(x, 0).astype(np.int8)
        elif op.kind is OpKind.RELU6:
            out = np.clip(x, 0, RELU6_CLIP).astype(np.int8)
        elif op.kind is OpKind.SILU:
            out = apply_lut(x, SILU_LUT)
        elif op.kind is OpKind.SIGMOID:
            out = apply_lut(x, SIGMOID_LUT)
        elif op.kind is OpKind.ADD:
            out = add_i8(x, args[1])
        elif op.kind is OpKind.MUL_CHANNEL:
            out = cmul_i8(x, args[1])
        elif op.kind is OpKind.MAXPOOL:
            out = _maxpool(op, x)
        elif op.kind is OpKind.AVGPOOL:
            out = _avgpool(op, x)
        elif op.kind is OpKind.GLOBALAVGPOOL:
            out = _global_avgpool(op, x)
        elif op.kind is OpKind.FLATTEN:
            out = x.reshape(-1)
        else:
            raise GraphError(f"golden model: unhandled op kind {op.kind}")
        values[op.output] = out
    return values


def golden_outputs(
    graph: ComputationGraph, inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Only the graph outputs."""
    values = execute_graph(graph, inputs)
    return {name: values[name] for name in graph.outputs}


def random_input(
    graph: ComputationGraph, seed: int = 0, tensor: Optional[str] = None
) -> np.ndarray:
    """A reproducible random int8 input for the (single-input) graph."""
    ops = graph.input_operators
    if tensor is None:
        if len(ops) != 1:
            raise GraphError("graph has multiple inputs; name one")
        tensor = ops[0].output
    if seed < 0:
        raise ConfigError(f"input seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    shape = graph.tensor(tensor).shape
    return rng.integers(-100, 101, size=shape, dtype=np.int8)
