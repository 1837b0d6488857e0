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

The model is batch-major: every op kernel takes a stacked ``(B, ...)``
activation, so a GEMM or convolution multiplies all ``B`` inputs'
rows against its weight in one product and widens each weight once per
batch instead of once per input.  Rows of a product are independent and
each output element is the same exact integer chunk sum whatever the row
count, so a stacked result is bit-identical to ``B`` separate ones.
:func:`golden_batch` runs a served batch in groups of at most
``_GROUP_BYTES`` of the graph's widest per-input tensor;
:func:`execute_graph` and :func:`golden_outputs` are a batch of one.
"""

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional

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

#: Bytes one group may stack of the graph's widest per-input tensor (an
#: activation or a conv / pool im2col): large enough that a served batch
#: widens each weight only a few times, small enough that a group never
#: holds the whole batch's im2col or multiplies it in one product (whole
#: batches ran into multi-millisecond threaded-sgemm stalls).
_GROUP_BYTES = 1 << 20

_WINDOWED = (OpKind.CONV, OpKind.DWCONV, OpKind.MAXPOOL, OpKind.AVGPOOL)


def _window_view(x: np.ndarray, kernel: int, stride: int, padding: int,
                 pad_value: int) -> np.ndarray:
    """Return (B, out_h, out_w, k, k, C) windows of a (B, H, W, C) map."""
    b, h, w, c = x.shape
    if padding:
        padded = np.full(
            (b, h + 2 * padding, w + 2 * padding, c), pad_value, dtype=x.dtype
        )
        padded[:, padding:padding + h, padding:padding + w] = x
        x = padded
        h, w = x.shape[1:3]
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    windows = np.empty((b, out_h, out_w, kernel, kernel, c), dtype=x.dtype)
    for ky in range(kernel):
        for kx in range(kernel):
            windows[:, :, :, ky, kx, :] = x[
                :, ky:ky + out_h * stride:stride,
                kx:kx + out_w * stride:stride, :
            ]
    return windows


def _conv(op: Operator, x: np.ndarray) -> np.ndarray:
    k, s, p = op.attrs["kernel"], op.attrs["stride"], op.attrs["padding"]
    windows = _window_view(x, k, s, p, 0)
    cols = windows.reshape(-1, k * k * x.shape[-1])
    acc = int_matmul(cols, op.weight.reshape(cols.shape[1], -1))
    acc = acc + op.bias.astype(np.int32)[None, :]
    out = requantize(acc, op.qparams)
    return out.reshape(*windows.shape[:3], -1)


def _dwconv(op: Operator, x: np.ndarray) -> np.ndarray:
    k, s, p = op.attrs["kernel"], op.attrs["stride"], op.attrs["padding"]
    windows = _window_view(x, k, s, p, 0)  # (B, oh, ow, k, k, C)
    acc = np.einsum(
        "bhwklc,klc->bhwc",
        windows.astype(np.int32),
        op.weight.astype(np.int32),
        dtype=np.int32,
    )
    acc = acc + op.bias.astype(np.int32)
    return requantize(acc, op.qparams)


def _gemm(op: Operator, x: np.ndarray) -> np.ndarray:
    acc = int_matmul(x.reshape(len(x), -1), op.weight)
    acc = acc + op.bias.astype(np.int32)
    return requantize(acc, op.qparams)


def _maxpool(op: Operator, x: np.ndarray) -> np.ndarray:
    k, s = op.attrs["kernel"], op.attrs["stride"]
    p = op.attrs.get("padding", 0)
    windows = _window_view(x, k, s, p, -128)
    return windows.max(axis=(3, 4)).astype(np.int8)


def _avgpool(op: Operator, x: np.ndarray) -> np.ndarray:
    k, s = op.attrs["kernel"], op.attrs["stride"]
    windows = _window_view(x, k, s, op.attrs.get("padding", 0), 0)
    acc = windows.astype(np.int32).sum(axis=(3, 4))
    return requantize(acc, op.qparams)


def _global_avgpool(op: Operator, x: np.ndarray) -> np.ndarray:
    acc = x.astype(np.int32).sum(axis=(1, 2))
    return requantize(acc, op.qparams)


def _mul_channel(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Input ``b``'s channels times row ``b`` of ``scale`` (``(B, C)``)."""
    return cmul_i8(x, scale.reshape((len(x),) + (1,) * (x.ndim - 2) + (-1,)))


def _stack_inputs(
    graph: ComputationGraph, feeds: List[Dict[str, np.ndarray]]
) -> Dict[str, np.ndarray]:
    """Each input tensor's per-feed values, checked and stacked on axis 0."""
    stacked = {}
    for op in graph.input_operators:
        expected = tuple(graph.tensor(op.output).shape)
        rows = []
        for feed in feeds:
            if op.output not in feed:
                raise ValidationError(f"missing input tensor {op.output!r}")
            data = as_int8(
                feed[op.output], f"input {op.output!r}", ValidationError
            )
            if tuple(data.shape) != expected:
                raise ValidationError(
                    f"input {op.output!r}: shape {data.shape} != {expected}"
                )
            rows.append(data)
        stacked[op.output] = np.stack(rows)
    return stacked


def _execute(
    graph: ComputationGraph,
    order: List[Operator],
    feeds: List[Dict[str, np.ndarray]],
) -> Dict[str, np.ndarray]:
    """Run ``order`` over the stacked ``feeds``; every tensor's value by
    name, each with a leading axis of ``len(feeds)``."""
    values = _stack_inputs(graph, feeds)
    for op in order:
        if op.kind is OpKind.INPUT:
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
            out = _mul_channel(x, args[1])
        elif op.kind is OpKind.MAXPOOL:
            out = _maxpool(op, x)
        elif op.kind is OpKind.AVGPOOL:
            out = _avgpool(op, x)
        elif op.kind is OpKind.GLOBALAVGPOOL:
            out = _global_avgpool(op, x)
        elif op.kind is OpKind.FLATTEN:
            out = x.reshape(len(x), -1)
        else:
            raise GraphError(f"golden model: unhandled op kind {op.kind}")
        values[op.output] = out
    return values


def execute_graph(
    graph: ComputationGraph, inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Execute the graph; returns every tensor's value by name."""
    values = _execute(graph, graph.topological_order(), [inputs])
    return {name: value[0] for name, value in values.items()}


def golden_outputs(
    graph: ComputationGraph, inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Only the graph outputs."""
    values = execute_graph(graph, inputs)
    return {name: values[name] for name in graph.outputs}


def _group_size(graph: ComputationGraph) -> int:
    """Inputs :func:`golden_batch` stacks per group: as many as fit
    ``_GROUP_BYTES`` of the graph's widest per-input int8 tensor -- an
    activation, or the im2col of a convolution or pooling window --
    read from tensor shapes (at least one)."""
    widest = 1
    for op in graph.operators:
        out = graph.tensor(op.output)
        nbytes = out.size_bytes
        if op.kind in _WINDOWED:
            kernel = op.attrs["kernel"]
            channels = graph.tensor(op.inputs[0]).shape[-1]
            im2col = out.shape[0] * out.shape[1] * kernel * kernel * channels
            nbytes = max(nbytes, im2col)
        widest = max(widest, nbytes)
    return max(1, _GROUP_BYTES // widest)


def golden_batch(
    graph: ComputationGraph, inputs: Iterable[Dict[str, np.ndarray]]
) -> Iterator[Dict[str, np.ndarray]]:
    """Each feed's graph outputs, in input order, as :func:`golden_outputs`
    would give them -- computed :func:`_group_size` feeds at a time, so only
    one group's tensors are alive at once."""
    order = graph.topological_order()
    size = _group_size(graph)
    feeds = iter(inputs)
    while True:
        group = list(islice(feeds, size))
        if not group:
            return
        values = _execute(graph, order, group)
        outputs = [values[name] for name in graph.outputs]
        del values  # the group's intermediates go before the next group
        for row in range(len(group)):
            yield {
                name: value[row]
                for name, value in zip(graph.outputs, outputs)
            }


def check_outputs(
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


def resolve_inputs(
    graph: ComputationGraph, input_data, batch: int, seed: int
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
