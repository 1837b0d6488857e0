"""Shared INT8 quantisation arithmetic.

Both the golden functional model (:mod:`repro.sim.functional`) and the
simulator's vector/CIM units import these helpers, so the two always agree
bit-for-bit; any residual mismatch is a genuine compiler or simulator bug
and is caught by functional validation.

The scheme is the standard fixed-point one used by INT8 inference stacks:
32-bit accumulators are requantised by ``clip((acc * qmul) >> qshift)``
with a per-operator multiplier/shift pair; nonlinearities act on the int8
domain through 256-entry lookup tables.
"""

import numpy as np

from repro.graph.qparams import (  # re-exported: the scheme has one import site
    QuantParams,
    avgpool_qparams,
    default_qparams,
)

I8_MIN, I8_MAX = -128, 127

#: Quantized representation constants for the activation LUTs: int8 code x
#: represents the real value x / ACT_SCALE.
ACT_SCALE = 16.0
#: ReLU6 clip point in int8 codes (6.0 * ACT_SCALE, saturated).
RELU6_CLIP = min(I8_MAX, int(round(6.0 * ACT_SCALE)))

#: Longest reduction one float32 product may cover.  1024 * 128 * 128 = 2**24,
#: the largest magnitude below which float32 holds every integer exactly.
_K_CHUNK = 1024


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``a @ b`` of int8-valued operands as int32 (wrapping mod 2**32).

    The one integer matrix product of the code base: the golden model,
    the interpreter's ``CIM_MVM``, the generated blocks and the batched
    replay all call it, so they cannot disagree.  NumPy's integer matmul
    has no BLAS backend, so the reduction axis is cut into chunks of at
    most ``_K_CHUNK`` and each chunk is multiplied in float32: with
    ``|a|, |b| <= 128`` every partial sum inside a chunk is an integer of
    magnitude ``<= 2**24``, which float32 holds exactly in whatever order
    BLAS adds.  The chunk results are summed in int32, which wraps exactly
    as an int32 matmul would -- the result is bit-identical for every K.

    Shapes broadcast as in ``np.matmul``: ``a`` is a vector, a matrix or
    a stack of matrices, ``b`` a matrix or a matching stack.  Each is
    int8 (activations, macro-group registers), or float32 already
    holding int8 values, which skips its conversion.  The result is a fresh
    C-contiguous int32 array.
    """
    k = a.shape[-1]

    def chunk(lo: int) -> np.ndarray:
        return np.matmul(
            a[..., lo:lo + _K_CHUNK].astype(np.float32, copy=False),
            b[..., lo:lo + _K_CHUNK, :].astype(np.float32, copy=False),
        ).astype(np.int32)

    acc = chunk(0)
    for lo in range(_K_CHUNK, k, _K_CHUNK):
        acc += chunk(lo)
    return acc


def as_int8(data, what: str, error: type) -> np.ndarray:
    """``data`` as an int8 array, refusing whatever the cast would change.

    Model inputs pass through here where they enter (the serving front
    end, the golden model), which is what makes :func:`int_matmul`'s
    "operands are int8-valued" precondition hold.  A non-integer dtype
    or a value outside ``[-128, 127]`` raises ``error`` naming ``what``.
    """
    arr = np.asarray(data)
    if arr.dtype == np.int8:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise error(
            f"{what} has dtype {arr.dtype}; int8-representable integers "
            f"are required"
        )
    if arr.size and (arr.min() < I8_MIN or arr.max() > I8_MAX):
        raise error(
            f"{what} has values in [{arr.min()}, {arr.max()}], outside "
            f"int8's [{I8_MIN}, {I8_MAX}]"
        )
    return arr.astype(np.int8)


def saturate_i8(values: np.ndarray) -> np.ndarray:
    """Clip int values into int8 range and cast."""
    return np.clip(values, I8_MIN, I8_MAX).astype(np.int8)


def requantize(acc: np.ndarray, params: QuantParams) -> np.ndarray:
    """int32 accumulators -> int8 activations (arithmetic right shift)."""
    acc = acc.astype(np.int64)
    return saturate_i8((acc * params.qmul) >> params.qshift)


def _lut(fn) -> np.ndarray:
    """Build a 256-entry int8 LUT over the int8 input domain."""
    codes = np.arange(-128, 128, dtype=np.int64)
    real = codes.astype(np.float64) / ACT_SCALE
    out = np.round(fn(real) * ACT_SCALE)
    return saturate_i8(out)


SIGMOID_LUT = _lut(lambda x: 1.0 / (1.0 + np.exp(-x)))
SILU_LUT = _lut(lambda x: x / (1.0 + np.exp(-x)))
TANH_LUT = _lut(np.tanh)


def apply_lut(values: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Apply a 256-entry LUT to int8 data (index = code + 128)."""
    return lut[values.astype(np.int16) + 128]


def add_i8(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Saturating int8 elementwise add."""
    return saturate_i8(a.astype(np.int16) + b.astype(np.int16))


def cmul_i8(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per-channel Q7 scale multiply: (x * s) >> 7, saturated.

    ``x`` has channels in its last axis; ``scale`` is one int8 value per
    channel (typically a sigmoid gate output, interpreted as Q7 in [0, 1)).
    """
    prod = x.astype(np.int32) * scale.astype(np.int32)
    return saturate_i8(prod >> 7)
