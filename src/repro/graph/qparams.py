"""Requantisation parameters: the part of the INT8 scheme a graph carries.

Pure Python, so building and planning a graph never loads NumPy; the
array arithmetic these parameters feed lives in
:mod:`repro.graph.quantize`, which re-exports the names below.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QuantParams:
    """Requantisation parameters of one operator: out = (acc*qmul) >> qshift."""

    qmul: int = 1
    qshift: int = 0

    def __post_init__(self):
        if self.qmul <= 0 or not 0 <= self.qshift < 32:
            raise ValueError(f"bad quantisation parameters {self}")


def default_qparams(fan_in: int) -> QuantParams:
    """Deterministic requantisation parameters for a given accumulation
    fan-in, sized so int8 outputs neither saturate constantly nor vanish."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    # weights ~ U[-64,63], activations ~ int8: acc std ~ sqrt(fan_in)*37*40
    shift = max(0, int(math.ceil(math.log2(math.sqrt(fan_in) * 64))))
    return QuantParams(qmul=1, qshift=shift)


def avgpool_qparams(window: int, qshift: int = 8) -> QuantParams:
    """Fixed-point divide-by-``window`` for average pooling."""
    if window <= 0:
        raise ValueError("window must be positive")
    return QuantParams(qmul=max(1, round((1 << qshift) / window)), qshift=qshift)
