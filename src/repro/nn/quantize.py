"""Uniform quantization used by the bit-accurate crossbar pipeline.

The ReRAM simulators (:mod:`repro.reram`) operate on integers: weights are
quantized symmetrically to ``bits`` signed levels (then bit-sliced across
cells) and activations to unsigned levels (then bit-serialized onto the
wordlines).  These helpers provide the quantization algebra and its exactness
guarantees, property-tested in ``tests/nn``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters: ``real = scale * (q - zero_point)``.

    Attributes:
        scale: positive real step size.
        zero_point: integer offset.
        bits: total bit width.
        signed: whether the integer domain is two's-complement style
            (``[-2^(b-1), 2^(b-1) - 1]``) or unsigned (``[0, 2^b - 1]``).
    """

    scale: float
    zero_point: int
    bits: int
    signed: bool

    def __post_init__(self) -> None:
        check_positive_int(self.bits, "bits")
        if self.scale <= 0.0:
            raise ParameterError(f"scale must be positive, got {self.scale}")

    @property
    def qmin(self) -> int:
        """Smallest representable integer."""
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def qmax(self) -> int:
        """Largest representable integer."""
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1


def symmetric_quant_params(x: np.ndarray, bits: int, signed: bool = True) -> QuantParams:
    """Pick a symmetric (zero_point = 0) scale covering ``max |x|``.

    A zero tensor gets scale 1.0 (any scale represents it exactly).
    """
    check_positive_int(bits, "bits")
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    qmax = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
    scale = peak / qmax if peak > 0.0 else 1.0
    if scale == 0.0:
        # A subnormal peak can underflow the division to exactly zero;
        # the smallest positive float still bounds the round-trip error
        # at one step.
        scale = float(np.finfo(np.float64).smallest_subnormal)
    return QuantParams(scale=scale, zero_point=0, bits=bits, signed=signed)


def quantize_tensor(x: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize to the integer grid with round-half-even and saturation."""
    q = np.rint(x / params.scale) + params.zero_point
    return np.clip(q, params.qmin, params.qmax).astype(np.int64)
