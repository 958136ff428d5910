"""Weight bit-slicing and input bit-serial encoding.

A ``bits_weight``-bit signed weight cannot fit one multi-level cell, so it
is split into ``ceil(bits_weight / bits_per_cell)`` base-``2^bits_per_cell``
digits, each programmed into its own physical column; negative values use a
differential pair (separate positive and negative column groups whose ADC
results are subtracted).  Activations stream in bit-serially: one binary
wordline pulse per activation bit, recombined by the shift-adder.

This is the ISAAC/PipeLayer-style arithmetic all three designs in the paper
share; RED changes only the *mapping* and *dataflow*, never this number
format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DeviceError, ParameterError
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class WeightSlicing:
    """Slicing configuration.

    Attributes:
        bits_weight: signed weight precision (two's-complement range).
        bits_per_cell: bits stored per physical cell.
    """

    bits_weight: int = 8
    bits_per_cell: int = 2

    def __post_init__(self) -> None:
        check_positive_int(self.bits_weight, "bits_weight")
        check_positive_int(self.bits_per_cell, "bits_per_cell")

    @property
    def num_slices(self) -> int:
        """Digit columns per logical weight column."""
        return -(-self.bits_weight // self.bits_per_cell)

    @property
    def base(self) -> int:
        """Digit radix, ``2^bits_per_cell``."""
        return 1 << self.bits_per_cell


def slice_weights(
    weights: np.ndarray, slicing: WeightSlicing
) -> tuple[np.ndarray, np.ndarray]:
    """Split signed integer weights into differential digit planes.

    Args:
        weights: integer array, any shape, values within the signed range.
        slicing: precision configuration.

    Returns:
        ``(pos_digits, neg_digits)`` of shape ``weights.shape + (num_slices,)``
        with digit ``d`` in position ``d`` (little-endian: slice 0 is the
        least-significant digit).  Positive weights populate ``pos_digits``,
        negative ones ``neg_digits``; the recombination is
        ``sum_d base^d * (pos_d - neg_d)``.
    """
    w = np.asarray(weights)
    if not np.issubdtype(w.dtype, np.integer):
        raise ParameterError("slice_weights expects integer weights; quantize first")
    limit = 1 << (slicing.bits_weight - 1)
    if w.size and (w.min() < -limit or w.max() > limit - 1):
        raise DeviceError(
            f"weights outside signed {slicing.bits_weight}-bit range: "
            f"[{w.min()}, {w.max()}]"
        )
    pos = np.where(w > 0, w, 0).astype(np.int64)
    neg = np.where(w < 0, -w, 0).astype(np.int64)

    def split(mag: np.ndarray) -> np.ndarray:
        digits = np.empty(mag.shape + (slicing.num_slices,), dtype=np.int64)
        rem = mag.copy()
        for d in range(slicing.num_slices):
            digits[..., d] = rem % slicing.base
            rem //= slicing.base
        return digits

    return split(pos), split(neg)


def reassemble_slices(
    pos_digits: np.ndarray, neg_digits: np.ndarray, slicing: WeightSlicing
) -> np.ndarray:
    """Inverse of :func:`slice_weights`."""
    weights = np.zeros(pos_digits.shape[:-1], dtype=np.int64)
    for d in range(slicing.num_slices):
        weights += (slicing.base ** d) * (
            pos_digits[..., d].astype(np.int64) - neg_digits[..., d].astype(np.int64)
        )
    return weights


def bit_serial_inputs(x: np.ndarray, bits_input: int) -> np.ndarray:
    """Decompose unsigned integer activations into binary pulse planes.

    Args:
        x: integer array of activations in ``[0, 2^bits_input)``.
        bits_input: activation precision.

    Returns:
        Array of shape ``(bits_input,) + x.shape`` of {0,1} pulses; plane
        ``b`` carries bit ``b`` (LSB first), so
        ``x = sum_b 2^b * planes[b]``.
    """
    check_positive_int(bits_input, "bits_input")
    xv = np.asarray(x)
    if not np.issubdtype(xv.dtype, np.integer):
        raise ParameterError("bit_serial_inputs expects integer activations")
    if xv.size and (xv.min() < 0 or xv.max() >= (1 << bits_input)):
        raise DeviceError(
            f"activations outside unsigned {bits_input}-bit range: "
            f"[{xv.min()}, {xv.max()}]"
        )
    planes = np.empty((bits_input,) + xv.shape, dtype=np.int64)
    for b in range(bits_input):
        planes[b] = (xv >> b) & 1
    return planes
